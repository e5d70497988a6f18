import numpy as np
import pytest

from scharm.augment import augment_site
from scharm.autodiff import Tensor, adain, grad_reversal, sigmoid_bce, weighted_mae_loss, zero_grads
from scharm.errors import DimensionMismatch, ValidationError
from scharm.linear import LinearEdgeModel
from scharm.metrics import normalized_laplacian
from scharm.nn import (
    MLP,
    AdaInConditioner,
    BatchNorm,
    ChebConv,
    Dense,
    LayerNorm,
    UnitNorm,
    glorot,
)
from conftest import random_connectome


class TestGlorot:
    def test_bounds_and_determinism(self):
        rng = np.random.default_rng(0)
        w = glorot(rng, 100, 50)
        limit = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.all(np.abs(w) <= limit)
        assert np.array_equal(glorot(np.random.default_rng(0), 100, 50), w)


class TestDense:
    def test_affine_map(self, rng):
        layer = Dense(rng, 4, 3)
        x = rng.standard_normal((5, 4))
        out = layer(Tensor(x))
        assert np.allclose(out.data, x @ layer.w.data + layer.b.data)

    def test_relu_activation(self, rng):
        layer = Dense(rng, 4, 3, act="relu")
        out = layer(Tensor(rng.standard_normal((5, 4))))
        assert np.all(out.data >= 0)

    def test_input_width_checked(self, rng):
        layer = Dense(rng, 4, 3)
        with pytest.raises(DimensionMismatch):
            layer(Tensor(np.zeros((2, 5))))

    def test_unknown_options_rejected(self, rng):
        with pytest.raises(ValueError):
            Dense(rng, 2, 2, norm="spectral")
        with pytest.raises(ValueError):
            Dense(rng, 2, 2, act="gelu")

    def test_parameters_include_norm(self, rng):
        layer = Dense(rng, 4, 3, norm="batch")
        assert len(layer.parameters()) == 4  # w, b, gamma, beta
        named = layer.named_parameters(prefix="enc.")
        assert "enc.w" in named and "enc.norm.gamma" in named


class TestBatchNorm:
    def test_training_statistics(self, rng):
        bn = BatchNorm(4)
        x = rng.standard_normal((32, 4)) * 3.0 + 2.0
        out = bn(Tensor(x), training=True).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_drive_inference(self, rng):
        bn = BatchNorm(3, momentum=1.0)  # running stats jump straight to batch stats
        x = rng.standard_normal((64, 3)) * 2.0 + 5.0
        bn(Tensor(x), training=True)
        y = rng.standard_normal((8, 3)) * 2.0 + 5.0
        out = bn(Tensor(y), training=False).data
        mu, var = x.mean(axis=0), x.var(axis=0)
        assert np.allclose(out, (y - mu) / np.sqrt(var + 1e-5), atol=1e-9)


class TestLayerNorm:
    def test_per_sample_statistics(self, rng):
        ln = LayerNorm(6)
        x = rng.standard_normal((4, 6)) * 5.0 - 1.0
        out = ln(Tensor(x)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)


class TestUnitNorm:
    def test_unit_rms(self, rng):
        un = UnitNorm()
        x = rng.standard_normal((5, 8)) * 20.0
        out = un(Tensor(x)).data
        rms = np.sqrt((out**2).mean(axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-6)

    def test_preserves_direction(self, rng):
        un = UnitNorm()
        x = rng.standard_normal((3, 4))
        out = un(Tensor(x)).data
        for i in range(3):
            cos = out[i] @ x[i] / (np.linalg.norm(out[i]) * np.linalg.norm(x[i]))
            assert cos == pytest.approx(1.0, abs=1e-9)

    def test_no_parameters(self):
        assert UnitNorm().parameters() == []

    def test_gradient_flows(self, rng):
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        out = UnitNorm()(x).sum()
        out.backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))


class TestMLP:
    def test_hidden_relu_last_linear(self, rng):
        mlp = MLP(rng, [4, 8, 3])
        x = rng.standard_normal((10, 4))
        out = mlp(Tensor(x)).data
        assert out.shape == (10, 3)
        assert (out < 0).any()  # last layer is linear, not rectified

    def test_trainable(self, rng):
        mlp = MLP(rng, [3, 6, 1])
        x = Tensor(rng.standard_normal((8, 3)))
        loss = mlp(x).pow(2.0).mean()
        zero_grads(mlp.parameters())
        loss.backward()
        assert all(p.grad is not None for p in mlp.parameters())

    def test_named_parameters_unique(self, rng):
        mlp = MLP(rng, [3, 5, 5, 2], norm="batch")
        named = mlp.named_parameters(prefix="m.")
        assert len(named) == len(set(named))
        assert len(named) == len(mlp.parameters())

    def test_named_walk_covers_layers_and_norm_buffers(self, rng):
        mlp = MLP(rng, [3, 5, 2], norm="batch")
        named = mlp.named_parameters(prefix="m.")
        assert list(named) == ["m.layers.0.w", "m.layers.0.b", "m.layers.0.norm.gamma",
                               "m.layers.0.norm.beta", "m.layers.1.w", "m.layers.1.b"]
        assert named["m.layers.1.w"] is mlp.layers[1].w
        buffers = mlp.named_buffers()
        assert list(buffers) == ["layers.0.norm.running_mean", "layers.0.norm.running_var"]
        assert buffers["layers.0.norm.running_var"] is mlp.layers[0].norm.running_var


class TestChebConvLayer:
    def test_forward_shape(self, rng):
        m = random_connectome(rng, 6, density=0.8)
        lap = normalized_laplacian(m) - np.eye(6)
        layer = ChebConv(rng, 2, 5, order=3)
        out = layer(Tensor(rng.standard_normal((3, 6, 2))), Tensor(lap[None].repeat(3, axis=0)))
        assert out.data.shape == (3, 6, 5)

    def test_bias_applied(self, rng):
        layer = ChebConv(rng, 2, 3, order=1)
        layer.theta.data[...] = 0.0
        layer.b.data[:] = 7.0
        out = layer(Tensor(np.ones((1, 4, 2))), Tensor(np.zeros((1, 4, 4))))
        assert np.allclose(out.data, 7.0)

    def test_batch_norm_rejected_for_graphs(self, rng):
        with pytest.raises(ValueError):
            ChebConv(rng, 2, 3, order=1, norm="batch")


class TestAdaInConditioner:
    def test_identity_at_init(self, rng):
        # zero-initialized conditioning nets give scale 1, shift 0, so the
        # output is just the re-standardized features
        cond = AdaInConditioner(rng, latent_dim=4, features=6)
        f_e = Tensor(rng.standard_normal((2, 10, 6)) * 3.0 + 1.0)
        f_m = Tensor(rng.standard_normal((2, 4)))
        out = cond(f_e, f_m).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=1), 1.0, atol=1e-4)

    def test_conditioning_responds_after_update(self, rng):
        cond = AdaInConditioner(rng, latent_dim=4, features=6)
        cond.shift_net.w.data[...] = 1.0
        f_e = Tensor(rng.standard_normal((1, 10, 6)))
        a = cond(f_e, Tensor(np.zeros((1, 4)))).data
        b = cond(f_e, Tensor(np.ones((1, 4)))).data
        assert not np.allclose(a, b)


@pytest.mark.parametrize("call", [
    lambda rng: augment_site([random_connectome(rng, 5)] * 2, count=0, seed=0),
    lambda rng: LinearEdgeModel(np.full((3, 4), np.inf), np.zeros(3)),
    lambda rng: grad_reversal(Tensor(np.zeros(2)), lam=-1.0),
    lambda rng: adain(Tensor(np.zeros((1, 3, 2))), Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2))),
                      eps=0.0),
    lambda rng: weighted_mae_loss(Tensor(np.zeros(3)), np.zeros(3), edge_weight=0.5),
    lambda rng: sigmoid_bce(Tensor(np.zeros(2)), np.array([0.5, 1.0])),
    lambda rng: Dense(rng, 2, 2, norm="spectral"),
    lambda rng: Dense(rng, 2, 2, act="gelu"),
    lambda rng: ChebConv(rng, 2, 3, order=1, norm="batch"),
    lambda rng: ChebConv(rng, 2, 3, order=1, act="gelu"),
], ids=["augment_site", "LinearEdgeModel", "grad_reversal", "adain", "weighted_mae_loss",
        "sigmoid_bce", "Dense-norm", "Dense-act", "ChebConv", "ChebConv-act"])
def test_argument_errors_are_validation_errors(call, rng):
    # a ValidationError is also a ValueError, and the CLI maps it to exit 1
    with pytest.raises(ValidationError):
        call(rng)
