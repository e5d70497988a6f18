import gc
import threading

import numpy as np
import pytest

from scharm.autodiff import (
    _ADAM_BLOCK,
    AdamState,
    Tensor,
    adain,
    adam_step,
    chebconv,
    check_rescaled_laplacian,
    concat,
    grad_reversal,
    no_grad,
    sigmoid_bce,
    softmax_cross_entropy,
    weighted_mae_loss,
    zero_grads,
)
from scharm.errors import DimensionMismatch, SpectrumOutOfRange, ValidationError
from scharm.metrics import normalized_laplacian
from conftest import random_connectome
from _oracles import bf_adam_step, softmax

H = 1e-5
RTOL = 1e-4


def finite_diff_check(fn, inputs, rtol=RTOL, h=H, requires_grad=None):
    """Compare reverse-mode gradients of scalar fn(*inputs) against central
    finite differences on every input element. Inputs whose `requires_grad`
    flag is False are constants: they must get no gradient at all."""
    requires_grad = requires_grad or [True] * len(inputs)
    tensors = [Tensor(np.array(x, dtype=np.float64), requires_grad=r)
               for x, r in zip(inputs, requires_grad)]
    out = fn(*tensors)
    assert out.data.size == 1
    out.backward()
    for t in tensors:
        if not t.requires_grad:
            assert t.grad is None
            continue
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(fn(*tensors).data)
            flat[i] = orig - h
            down = float(fn(*tensors).data)
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * h)
        scale = np.maximum(np.abs(grad), np.abs(num))
        err = np.abs(grad - num)
        assert np.all(err <= rtol * np.maximum(scale, 1.0)), (
            f"max abs err {err.max():.3e} vs grads {grad.reshape(-1)[:4]}"
        )


def _shapes(rng, count, ndim_max=3):
    out = []
    for _ in range(count):
        ndim = int(rng.integers(1, ndim_max + 1))
        out.append(tuple(int(rng.integers(2, 5)) for _ in range(ndim)))
    return out


class TestElementwiseGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_add_mul_sub_div(self, seed):
        rng = np.random.default_rng(seed)
        for shape in _shapes(rng, 2):
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape) + 3.0  # away from zero for division
            finite_diff_check(lambda x, y: ((x * y + x - y) / y).sum(), [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_broadcasting(self, seed):
        rng = np.random.default_rng(10 + seed)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        c = rng.standard_normal((3, 1))
        finite_diff_check(lambda x, y, z: (x * y + z).sum(), [a, b, c])

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_ops(self, seed):
        rng = np.random.default_rng(20 + seed)
        shape = _shapes(rng, 1)[0]
        a = rng.standard_normal(shape)
        a = np.where(np.abs(a) < 0.2, a + 0.5, a)  # keep clear of kinks at zero
        pos = np.abs(a) + 0.5
        finite_diff_check(lambda x: x.exp().sum(), [a])
        finite_diff_check(lambda x: x.log().sum(), [pos])
        finite_diff_check(lambda x: x.sqrt().sum(), [pos])
        finite_diff_check(lambda x: x.pow(3.0).sum(), [a])
        finite_diff_check(lambda x: x.abs().sum(), [a])
        finite_diff_check(lambda x: x.relu().sum(), [a])

    @pytest.mark.parametrize("seed", range(3))
    def test_reductions(self, seed):
        rng = np.random.default_rng(30 + seed)
        a = rng.standard_normal((3, 4, 2))
        finite_diff_check(lambda x: x.sum(), [a])
        finite_diff_check(lambda x: x.mean(axis=1).sum(), [a])
        finite_diff_check(lambda x: x.sum(axis=(0, 2), keepdims=True).mean(), [a])

    @pytest.mark.parametrize("seed", range(3))
    def test_matmul(self, seed):
        rng = np.random.default_rng(40 + seed)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        finite_diff_check(lambda x, y: (x @ y).sum(), [a, b])
        # batched
        c = rng.standard_normal((2, 3, 4))
        d = rng.standard_normal((2, 4, 2))
        finite_diff_check(lambda x, y: (x @ y).mean(), [c, d])

    @pytest.mark.parametrize("seed", range(3))
    def test_shape_ops(self, seed):
        rng = np.random.default_rng(50 + seed)
        a = rng.standard_normal((2, 3, 4))
        finite_diff_check(lambda x: x.reshape(6, 4).sum(axis=0).pow(2.0).sum(), [a])
        finite_diff_check(lambda x: x.transpose(2, 0, 1).mean(axis=0).sum(), [a])
        finite_diff_check(lambda x: x[1].sum(), [a])
        b = rng.standard_normal((3, 2))
        finite_diff_check(lambda x, y: concat([x.reshape(2, 12), y.reshape(2, 3)], axis=1).pow(2.0).sum(), [a, b])

    @pytest.mark.parametrize("requires", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("shapes", [((4, 3), (3, 5)), ((2, 3, 4), (2, 4, 2)),
                                        ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 2))])
    def test_matmul_constant_operands(self, requires, shapes):
        rng = np.random.default_rng(70)
        a, b = (rng.standard_normal(s) for s in shapes)
        finite_diff_check(lambda x, y: (x @ y).pow(2.0).sum(), [a, b], requires_grad=list(requires))

    @pytest.mark.parametrize("requires", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (1, 4)),
                                        ((), (2, 3))])
    def test_mul_constant_operands(self, requires, shapes):
        rng = np.random.default_rng(71)
        a, b = (rng.standard_normal(s) for s in shapes)
        finite_diff_check(lambda x, y: (x * y).pow(2.0).sum(), [a, b], requires_grad=list(requires))

    @pytest.mark.parametrize(
        "idx", [1, -1, np.int64(2), slice(1, 3), slice(None, None, 2), (1, slice(0, 2)), (slice(1, None), 0)]
    )
    def test_getitem_basic_index(self, idx):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((4, 3))
        finite_diff_check(lambda x: x[idx].pow(2.0).sum(), [a])

    def test_getitem_repeated_fancy_index_sums(self):
        t = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        t[[0, 0, 2]].sum().backward()
        assert np.array_equal(t.grad, [2.0, 0.0, 1.0])
        rng = np.random.default_rng(73)
        finite_diff_check(lambda x: x[[0, 0, 2]].pow(2.0).sum(), [rng.standard_normal(3)])
        finite_diff_check(lambda x: x[[1, 1], 0:2].pow(2.0).sum(), [rng.standard_normal((3, 4))])

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_gradient_arrays_are_never_modified(self, seed):
        # __add__, reshape and transpose hand one gradient array (or views of
        # it) to several tensors; a later contribution must not change it
        rng = np.random.default_rng(80 + seed)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        finite_diff_check(lambda x: (x + x).pow(2.0).sum(), [a])
        finite_diff_check(lambda x, y: (x + y).pow(2.0).sum(), [a, b])
        finite_diff_check(lambda x, y: ((x + y) * x).sum(), [a, b])
        finite_diff_check(lambda x, y: (x.exp() + (x + y)).pow(2.0).sum(), [a, b])
        finite_diff_check(lambda x: (x.reshape(4, 3) * x.transpose(1, 0) + x.transpose(1, 0)).pow(2.0).sum(), [a])
        finite_diff_check(lambda x: (x.reshape(12) + x.reshape(2, 6).reshape(12) * 3.0).pow(2.0).sum(), [a])

    def test_second_backward_on_fresh_graph_matches(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))

        def grads():
            x, y = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            s = x @ y
            ((s + s) * s.exp() + x.sum(axis=1, keepdims=True)).mean().backward()
            return x.grad, y.grad

        first, second = grads(), grads()
        for g1, g2 in zip(first, second):
            assert g1.tobytes() == g2.tobytes()

    def test_backward_copies_the_root_gradient(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        y = x + Tensor(np.ones(3))
        root = np.array([1.0, 2.0, 3.0])
        y.backward(root)
        seen = [x.grad.copy(), y.grad.copy()]
        root[:] = 99.0
        assert np.array_equal(x.grad, seen[0]) and np.array_equal(y.grad, seen[1])

    @pytest.mark.parametrize("seed", range(3))
    def test_max_without_ties(self, seed):
        rng = np.random.default_rng(60 + seed)
        a = rng.standard_normal((4, 5)) * 10.0  # ties essentially impossible
        finite_diff_check(lambda x: x.max(axis=1).sum(), [a])
        finite_diff_check(lambda x: x.max(axis=0, keepdims=True).sum(), [a])

    def test_max_splits_ties_evenly(self):
        t = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        assert np.allclose(t.grad, [[0.5, 0.5, 0.0]])

    def test_fan_out_accumulates(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = t * t + t  # dy/dt = 2t + 1 = 7
        y.sum().backward()
        assert np.allclose(t.grad, [7.0])

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(DimensionMismatch):
            (t * 2).backward()

    def test_deep_chain_has_no_recursion_limit(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        y = t
        for _ in range(5000):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(t.grad, [1.0])

    def test_backward_leaves_no_reference_cycles(self, rng):
        # graphs must be freed by reference counting alone, not by the cyclic GC
        gc.collect()
        gc.disable()
        try:
            f = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
            scale = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
            shift = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
            feats = adain(f, scale, shift).mean(axis=1)
            loss = (softmax_cross_entropy(feats, np.eye(3)[[0, 2]])
                    + sigmoid_bce(feats, (feats.data > 0).astype(float)))
            loss.backward()
            del feats, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGraphRelease:
    def _graph(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        h = (x @ w).relu()
        root = (h * h).sum()
        return x, w, h, root

    def test_backward_releases_interior_nodes(self, rng):
        x, w, h, root = self._graph(rng)
        root.backward()
        assert x.grad is not None and w.grad is not None
        assert root.grad is not None and h.grad is None
        for t in (h, root):
            assert not t._children and t._backward is None

    def test_second_backward_raises(self, rng):
        _, _, h, root = self._graph(rng)
        root.backward()
        with pytest.raises(ValidationError, match="released"):
            root.backward()
        with pytest.raises(ValidationError, match="released"):  # a new graph over a released node
            (h + 1.0).sum().backward()

    def test_no_grad_records_no_graph(self, rng):
        x, w, _, _ = self._graph(rng)
        with no_grad():
            out = (x @ w).relu().sum()
        assert not out.requires_grad and out._children == () and out._backward is None
        assert (x @ w).requires_grad  # recording resumes after the block

    def test_parameter_made_under_no_grad_is_a_parameter(self, rng):
        with no_grad():
            p = Tensor(rng.standard_normal(3), requires_grad=True)
        (p * p).sum().backward()
        assert p.requires_grad and np.array_equal(p.grad, 2.0 * p.data)

    def test_no_grad_nests_and_restores_recording_after_an_error(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(KeyError):
            with no_grad():
                with no_grad():
                    pass
                assert not (x * 2.0).requires_grad
                raise KeyError
        assert (x * 2.0).requires_grad

    def test_no_grad_holds_for_its_own_thread_only(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        entered, done, seen = threading.Event(), threading.Event(), []

        def other():
            entered.wait(timeout=10)
            seen.append((x * 2.0).requires_grad)
            done.set()

        worker = threading.Thread(target=other)
        worker.start()
        with no_grad():
            entered.set()
            assert done.wait(timeout=10)
        worker.join(timeout=10)
        assert not worker.is_alive() and seen == [True]


class TestLossGradients:
    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_mae(self, seed):
        rng = np.random.default_rng(70 + seed)
        target = rng.integers(0, 4, size=(3, 6)).astype(float)
        pred = target + rng.standard_normal((3, 6)) * 0.9 + 0.05  # off the kink
        finite_diff_check(lambda x: weighted_mae_loss(x, target), [pred])

    def test_weighted_mae_value(self):
        pred = Tensor(np.array([[1.0, 2.0]]))
        target = np.array([[0.0, 4.0]])
        # edge 0 absent (weight 1, err 1), edge 1 present (weight 2.5, err 2)
        expected = (1.0 * 1.0 + 2.5 * 2.0) / 2.0
        assert float(weighted_mae_loss(pred, target).data) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_softmax_cross_entropy(self, seed):
        rng = np.random.default_rng(80 + seed)
        logits = rng.standard_normal((5, 4)) * 3.0
        labels = np.eye(4)[rng.integers(0, 4, size=5)]
        finite_diff_check(lambda x: softmax_cross_entropy(x, labels), [logits])
        # manual value
        t = Tensor(logits)
        probs = softmax(logits)
        expected = -np.mean(np.log(probs[labels.astype(bool)]))
        assert float(softmax_cross_entropy(t, labels).data) == pytest.approx(expected, rel=1e-10)

    def test_cross_entropy_stability(self):
        logits = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        val = float(softmax_cross_entropy(logits, labels).data)
        assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_sigmoid_bce(self, seed):
        rng = np.random.default_rng(90 + seed)
        logits = rng.standard_normal((4, 5)) * 2.0
        targets = (rng.random((4, 5)) < 0.5).astype(float)
        finite_diff_check(lambda x: sigmoid_bce(x, targets), [logits])
        t = Tensor(logits)
        p = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p))
        assert float(sigmoid_bce(t, targets).data) == pytest.approx(expected, rel=1e-10)

    def test_bce_stability(self):
        logits = Tensor(np.array([[500.0, -500.0]]))
        targets = np.array([[1.0, 0.0]])
        assert float(sigmoid_bce(logits, targets).data) == pytest.approx(0.0, abs=1e-9)

    def test_bce_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            sigmoid_bce(Tensor(np.zeros((1, 2))), np.array([[0.5, 0.0]]))


class TestGradReversal:
    def test_forward_identity_bit_exact(self, rng):
        x = Tensor(rng.standard_normal((4, 7)), requires_grad=True)
        out = grad_reversal(x, lam=0.37)
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    def test_backward_negates_and_scales(self, lam, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        upstream = rng.standard_normal((3, 4))
        out = grad_reversal(x, lam)
        out.backward(upstream)
        assert np.allclose(x.grad, -lam * upstream, atol=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            grad_reversal(Tensor(np.zeros(2)), lam=-0.1)

    def test_adversarial_direction_two_sites(self):
        # encoder (linear map) + classifier on a separable 2-site toy problem:
        # a classifier-only Adam step lowers CE, an encoder-only step under
        # full reversal (lam=1) raises it.
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.3, size=(20, 4)), rng.normal(2, 0.3, size=(20, 4))])
        labels = np.eye(2)[np.array([0] * 20 + [1] * 20)]
        w_enc = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
        w_cls = Tensor(rng.standard_normal((3, 2)) * 0.5, requires_grad=True)

        def ce(lam):
            emb = Tensor(x) @ w_enc
            return softmax_cross_entropy(grad_reversal(emb, lam) @ w_cls, labels)

        # classifier step (no reversal for its own parameters)
        before = float(ce(1.0).data)
        loss = ce(1.0)
        zero_grads([w_enc, w_cls])
        loss.backward()
        cls_opt = AdamState([w_cls])
        enc_grad = w_enc.grad.copy()
        adam_step(cls_opt, lr=1e-2)
        after_cls = float(ce(1.0).data)
        assert after_cls < before

        # encoder step with the reversed gradient increases classifier loss
        w_cls.data[...] = w_cls.data  # classifier frozen from here on
        loss = ce(1.0)
        zero_grads([w_enc, w_cls])
        loss.backward()
        w_enc.data -= 1e-2 * np.sign(w_enc.grad)  # plain signed step, reversed grad
        after_enc = float(ce(1.0).data)
        assert after_enc > after_cls


class TestAdaIn:
    def test_output_statistics(self, rng):
        b, n, k = 3, 10, 5
        f = Tensor(rng.standard_normal((b, n, k)) * 4.0 + 1.0)
        scale = Tensor(rng.standard_normal((b, k)))
        shift = Tensor(rng.standard_normal((b, k)))
        out = adain(f, scale, shift, eps=1e-16).data
        assert np.allclose(out.mean(axis=1), shift.data, atol=1e-9)
        assert np.allclose(out.std(axis=1), np.abs(scale.data), atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(200 + seed)
        f = rng.standard_normal((2, 6, 3))
        scale = rng.standard_normal((2, 3))
        shift = rng.standard_normal((2, 3))
        finite_diff_check(lambda a, b, c: adain(a, b, c).pow(2.0).mean(), [f, scale, shift])

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionMismatch):
            adain(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5))))
        with pytest.raises(ValueError):
            adain(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), eps=0.0)


def _rescaled_laplacian(rng, n):
    m = random_connectome(rng, n, density=0.7)
    return normalized_laplacian(m) - np.eye(n)


class TestChebConv:
    @pytest.mark.parametrize("seed", range(6))
    def test_spectral_equivalence(self, seed):
        # recursion agrees with the explicit eigenbasis evaluation
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        order = int(rng.integers(0, 4))
        d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lap = _rescaled_laplacian(rng, n)
        x = rng.standard_normal((2, n, d_in))
        theta = rng.standard_normal((order + 1, d_in, d_out))
        got = chebconv(Tensor(x), lap, Tensor(theta)).data

        lam, u = np.linalg.eigh(lap)
        t_prev, t_curr = np.ones_like(lam), lam.copy()
        expected = np.zeros((2, n, d_out))
        for m in range(order + 1):
            if m == 0:
                t_m = np.ones_like(lam)
            elif m == 1:
                t_m = lam
            else:
                t_m = 2.0 * lam * t_curr - t_prev
                t_prev, t_curr = t_curr, t_m
            filt = u @ np.diag(t_m) @ u.T
            expected += np.einsum("ij,bjk,kl->bil", filt, x, theta[m])
        assert np.allclose(got, expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(300 + seed)
        lap = _rescaled_laplacian(rng, 5)
        x = rng.standard_normal((2, 5, 3))
        theta = rng.standard_normal((3, 3, 2))
        finite_diff_check(
            lambda a, b: chebconv(a, lap, b).pow(2.0).mean(), [x, theta]
        )

    def test_spectrum_validation(self, rng):
        bad = np.diag([1.5, -0.5, 0.0])
        with pytest.raises(SpectrumOutOfRange):
            check_rescaled_laplacian(bad)
        with pytest.raises(SpectrumOutOfRange):
            chebconv(Tensor(np.zeros((1, 3, 2))), bad, Tensor(np.zeros((2, 2, 2))))

    def test_constant_laplacian_gets_no_gradient_product(self, rng, monkeypatch):
        b, n, d_in, d_out, order = 2, 5, 3, 2, 2
        lap = np.stack([_rescaled_laplacian(rng, n) for _ in range(b)])
        products = []
        real_matmul = np.matmul

        def counting_matmul(x, y, *args, **kwargs):
            out = real_matmul(x, y, *args, **kwargs)
            products.append(out.shape)
            return out

        monkeypatch.setattr(np, "matmul", counting_matmul)
        for x_requires, backward_products in ((True, 2 * (order + 1) + order), (False, order + 1)):
            x = Tensor(rng.standard_normal((b, n, d_in)), requires_grad=x_requires)
            theta = Tensor(rng.standard_normal((order + 1, d_in, d_out)), requires_grad=True)
            products.clear()
            z = chebconv(x, lap, theta)
            assert len(products) == (order + 1) + order
            products.clear()
            z.pow(2.0).sum().backward()
            # a (B, N, N) product in backward could only be dL/dL~, which is discarded
            assert (b, n, n) not in products
            assert len(products) == backward_products

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            chebconv(Tensor(np.zeros((1, 3, 2))), np.zeros((3, 3)), Tensor(np.zeros((2, 4, 2))))


class TestAdam:
    def test_first_step_is_lr_times_sign(self, rng):
        p = Tensor(rng.standard_normal(6), requires_grad=True)
        before = p.data.copy()
        grad = rng.standard_normal(6)
        p.grad = grad.copy()
        state = AdamState([p])
        adam_step(state, lr=0.1)
        # bias correction makes the first update exactly lr * g / (|g| + eps)
        expected = before - 0.1 * grad / (np.abs(grad) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        state = AdamState([p])
        for _ in range(800):
            loss = (p * p).sum()
            zero_grads([p])
            loss.backward()
            adam_step(state, lr=0.05)
        assert np.all(np.abs(p.data) < 1e-3)

    def test_missing_gradient_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = AdamState([p])
        adam_step(state, lr=0.1)
        assert np.array_equal(p.data, np.ones(3))

    def test_gradient_shape_checked(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.ones((3, 1))
        with pytest.raises(DimensionMismatch):
            adam_step(AdamState([p]), lr=0.1)

    @pytest.mark.parametrize("lr", [1e-3, 0.1])
    def test_bytes_match_one_expression_oracle(self, lr):
        rng = np.random.default_rng(90)
        # (2 * block + 123,) spans three blocks, the last one partial; the
        # transposed parameter is not C-contiguous
        shapes = [(), (5,), (3, 4), (2, 3, 4), (2 * _ADAM_BLOCK + 123,)]
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        params.append(Tensor(rng.standard_normal((4, 6)).T, requires_grad=True))
        idle = Tensor(rng.standard_normal(4), requires_grad=True)  # its .grad stays None
        idle_before = idle.data.copy()
        state = AdamState(params + [idle])
        ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
        specials = np.array([0.0, -0.0, 1e-300, 1e300, -1e-300, -1e300])
        for step in range(1, 25):
            for i, p in enumerate(params):
                g = np.array(rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-3, 3))
                k = (step + i) % len(specials)
                g.reshape(-1)[:2] = specials[[k, (k + 1) % len(specials)]][: min(g.size, 2)]
                p.grad = g
                with np.errstate(over="ignore"):  # 1e300**2 overflows v to inf in both
                    ref[i] = bf_adam_step(ref[i][0], g, ref[i][1], ref[i][2], step=step, lr=lr)
            with np.errstate(over="ignore"):
                adam_step(state, lr=lr)
            for p, m, v, (rp, rm, rv) in zip(params, state.m, state.v, ref):
                assert p.data.tobytes() == rp.tobytes()
                assert m.tobytes() == rm.tobytes()
                assert v.tobytes() == rv.tobytes()
        assert idle.data.tobytes() == idle_before.tobytes()
        assert not state.m[-1].any() and not state.v[-1].any()
