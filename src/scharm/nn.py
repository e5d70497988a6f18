"""Layers built on the autodiff engine: dense, normalization, ChebConv, AdaIN.

No layer takes a mode argument: a forward pass that records a graph is a
training pass, one under `autodiff.no_grad()` is inference.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, adain, chebconv
from .errors import DimensionMismatch, ValidationError


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


class Module:
    """Base layer. Parameters and buffers are found by walking the attributes.

    A Tensor or ndarray attribute is a leaf named after the attribute; a child
    Module, or a list of them, is walked in turn with its attribute name (and
    list index) added to the dotted prefix. Trainable Tensors are parameters,
    ndarrays are buffers.
    """

    def _leaves(self, prefix: str):
        for attr, value in vars(self).items():
            items = enumerate(value) if isinstance(value, list) else [(None, value)]
            for i, item in items:
                name = f"{prefix}{attr}" if i is None else f"{prefix}{attr}.{i}"
                if isinstance(item, Module):
                    yield from item._leaves(f"{name}.")
                elif isinstance(item, (Tensor, np.ndarray)):
                    yield name, item

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {name: v for name, v in self._leaves(prefix) if isinstance(v, Tensor) and v.requires_grad}

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def named_buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state arrays, such as BatchNorm running statistics."""
        return {name: v for name, v in self._leaves("") if isinstance(v, np.ndarray)}


class _Layer(Module):
    """Base of Dense and ChebConv: the subclass's affine map, then optional norm, then optional relu."""

    def _init_tail(self, features: int, norm: str, act: str, norms: tuple[str, ...]) -> None:
        if norm != "none" and norm not in norms:
            raise ValidationError(f"unknown norm {norm!r} for {type(self).__name__}")
        if act not in ("relu", "none"):
            raise ValidationError(f"unknown act {act!r}")
        self.norm = None if norm == "none" else {"batch": BatchNorm, "layer": LayerNorm}[norm](features)
        self.act = act

    def _tail(self, out: Tensor) -> Tensor:
        if self.norm is not None:
            out = self.norm(out)
        if self.act == "relu":
            out = out.relu()
        return out


class Dense(_Layer):
    """Affine map on the last axis, optional batch or layer normalization then activation."""

    def __init__(self, rng, in_features: int, out_features: int, norm: str = "none", act: str = "none"):
        self.w = Tensor(glorot(rng, in_features, out_features), requires_grad=True)
        self.b = Tensor(np.zeros(out_features), requires_grad=True)
        self._init_tail(out_features, norm, act, norms=("batch", "layer"))

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.w.data.shape[0]:
            raise DimensionMismatch(f"input width {x.data.shape[-1]} != {self.w.data.shape[0]}")
        return self._tail(x @ self.w + self.b)


class BatchNorm(Module):
    """Per-feature batch normalization. An input that requires a gradient (a
    training pass) is normalized with its batch statistics, which move the
    running statistics; any other input (under `no_grad()`) with the running ones."""

    def __init__(self, features: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.data.ndim - 1))
        if x.requires_grad:
            mu = x.mean(axis=axes, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=axes, keepdims=True)
            self.running_mean += self.momentum * (mu.data.reshape(-1) - self.running_mean)
            self.running_var += self.momentum * (var.data.reshape(-1) - self.running_var)
            norm = centered * (var + self.eps).pow(-0.5)
        else:
            norm = (x - Tensor(self.running_mean)) * Tensor(1.0 / np.sqrt(self.running_var + self.eps))
        return self.gamma * norm + self.beta


class LayerNorm(Module):
    """Normalize each sample over the feature (last) axis."""

    def __init__(self, features: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return self.gamma * (centered * (var + self.eps).pow(-0.5)) + self.beta


class UnitNorm(Module):
    """Scale each sample to unit root-mean-square over the feature (last) axis.

    Parameter-free; bounds the embedding to a sphere, which keeps the
    adversarial classifier game stable (logits cannot grow without bound).
    """

    def __init__(self, eps: float = 1e-8):
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        sq = (x * x).mean(axis=-1, keepdims=True)
        return x * (sq + self.eps).pow(-0.5)


class ChebConv(_Layer):
    """Chebyshev graph convolution layer with bias, optional layer normalization then activation."""

    def __init__(self, rng, in_features: int, out_features: int, order: int,
                 norm: str = "none", act: str = "none"):
        self.theta = Tensor(
            glorot(rng, in_features * (order + 1), out_features, shape=(order + 1, in_features, out_features)),
            requires_grad=True,
        )
        self.b = Tensor(np.zeros(out_features), requires_grad=True)
        self._init_tail(out_features, norm, act, norms=("layer",))

    def __call__(self, x: Tensor, l_rescaled) -> Tensor:
        return self._tail(chebconv(x, l_rescaled, self.theta, validate_spectrum=False) + self.b)


class MLP(Module):
    """Stack of Dense layers; hidden layers use relu, the last is linear."""

    def __init__(self, rng, widths: list[int], norm: str = "none"):
        self.layers = []
        for i in range(len(widths) - 1):
            last = i == len(widths) - 2
            self.layers.append(
                Dense(rng, widths[i], widths[i + 1], norm="none" if last else norm,
                      act="none" if last else "relu")
            )

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class AdaInConditioner(Module):
    """Maps the site latent to per-feature scale and shift for one AdaIN site.

    Scale weights start at zero so conditioning begins as identity-scale 1
    plus shift 0, keeping early training stable.
    """

    def __init__(self, rng, latent_dim: int, features: int):
        self.scale_net = Dense(rng, latent_dim, features)
        self.shift_net = Dense(rng, latent_dim, features)
        self.scale_net.w.data[:] = 0.0
        self.scale_net.b.data[:] = 1.0
        self.shift_net.w.data[:] = 0.0

    def __call__(self, f_e: Tensor, f_m: Tensor) -> Tensor:
        scale = self.scale_net(f_m)
        shift = self.shift_net(f_m)
        return adain(f_e, scale, shift)
