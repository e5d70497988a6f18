"""Minimal reverse-mode differentiation over dense float64 arrays.

A Tensor wraps a numpy array and records the backward closure of the op that
produced it; backward() walks the graph in reverse topological order, summing
gradients at fan-out points. Only the primitives the harmonization models
need are implemented.

Gradient arrays are shared, not owned: an op may hand one array, or views of
it, to several tensors (`__add__` gives the same array to both operands), and
a tensor's first gradient is stored as it arrives. So a `.grad` array must
never be modified in place; accumulation assigns a new array instead.
`backward(grad)` copies its argument, so no `.grad` aliases a caller's array.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, SpectrumOutOfRange, ValidationError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_children", "_backward")

    def __init__(self, data, requires_grad=False, _children=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(c.requires_grad for c in _children)
        self._children = _children
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph walk ---------------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        # iterative depth-first post-order: children before parents, in child order
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._children))] if self.requires_grad else []
        while stack:
            t, children = stack[-1]
            for c in children:
                if id(c) not in seen and c.requires_grad:
                    seen.add(id(c))
                    stack.append((c, iter(c._children)))
                    break
            else:
                stack.pop()
                topo.append(t)
        for t in topo:
            t.grad = None
        self.grad = np.array(grad, dtype=np.float64)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)

    def _accumulate(self, grad):
        if not self.requires_grad:
            return
        self.grad = grad if self.grad is None else self.grad + grad

    # -- primitives ---------------------------------------------------------

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._lift(other)
        out = Tensor(self.data + other.data, _children=(self, other))

        def backward(g):
            self._accumulate(_unbroadcast(g, self.data.shape))
            other._accumulate(_unbroadcast(g, other.data.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, _children=(self,))
        out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other)
        out = Tensor(self.data * other.data, _children=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Tensor._lift(other).pow(-1.0)

    def __rtruediv__(self, other):
        return Tensor._lift(other) * self.pow(-1.0)

    def pow(self, exponent: float):
        out = Tensor(self.data**exponent, _children=(self,))
        out._backward = lambda g: self._accumulate(g * exponent * self.data ** (exponent - 1.0))
        return out

    def matmul(self, other):
        other = Tensor._lift(other)
        out = Tensor(np.matmul(self.data, other.data), _children=(self, other))

        def backward(g):
            a, b = self.data, other.data
            if a.ndim == 1 or b.ndim == 1:
                raise ShapeMismatch("matmul backward requires rank >= 2 operands")
            if self.requires_grad:
                self._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape))

        out._backward = backward
        return out

    __matmul__ = matmul

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), _children=(self,))
        out._backward = lambda g: self._accumulate(g * (self.data > 0))
        return out

    def exp(self):
        data = np.exp(self.data)  # captured instead of `out`, which would make a cycle
        out = Tensor(data, _children=(self,))
        out._backward = lambda g: self._accumulate(g * data)
        return out

    def log(self):
        out = Tensor(np.log(self.data), _children=(self,))
        out._backward = lambda g: self._accumulate(g / self.data)
        return out

    def abs(self):
        out = Tensor(np.abs(self.data), _children=(self,))
        # subgradient at zero is zero
        out._backward = lambda g: self._accumulate(g * np.sign(self.data))
        return out

    def sqrt(self):
        data = np.sqrt(self.data)
        out = Tensor(data, _children=(self,))
        out._backward = lambda g: self._accumulate(g * 0.5 / np.maximum(data, 1e-300))
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _children=(self,))

        def backward(g):
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axes)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == out_data).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)  # split ties evenly
        out = Tensor(out_data if keepdims else np.squeeze(out_data, axis=axis), _children=(self,))

        def backward(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * g)

        out._backward = backward
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), _children=(self,))
        out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    def transpose(self, *axes):
        axes = axes or None
        out = Tensor(self.data.transpose(axes), _children=(self,))
        inv = np.argsort(axes) if axes else None
        out._backward = lambda g: self._accumulate(g.transpose(inv))
        return out

    def __getitem__(self, idx):
        out = Tensor(self.data[idx], _children=(self,))
        # an int/slice index selects each element at most once, so a plain
        # scatter-add is exact; any other index may repeat and needs np.add.at
        basic = all(isinstance(i, (int, np.integer, slice)) and not isinstance(i, bool)
                    for i in (idx if isinstance(idx, tuple) else (idx,)))

        def backward(g):
            full = np.zeros_like(self.data)
            if basic:
                full[idx] += g
            else:
                np.add.at(full, idx, g)
            self._accumulate(full)

        out._backward = backward
        return out


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), _children=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    out._backward = backward
    return out


def grad_reversal(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward scales the upstream gradient by -lam."""
    if lam < 0:
        raise ValidationError("lambda must be >= 0")
    out = Tensor(x.data.copy(), _children=(x,))
    out._backward = lambda g: x._accumulate(-lam * g)
    return out


def adain(f_e: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Re-standardize features over the node axis, then scale and shift.

    f_e is (B, N, K); scale and shift are (B, K). Statistics are the per
    (sample, feature) mean and population standard deviation over nodes.
    """
    if eps <= 0:
        raise ValidationError("eps must be > 0")
    if f_e.data.ndim != 3 or scale.data.shape != f_e.data.shape[::2] or shift.data.shape != scale.data.shape:
        raise ShapeMismatch(
            f"adain shapes: f_e {f_e.data.shape}, scale {scale.data.shape}, shift {shift.data.shape}"
        )
    mu = f_e.mean(axis=1, keepdims=True)
    centered = f_e - mu
    sigma = (centered * centered).mean(axis=1, keepdims=True).sqrt()
    b, k = scale.data.shape
    return scale.reshape(b, 1, k) * (centered / (sigma + eps)) + shift.reshape(b, 1, k)


def check_rescaled_laplacian(l_rescaled: np.ndarray, tol: float = 1e-6) -> None:
    """Reject rescaled Laplacians whose spectrum leaves [-1, 1]."""
    vals = np.linalg.eigvalsh(l_rescaled)
    if np.max(np.abs(vals)) > 1.0 + tol:
        raise SpectrumOutOfRange(f"|spectrum| up to {np.max(np.abs(vals)):.6f} exceeds 1")


def chebconv(
    x: Tensor,
    l_rescaled: Tensor | np.ndarray,
    theta: Tensor,
    validate_spectrum: bool = True,
) -> Tensor:
    """Chebyshev graph convolution Z = sum_m T_m(L~) X theta_m.

    x is (B, N, d_in); l_rescaled is (N, N) or (B, N, N) with spectrum in
    [-1, 1]; theta is (M+1, d_in, d_out). The polynomial recursion is exact:
    T_0 = X, T_1 = L~ X, T_m = 2 L~ T_{m-1} - T_{m-2}.
    """
    lap = l_rescaled if isinstance(l_rescaled, Tensor) else Tensor(l_rescaled)
    if x.data.ndim != 3 or theta.data.ndim != 3 or theta.data.shape[1] != x.data.shape[2]:
        raise ShapeMismatch(f"chebconv shapes: x {x.data.shape}, theta {theta.data.shape}")
    if lap.data.shape[-1] != x.data.shape[1] or lap.data.shape[-2] != x.data.shape[1]:
        raise ShapeMismatch(f"laplacian shape {lap.data.shape} does not match {x.data.shape[1]} nodes")
    if validate_spectrum:
        check_rescaled_laplacian(lap.data)
    order = theta.data.shape[0] - 1
    t_prev, t_curr = x, None
    z = t_prev @ theta[0]
    if order >= 1:
        t_curr = lap @ x
        z = z + t_curr @ theta[1]
    for m in range(2, order + 1):
        t_next = 2.0 * (lap @ t_curr) - t_prev
        z = z + t_next @ theta[m]
        t_prev, t_curr = t_curr, t_next
    return z


def weighted_mae_loss(pred: Tensor, target: np.ndarray, edge_weight: float = 2.5) -> Tensor:
    """Mean absolute error with existing connections (target > 0) up-weighted.

    Divides by the element count, not total weight, so the scale is
    comparable across sparsity levels.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.data.shape} vs target {target.shape}")
    if edge_weight < 1:
        raise ValidationError("edge_weight must be >= 1")
    weights = np.where(target > 0, edge_weight, 1.0)
    return (Tensor(weights) * (pred - Tensor(target)).abs()).mean()


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean categorical cross-entropy from logits; log-sum-exp stabilized."""
    labels = np.asarray(labels, dtype=np.float64)
    if logits.data.shape != labels.shape or logits.data.ndim != 2:
        raise ShapeMismatch(f"logits {logits.data.shape} vs labels {labels.shape}")
    shift = logits.data.max(axis=1, keepdims=True)  # constant under differentiation
    z = logits - Tensor(shift)
    lse = z.exp().sum(axis=1, keepdims=True).log()
    return (lse - (Tensor(labels) * z).sum(axis=1, keepdims=True)).mean()


def sigmoid_bce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy from logits, stabilized as
    max(z, 0) - z*t + log(1 + exp(-|z|))."""
    targets = np.asarray(targets, dtype=np.float64)
    if logits.data.shape != targets.shape:
        raise ShapeMismatch(f"logits {logits.data.shape} vs targets {targets.shape}")
    if not np.all((targets == 0) | (targets == 1)):
        raise ValidationError("targets must be binary")
    softplus = ((-logits.abs()).exp() + 1.0).log()
    return (logits.relu() - logits * Tensor(targets) + softplus).mean()


_ADAM_BLOCK = 32768  # elements: one block of p, g, m, v and both scratch arrays is 1.5 MB, within L2


class AdamState:
    """First/second moments and step counter for a fixed parameter list."""

    def __init__(self, params: list[Tensor], beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        self.scratch = (np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK))
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0


def adam_step(state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update in place; missing gradients are zero.

    Allocation-free: each parameter is walked in blocks of `_ADAM_BLOCK`
    elements through the state's two block-sized scratch arrays, in the
    operation order of
        m = m*b1 + (1-b1)*g
        v = v*b2 + ((1-b2)*g)*g
        p = p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
    so the bytes match that expression exactly.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, m, v in zip(state.params, state.m, state.v):
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
        flat = p.data.reshape(-1)  # a copy when p.data is not C-contiguous; written back below
        g, m, v = g.reshape(-1), m.reshape(-1), v.reshape(-1)
        for lo in range(0, flat.size, _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            pb, gb, mb, vb = flat[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s, t = (a[: pb.size] for a in state.scratch)
            mb *= b1
            mb += np.multiply(1.0 - b1, gb, out=s)
            vb *= b2
            vb += np.multiply(np.multiply(1.0 - b2, gb, out=s), gb, out=s)
            np.multiply(lr, np.divide(mb, bc1, out=s), out=s)
            np.add(np.sqrt(np.divide(vb, bc2, out=t), out=t), state.eps, out=t)
            pb -= np.divide(s, t, out=s)
        if not p.data.flags.c_contiguous:
            p.data[...] = flat.reshape(p.data.shape)


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None
