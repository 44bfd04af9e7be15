"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` is a node in a computation graph built eagerly by the op
functions below. :func:`backward` walks the graph once in reverse topological
order and accumulates gradients. Gradients of :class:`Parameter` leaves are
accumulated into the parameter's persistent ``grad`` buffer; zeroing between
steps is the caller's responsibility.

Everything is float64 and deterministic given the seed of any random
generator passed to :func:`dropout`.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes, reported with the op name."""


class Tensor:
    """A value in the graph; ``parents`` and ``vjp`` drive backpropagation."""

    __slots__ = ("value", "grad", "parents", "vjp", "param")

    def __init__(self, value, parents=(), vjp=None, param=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.vjp = vjp
        self.param: Parameter | None = param

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


class Parameter:
    """Named trainable tensor with a persistent gradient accumulator."""

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def node(self) -> Tensor:
        """Fresh graph leaf sharing this parameter's value buffer."""
        return Tensor(self.value, param=self)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def constant(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.value.shape, b.value.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Tensor(a.value + b.value, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)

    def vjp(g):
        return _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)

    return Tensor(a.value * b.value, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return Tensor(a.value * c, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: shapes {a.value.shape} and {b.value.shape} are not (n,k)x(k,m)")

    def vjp(g):
        return g @ b.value.T, a.value.T @ g

    return Tensor(a.value @ b.value, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, with the bias added in place."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0] \
            or b.value.shape != w.value.shape[1:]:
        raise ShapeError(f"linear: shapes {x.value.shape}, {w.value.shape} and {b.value.shape} "
                         "are not (n,k), (k,m) and (m,)")
    value = x.value @ w.value
    value += b.value

    def vjp(g):
        return g @ w.value.T, x.value.T @ g, g.sum(axis=0)

    return Tensor(value, (x, w, b), vjp)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) elementwise, without overflow: e^-|x| is at most 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = _logistic(a.value)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.value)

    def vjp(g):
        return (g * out,)

    return Tensor(out, (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: no inputs")
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        parts = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            parts.append(g[tuple(slicer)])
        return tuple(parts)

    try:
        value = np.concatenate([t.value for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    return Tensor(value, tuple(tensors), vjp)


def slice_(a: Tensor, index) -> Tensor:
    """Basic (non-overlapping) indexing, e.g. column blocks of a matrix."""
    value = a.value[index]

    def vjp(g):
        buf = np.zeros_like(a.value)
        buf[index] += g
        return (buf,)

    return Tensor(value, (a,), vjp)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.value.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table {table.value.shape}")

    def vjp(g):
        # one bincount over the flat (id * E + column) cells; each cell sums
        # its rows in row order from 0.0, bit for bit as np.add.at does
        rows, width = table.value.shape
        cells = (ids.reshape(-1, 1) * width + np.arange(width)).ravel()
        grad = np.bincount(cells, weights=np.ravel(g), minlength=rows * width)
        return (grad.reshape(rows, width),)

    return Tensor(table.value[ids], (table,), vjp)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return Tensor(value, (a,), vjp)


def softmax_cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Summed cross-entropy of ``targets`` under softmax of ``logits``.

    ``logits`` is (V,) with an integer target, or (B, V) with B targets.
    ``mask`` (optional, (B,)) zeroes out padded rows. Returns a scalar node
    holding the masked sum of per-row losses.

    The op keeps one (B, V) buffer: the exponentiated logits, which its VJP
    turns into the gradient in place. The VJP therefore consumes the buffer
    and may run only once, as :func:`backward` runs it.
    """
    squeeze = logits.value.ndim == 1
    z = logits.value[None, :] if squeeze else logits.value
    if z.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 1-D or 2-D, got {logits.value.shape}")
    t = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if t.shape != (z.shape[0],):
        raise ShapeError(f"softmax_cross_entropy: {z.shape[0]} rows but targets shape {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= z.shape[1]):
        raise ShapeError(f"softmax_cross_entropy: target id out of range for {z.shape[1]} classes")
    m = np.ones(z.shape[0]) if mask is None else np.asarray(mask, dtype=np.float64)
    if m.shape != (z.shape[0],):
        raise ShapeError(f"softmax_cross_entropy: mask shape {m.shape} != ({z.shape[0]},)")

    # one (rows, V) buffer: the shifted logits, then their exp, then the gradient
    buf = z - z.max(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    # only the target log-probabilities are formed: logits may be (T*B, V)
    target = buf[rows, t]
    np.exp(buf, out=buf)
    sez = buf.sum(axis=1, keepdims=True)
    value = -((target - np.log(sez[:, 0])) * m).sum()

    def vjp(g):
        dz = np.divide(buf, sez, out=buf)
        dz[rows, t] -= 1.0
        dz *= m[:, None] * float(g)
        return (dz[0] if squeeze else dz,)

    return Tensor(value, (logits,), vjp)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate). rate 0 is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.value.shape) < keep) / keep

    def vjp(g):
        return (g * mask,)

    return Tensor(a.value * mask, (a,), vjp)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS post-order; recursion would overflow on long sequences."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into every reachable node and parameter."""
    if loss.value.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.value.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node.grad is None:
            continue
        if node.param is not None:
            node.param.grad += node.grad
        if node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            # no in-place accumulation: g may be a view of a child's grad
            parent.grad = g if parent.grad is None else parent.grad + g
