"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` is a node in a computation graph built eagerly by the op
functions below. :func:`backward` walks the graph once in reverse topological
order and accumulates gradients. Gradients of :class:`Parameter` leaves are
accumulated into the parameter's persistent ``grad`` buffer; zeroing between
steps is the caller's responsibility.

Everything is float64 and deterministic given the seed of any random
generator passed to :func:`dropout`.

Buffer lifetime. Without a :class:`Workspace` every op allocates its value
and its VJP's outputs afresh, so nothing one call returns shares memory with
another call. The training loop passes one workspace (``ws``) to the ops of
every batch: :func:`embedding_lookup`, :func:`dropout`,
:func:`softmax_cross_entropy` (as the output layer) and
:func:`typovec.models.lstm_sequence` then take their (rows, .) arrays from it
in a fixed order, so each batch gets the buffers the previous batch used, and
:func:`slice_` accumulates into one gradient buffer per sliced parent. A
workspace buffer is valid until the next batch starts: it backs graph values
and gradients only, never a parameter, a parameter gradient or the loss
value, so nothing that outlives the batch aliases it.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operands with incompatible shapes, reported with the op name."""


class Workspace:
    """Work buffers that the batches of one training run share.

    :meth:`take` hands out the buffers in the order it is called: the k-th
    call after :meth:`reset` returns buffer k, grown to the largest size that
    call has asked for, and viewed as the requested shape. Every batch makes
    the same calls in the same order, so each buffer keeps one role and grows
    to the largest batch, not to the sum over batches. A buffer's contents
    are undefined when it is taken.

    A buffer that a larger request outgrows is dropped before its successor
    is allocated, so once nothing else holds it (the training loop keeps no
    array of the previous batch) its memory can serve the new one; the two
    never coexist, and the workspace never holds more than its final size.
    """

    def __init__(self):
        self._buffers: list[np.ndarray] = []
        self._next = 0

    def reset(self) -> None:
        """Starts a batch: the next :meth:`take` returns the first buffer again."""
        self._next = 0

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        if self._next == len(self._buffers):
            self._buffers.append(np.empty(0, dtype))
        buf = self._buffers[self._next]
        if buf.dtype != dtype or buf.size < size:
            self._buffers[self._next] = buf = None  # the outgrown buffer goes before its successor comes
            buf = self._buffers[self._next] = np.empty(size, dtype)
        self._next += 1
        return buf[:size].reshape(shape)


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


def slice_(a: Tensor, index, grad: np.ndarray | None = None) -> Tensor:
    """Basic (non-overlapping) indexing, e.g. column blocks of a matrix.

    The VJP scatters the gradient into a zero-filled buffer the size of
    ``a``, fresh for each call. Given ``grad``, a buffer shaped like ``a``
    that every slice of ``a`` shares, it scatters into that buffer instead:
    the first slice to run zeroes it and returns it as ``a``'s gradient, and
    later ones add into it in place and return it again, which tells
    :func:`backward` that the sum is already made.
    """
    value = a.value[index]

    def vjp(g):
        if grad is None:
            buf = np.zeros_like(a.value)
        else:
            buf = grad
            if a.grad is not grad:
                buf[...] = 0.0
        buf[index] += g
        return (buf,)

    return Tensor(value, (a,), vjp)


def embedding_lookup(table: Tensor, ids, ws: Workspace | None = None) -> Tensor:
    """The rows ``ids`` of ``table``; with ``ws``, into its next buffer."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.value.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table {table.value.shape}")
    rows, width = table.value.shape
    take = np.empty if ws is None else ws.take
    # mode="clip" writes straight into ``out`` ("raise" buffers); the ids are checked above
    value = np.take(table.value, ids, axis=0, out=take((*ids.shape, width)), mode="clip")

    def vjp(g):
        # one bincount over the flat (id * E + column) cells; each cell sums
        # its rows in row order from 0.0, bit for bit as np.add.at does
        flat = np.add(ids.reshape(-1, 1) * width, np.arange(width), out=take((ids.size, width), np.int64))
        grad = np.bincount(flat.ravel(), weights=np.ravel(g), minlength=rows * width)
        return (grad.reshape(rows, width),)

    return Tensor(value, (table,), vjp)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return Tensor(value, (a,), vjp)


def softmax_cross_entropy(logits: Tensor, targets, mask=None, proj=None,
                          ws: Workspace | None = None) -> Tensor:
    """Summed cross-entropy of ``targets`` under softmax of ``logits``.

    ``logits`` is (V,) with an integer target, or (B, V) with B targets.
    ``mask`` (optional, (B,)) zeroes out padded rows. Returns a scalar node
    holding the masked sum of per-row losses.

    With ``proj`` = (w, b), the op is the output layer: ``logits`` holds the
    (B, H) layer input x, the logits are x @ w + b, and the VJP returns the
    gradients of x, w and b. The logits then never leave the op.

    The op keeps one (B, V) buffer: the shifted logits, then their exp,
    which its VJP turns into the gradient in place. It is a copy of the
    caller's logits, or, as the output layer, the buffer that x @ w + b is
    computed into (taken from ``ws`` when given, as is the (B, H) gradient of
    x). The VJP therefore consumes the buffer and may run only once, as
    :func:`backward` runs it.
    """
    if proj is None:
        squeeze = logits.value.ndim == 1
        z = logits.value[None, :] if squeeze else logits.value
    else:
        squeeze, x, (w, b) = False, logits, proj
        if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0] \
                or b.value.shape != w.value.shape[1:]:
            raise ShapeError(f"softmax_cross_entropy: x {x.value.shape}, w {w.value.shape} and "
                             f"b {b.value.shape} are not (n,k), (k,m) and (m,)")
        take = np.empty if ws is None else ws.take
        z = np.matmul(x.value, w.value, out=take((len(x.value), w.value.shape[1])))
        z += b.value
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

    # one (rows, V) buffer: the shifted logits, then their exp, then the gradient;
    # only the output layer's own logits are shifted in place
    buf = np.subtract(z, z.max(axis=1, keepdims=True), out=None if proj is None else z)
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
        if proj is not None:
            return np.matmul(dz, w.value.T, out=take(x.value.shape)), x.value.T @ dz, dz.sum(axis=0)
        return (dz[0] if squeeze else dz,)

    return Tensor(value, (logits,) if proj is None else (x, w, b), vjp)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, ws: Workspace | None = None,
            out: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate). rate 0 is the identity.

    One array holds the uniform draw, then the mask; the VJP multiplies the
    gradient into it, so it may run only once. With ``ws``, that array and
    the output are two of its buffers. Given ``out``, the output is written
    there instead: ``out`` may be ``a.value`` itself when nothing else reads
    that value, since the VJP needs only the mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = 1.0 - rate
    take = np.empty if ws is None else ws.take
    mask = rng.random(a.value.shape, out=take(a.value.shape))
    np.less(mask, keep, out=mask)  # 1.0 or 0.0: the bool that (draw < keep) / keep would cast
    mask /= keep
    value = np.multiply(a.value, mask, out=take(a.value.shape) if out is None else out)
    return Tensor(value, (a,), lambda g: (np.multiply(g, mask, out=mask),))


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
    """Accumulate d(loss)/d(node) into every reachable node and parameter.

    A VJP that has added its gradient into its parent's grad in place (a
    slice with a shared gradient buffer) returns that grad array itself, and
    nothing more is added.
    """
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
            if parent.grad is None:
                parent.grad = g
            elif parent.grad is not g:
                parent.grad = parent.grad + g
