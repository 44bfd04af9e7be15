"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` is a node in a computation graph built eagerly by the op
functions below. A tensor is made after its parents, so the order in which
tensors are made is a topological order: each records its place in it, and
:func:`backward` takes the nodes the loss reaches latest-made first and
accumulates gradients. Gradients of :class:`Parameter` leaves are
accumulated into the parameter's persistent ``grad`` buffer; zeroing between
steps is the caller's responsibility.

Everything is float64 and deterministic given the seed of any random
generator passed to :func:`embedding_lookup`, whose dropout is part of the
lookup.

Buffer lifetime. Without a :class:`Workspace` every op allocates its value
and its VJP's outputs afresh, so nothing one call returns shares memory with
another call. The training loop passes one workspace (``ws``) to the ops of
every batch: :func:`embedding_lookup` (the rows, then the dropout mask),
:func:`softmax_cross_entropy` (the output layer) and
:func:`typovec.models.lstm_sequence` then take their (rows, .) arrays from it
in a fixed order, so each batch gets the buffers the previous batch used, and
:func:`slice_` accumulates into one gradient buffer per sliced parent. A
workspace buffer is valid until the next batch starts: it backs graph values
and gradients only, never a parameter, a parameter gradient or the loss
value, so nothing that outlives the batch aliases it.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

_made = itertools.count()  # the place of each new tensor in the order tensors are made


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

    Training grows every buffer to its final size with one pass over a batch
    sized from all of its batches before the first one
    (:func:`typovec.training._size_workspace`), so no later request outgrows
    a buffer and each is allocated once.
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
            buf = self._buffers[self._next] = np.empty(size, dtype)
        self._next += 1
        return buf[:size].reshape(shape)


class Tensor:
    """A value in the graph; ``parents`` and ``vjp`` drive backpropagation,
    and ``seq``, larger than each parent's, orders it after them."""

    __slots__ = ("value", "grad", "parents", "vjp", "param", "seq")

    def __init__(self, value, parents=(), vjp=None, param=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.vjp = vjp
        self.param: Parameter | None = param
        self.seq = next(_made)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


class Parameter:
    """Named trainable tensor with a persistent gradient accumulator.

    ``value`` becomes the parameter's own array, not a copy, when it is
    already a C-ordered float64 array (a loaded checkpoint's tensors are).
    The gradient comes from ``np.zeros``, whose pages the system maps only
    when they are first written, so a model used only for inference holds
    no gradient memory.
    """

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64, order="C")  # adam_step updates it through a flat view
        self.grad = np.zeros(self.value.shape)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def node(self) -> Tensor:
        """Fresh graph leaf sharing this parameter's value buffer."""
        return Tensor(self.value, param=self)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def constant(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b elementwise, for operands of one shape."""
    _same_shape("add", a, b)
    # b's is a copy, so that add(x, x) gives x the sum of both: backward adds nothing
    # for a VJP output that is already the parent's grad
    return Tensor(a.value + b.value, (a, b), lambda g: (g, g.copy()))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b elementwise, for operands of one shape."""
    _same_shape("mul", a, b)
    return Tensor(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


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


def embedding_lookup(table: Tensor, ids, rate: float = 0.0, rng: np.random.Generator | None = None,
                     ws: Workspace | None = None) -> Tensor:
    """The rows ``ids`` of ``table`` under inverted dropout at ``rate``.

    Rate 0 is the plain lookup and draws nothing from ``rng``. Otherwise one
    array holds the uniform draw, then the mask, which scales survivors by
    1/(1-rate) and is multiplied into the rows in place; the VJP multiplies
    the gradient into the mask, so it may run only once. With ``ws``, the
    rows and then the mask are its next two buffers.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.value.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table {table.value.shape}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    rows, width = table.value.shape
    take = np.empty if ws is None else ws.take
    # mode="clip" writes straight into ``out`` ("raise" buffers); the ids are checked above
    value = np.take(table.value, ids, axis=0, out=take((*ids.shape, width)), mode="clip")
    if rate > 0.0:
        keep = 1.0 - rate
        mask = rng.random(value.shape, out=take(value.shape))
        np.less(mask, keep, out=mask)  # 1.0 or 0.0: the bool that (draw < keep) / keep would cast
        mask /= keep
        value *= mask

    def vjp(g):
        if rate > 0.0:
            g = np.multiply(g, mask, out=mask)
        # one bincount over the flat (id * E + column) cells; each cell sums
        # its rows in row order from 0.0, bit for bit as np.add.at does
        flat = np.add(ids.reshape(-1, 1) * width, np.arange(width), out=take((ids.size, width), np.int64))
        grad = np.bincount(flat.ravel(), weights=np.ravel(g), minlength=rows * width)
        return (grad.reshape(rows, width),)

    return Tensor(value, (table,), vjp)


def reduce_sum(a: Tensor) -> Tensor:
    """The sum of every element of ``a``, as a scalar node."""
    def vjp(g):
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return Tensor(a.value.sum(), (a,), vjp)


def softmax_cross_entropy(x: Tensor, targets, mask, w: Tensor, b: Tensor,
                          ws: Workspace | None = None) -> Tensor:
    """The output layer: summed cross-entropy of ``targets`` under the softmax
    of the logits x @ w + b.

    ``x`` is the (B, H) layer input, ``targets`` its B class ids and ``mask``
    (B,) the row weights, 0 for a padded row. Returns a scalar node holding
    the masked sum of per-row losses; the VJP returns the gradients of x, w
    and b, so the logits never leave the op.

    The op keeps one (B, V) buffer, taken from ``ws`` when given, as is the
    (B, H) gradient of x: x @ w + b is computed into it and shifted there in
    place, then it holds their exp, which the VJP turns into the gradient in
    place. The VJP therefore consumes the buffer and may run only once, as
    :func:`backward` runs it.
    """
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0] \
            or b.value.shape != w.value.shape[1:]:
        raise ShapeError(f"softmax_cross_entropy: x {x.value.shape}, w {w.value.shape} and "
                         f"b {b.value.shape} are not (n,k), (k,m) and (m,)")
    take = np.empty if ws is None else ws.take
    z = np.matmul(x.value, w.value, out=take((len(x.value), w.value.shape[1])))
    z += b.value
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (z.shape[0],):
        raise ShapeError(f"softmax_cross_entropy: {z.shape[0]} rows but targets shape {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= z.shape[1]):
        raise ShapeError(f"softmax_cross_entropy: target id out of range for {z.shape[1]} classes")
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != (z.shape[0],):
        raise ShapeError(f"softmax_cross_entropy: mask shape {m.shape} != ({z.shape[0]},)")

    z -= z.max(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    # only the target log-probabilities are formed: the logits may be (T*B, V)
    target = z[rows, t]
    np.exp(z, out=z)
    sez = z.sum(axis=1, keepdims=True)
    value = -((target - np.log(sez[:, 0])) * m).sum()

    def vjp(g):
        dz = np.divide(z, sez, out=z)
        dz[rows, t] -= 1.0
        dz *= m[:, None] * float(g)
        return np.matmul(dz, w.value.T, out=take(x.value.shape)), x.value.T @ dz, dz.sum(axis=0)

    return Tensor(value, (x, w, b), vjp)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into every reachable node and parameter.

    The nodes are taken latest-made first, from a heap that a node enters
    when the first gradient reaches it, that is when its grad goes from None
    to set. Every child of a node is made after it, so each of them has run
    its VJP by the time the node is taken, and its grad is complete. It runs
    once per graph: some VJPs consume their buffers.

    A VJP that has added its gradient into its parent's grad in place (a
    slice with a shared gradient buffer) returns that grad array itself, and
    nothing more is added.
    """
    if loss.value.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.value.shape}")
    loss.grad = np.ones(())
    heap = [(-loss.seq, loss)]
    while heap:
        node = heapq.heappop(heap)[1]
        if node.param is not None:
            node.param.grad += node.grad
        if node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            # no in-place accumulation: g may be a view of a child's grad
            if parent.grad is None:
                parent.grad = g
                heapq.heappush(heap, (-parent.seq, parent))
            elif parent.grad is not g:
                parent.grad = parent.grad + g
