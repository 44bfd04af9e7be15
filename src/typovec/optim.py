"""Adam with bias correction, plus global-norm gradient clipping.

Buffer lifetime: :class:`AdamState` owns each parameter's two moments,
allocated at the parameter's first step and kept for the run, and one pair
of scratch arrays that every parameter shares, as long as the largest
parameter but at most :data:`BLOCK` elements. The update reads the gradient
and writes only the moments, the scratch and the parameter's own value, one
block of elements at a time, so the scratch does not grow with the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Parameter

BLOCK = 32_768  # elements per block of the update: 256 KB of float64 per scratch array


# The moment decay rates and the denominator's floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment buffers per parameter name and the step counter.

    ``scratch`` is the pair of work arrays through which :func:`adam_step`
    computes each block of every parameter's update; the first step sizes it
    to the largest parameter, capped at :data:`BLOCK` elements.
    """

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: tuple[np.ndarray, np.ndarray] = field(default_factory=lambda: (np.empty(0), np.empty(0)))


def adam_step(params, lr: float, state: AdamState) -> AdamState:
    """One Adam update of ``params`` from their own ``grad`` arrays, in place.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + EPS) with
    m_hat = m / (1 - BETA1^t) and v_hat = v / (1 - BETA2^t). A parameter's
    ``grad`` has its value's shape: it is made so and only updated in place.
    The learning rate, every gradient's finiteness and every value's C order
    are checked first: a step that raises changes no parameter, moment or
    counter. Then each parameter is updated in blocks of :data:`BLOCK`
    elements, every product, quotient and sum formed in that order in the
    state's scratch pair, which is the whole-array update bit for bit. After
    a parameter's first step the update allocates only the finiteness
    check's boolean array.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    params = list(params)
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise ValueError(f"non-finite gradient for parameter {p.name!r}")
        if not p.value.flags.c_contiguous:  # its flat view would be a copy, and the update would be lost
            raise ValueError(f"{p.name}: value is not C-contiguous, so it cannot be updated in place")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    width = min(BLOCK, max((p.value.size for p in params), default=0))
    if state.scratch[0].size < width:
        state.scratch = (np.empty(width), np.empty(width))
    scratch1, scratch2 = state.scratch
    for p in params:
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.value)
            state.v[p.name] = np.zeros_like(p.value)
        # flat views, not copies: the value is C-contiguous, and so are the moments made like it
        value, m_all, v_all = (a.reshape(-1) for a in (p.value, state.m[p.name], state.v[p.name]))
        g = p.grad.ravel()
        for lo in range(0, value.size, BLOCK):
            hi = min(lo + BLOCK, value.size)
            m, v, gb, s1, s2 = m_all[lo:hi], v_all[lo:hi], g[lo:hi], scratch1[: hi - lo], scratch2[: hi - lo]
            m *= BETA1
            m += np.multiply(gb, 1.0 - BETA1, out=s1)
            v *= BETA2
            np.multiply(gb, gb, out=s1)
            s1 *= 1.0 - BETA2
            v += s1
            np.divide(m, bc1, out=s1)
            s1 *= lr
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += EPS
            s1 /= s2
            value[lo:hi] -= s1
    return state


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(total))


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the norm before clipping. A norm that is not finite (a gradient
    holds inf or nan, or the squares overflow) is returned with the gradients
    left as they are: no factor brings it to ``max_norm``, and inf * 0 is nan.
    """
    params = list(params)
    norm = global_grad_norm(params)
    if max_norm > 0 and max_norm < norm < np.inf:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm


def zero_gradients(params: list[Parameter]) -> None:
    for p in params:
        p.zero_grad()
