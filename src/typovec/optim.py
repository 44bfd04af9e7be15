"""Adam with bias correction, plus global-norm gradient clipping.

Buffer lifetime: :class:`AdamState` owns each parameter's moments and two
scratch arrays, allocated at the parameter's first step and kept for the
run; the update reads the gradient and writes only the moments, the scratch
and the parameter's own value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Parameter


@dataclass
class AdamState:
    """First/second moment buffers per parameter name and the step counter.

    ``scratch`` holds two work arrays per parameter, shaped like it, through
    which :func:`adam_step` computes the update; like the moments they are
    allocated at a parameter's first step and reused by every later one.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(params, grads, lr: float, state: AdamState) -> AdamState:
    """One Adam update over ``params`` with aligned ``grads``, in place.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with
    m_hat = m / (1 - beta1^t) and v_hat = v / (1 - beta2^t). Each product,
    quotient and sum is formed in that order in the state's scratch arrays,
    so after a parameter's first step the update allocates only the
    finiteness check's boolean array.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} parameters but {len(grads)} gradients")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for p, g in zip(params, grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.value.shape:
            raise ValueError(f"{p.name}: gradient shape {g.shape} != parameter shape {p.value.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {p.name!r}")
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.value)
            state.v[p.name] = np.zeros_like(p.value)
            state.scratch[p.name] = (np.empty_like(p.value), np.empty_like(p.value))
        m, v = state.m[p.name], state.v[p.name]
        s1, s2 = state.scratch[p.name]
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=s1)
        v *= state.beta2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - state.beta2
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += state.eps
        s1 /= s2
        p.value -= s1
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
