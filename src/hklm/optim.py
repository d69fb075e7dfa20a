"""AdamW with decoupled weight decay and bias-corrected moments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DivergenceError(RuntimeError):
    """Training met a non-finite loss or gradient; the message names the step."""


# The moments' decay rates and the denominator's epsilon.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWConfig:
    lr: float = 3e-5
    weight_decay: float = 0.0


@dataclass
class AdamWState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamWState":
        return cls(
            step=0,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    config: AdamWConfig,
) -> dict[str, np.ndarray]:
    """One in-place update; aborts (state untouched) on any non-finite gradient."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in {name!r} at step {state.step}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    # The update below is
    #   m = BETA1 * m + (1 - BETA1) * g;  v = BETA2 * v + (1 - BETA2) * (g * g)
    #   p -= lr * ((m / bc1) / (sqrt(v / bc2) + EPS));  p -= lr * wd * p
    # evaluated operation by operation in this order, with three temporaries
    # per tensor reused in place instead of one per operator.
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        g_tmp = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += g_tmp
        np.multiply(g, g, out=g_tmp)
        g_tmp *= 1.0 - BETA2
        v *= BETA2
        v += g_tmp
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += EPS
        update = np.divide(m, bc1)
        update /= denom
        update *= config.lr
        p -= update
        if config.weight_decay:
            p -= np.multiply(p, config.lr * config.weight_decay, out=denom)
    return params
