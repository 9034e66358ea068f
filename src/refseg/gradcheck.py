"""Finite-difference oracle for tape gradients.

Independent of the backward implementation: it only re-runs the forward
closure with perturbed parameter entries and compares central differences
against whatever the tape produced.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, DimensionError


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    sample_per_param: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Return the max relative error between tape and numeric gradients.

    ``f`` must be a deterministic closure over ``params`` returning a scalar;
    run it in double precision for the comparison to be meaningful.  With
    ``sample_per_param`` set, only that many randomly chosen entries of each
    parameter are checked (seeded through ``rng``), which keeps large models
    tractable.  Relative error uses denominator max(|a|, |b|, 1e-8).  A
    non-finite gradient, taped (sampled or not) or numeric, makes the result
    NaN, which fails every ``err < bound`` test.  A ``sample_per_param``
    below 1 raises ``ConfigError``.  Each parameter's tape gradient is left
    in ``p.gradient``.
    """
    if sample_per_param is not None and sample_per_param < 1:
        raise ConfigError(f"sample_per_param must be at least 1, got {sample_per_param}")
    with ad.Tape() as tape:
        out = f()
    if out.data.size != 1:
        raise DimensionError(f"grad_check requires a scalar closure, got {out.shape}")
    for p in params:
        p.zero_grad()
    ad.backward(tape, out)
    analytic = {p.name: np.array(p.gradient, copy=True) for p in params}

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0 if all(np.isfinite(g).all() for g in analytic.values()) else np.nan
    for p in params:
        flat = p.value.data.reshape(-1)
        n = flat.size
        if sample_per_param is None or sample_per_param >= n:
            indices = range(n)
        else:
            indices = rng.choice(n, size=sample_per_param, replace=False)
        an = analytic[p.name].reshape(-1)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f().data)
            flat[i] = orig - eps
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(numeric), abs(an[i]), 1e-8)
            worst = np.maximum(worst, abs(numeric - an[i]) / denom)  # NaN propagates
    return float(worst)
