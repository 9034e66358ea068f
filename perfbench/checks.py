"""Reference computations the benchmark checks refseg's outputs against.

Each is written here from the method's definition in plain numpy, apart
from the program, so that a check never compares the program with itself
or with a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

F32_EPS = float(np.finfo(np.float32).eps)
PRECISION_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


class Checks:
    """Collects named pass/fail results; a run is correct when all pass."""

    def __init__(self) -> None:
        self.results: list = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]

    def lines(self) -> list:
        return [f"check {'PASS' if ok else 'FAIL'} {name}{': ' + d if d else ''}" for name, ok, d in self.results]


# ---------------------------------------------------------------------------
# training


def poly_lr(base: float, step: int, total: int, power: float) -> float:
    """Polynomial decay base * (1 - step/total)^power, clamped at the horizon."""
    frac = min(max(step, 0), total) / total
    return base * (1.0 - frac) ** power


def adam_reference(p0, g, m0, v0, t: int, lr: float, b1: float, b2: float, eps: float):
    """One Adam step in float64: returns (p1, m1, v1, |update|)."""
    p0, g, m0, v0 = (np.asarray(a, dtype=np.float64) for a in (p0, g, m0, v0))
    m1 = b1 * m0 + (1.0 - b1) * g
    v1 = b2 * v0 + (1.0 - b2) * g * g
    upd = (m1 / (1.0 - b1**t)) / (np.sqrt(v1 / (1.0 - b2**t)) + eps)
    return p0 - lr * upd, m1, v1, np.abs(upd)


def rounding_excess(actual, ref, scale, ulps: float = 16.0) -> float:
    """Largest |actual - ref| in units of ``ulps`` float32 roundings of
    ``scale``; a value <= 1 means the two agree to rounding."""
    err = np.abs(np.asarray(actual, dtype=np.float64) - ref)
    tol = ulps * F32_EPS * np.asarray(scale, dtype=np.float64) + 1e-30
    return float((err / tol).max()) if err.size else 0.0


def first_vs_last_eighth(losses: list) -> tuple:
    k = max(1, len(losses) // 8)
    return float(np.mean(losses[:k])), float(np.mean(losses[-k:]))


# ---------------------------------------------------------------------------
# evaluation


def resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Bilinear weights with half-pixel centres and edge clamp: output i
    reads source coordinate (i + 0.5) * n_in / n_out - 0.5."""
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        s = (i + 0.5) * n_in / n_out - 0.5
        lo = math.floor(s)
        frac = s - lo
        m[i, min(max(lo, 0), n_in - 1)] += 1.0 - frac
        m[i, min(max(lo + 1, 0), n_in - 1)] += frac
    return m


def upsample_logits(logits: np.ndarray, out_hw: tuple) -> np.ndarray:
    mh = resize_matrix(logits.shape[0], out_hw[0])
    mw = resize_matrix(logits.shape[1], out_hw[1])
    return mh @ logits.astype(np.float64) @ mw.T


def iou_bounds(logits: np.ndarray, gt: np.ndarray) -> tuple:
    """(inter_lo, inter_hi, union_lo, union_hi, ambiguous pixel count).

    A pixel is predicted when its upsampled logit is > 0.  Pixels within
    rounding of 0 may fall either way, so they widen the bounds; with none
    of them the bounds collapse to the exact counts."""
    up = upsample_logits(logits, gt.shape)
    tol = 1e-9 * max(1.0, float(np.abs(logits).max()))
    amb = np.abs(up) <= tol
    pred = (up > 0) & ~amb
    g = gt.astype(bool)
    inter = int((pred & g).sum())
    union = int((pred | g).sum())
    amb_gt = int((amb & g).sum())
    amb_bg = int((amb & ~g).sum())
    return inter, inter + amb_gt, union, union + amb_bg, int(amb.sum())


def report_from_counts(inters: np.ndarray, unions: np.ndarray) -> dict:
    per = np.where(unions > 0, inters / np.maximum(unions, 1), 1.0)
    total = unions.sum()
    return {
        "overall_iou": float(inters.sum() / total) if total > 0 else 1.0,
        "mean_iou": float(per.mean()),
        "precision_at": {t: float((per > t).mean()) for t in PRECISION_THRESHOLDS},
    }


def report_matches(report, bounds: list) -> tuple:
    """Whether an EvalReport equals the counts recomputed from the logits.

    With no ambiguous pixel this is exact equality; otherwise each statistic
    must lie between the ones the extreme resolutions give."""
    b = np.array([x[:4] for x in bounds], dtype=np.int64)
    amb = sum(x[4] for x in bounds)
    lo = report_from_counts(b[:, 0], b[:, 3])  # fewest hits, largest unions
    hi = report_from_counts(b[:, 1], b[:, 2])
    got = {"overall_iou": report.overall_iou, "mean_iou": report.mean_iou,
           "precision_at": {t: report.precision_at[t] for t in PRECISION_THRESHOLDS}}
    if amb == 0:
        return got == lo, f"exact, overall {lo['overall_iou']:.4f} mean {lo['mean_iou']:.4f}"

    def within(key):
        return lo[key] - 1e-12 <= got[key] <= hi[key] + 1e-12

    ok = within("overall_iou") and within("mean_iou") and all(
        lo["precision_at"][t] <= got["precision_at"][t] <= hi["precision_at"][t]
        for t in PRECISION_THRESHOLDS
    )
    return ok, f"{amb} pixels within rounding of 0, report inside their bounds"


def tail_percentile(values: list) -> tuple:
    """(value, percentile, n): the highest whole percentile with at least ten
    samples above it; with fewer than 11 samples, the maximum."""
    n = len(values)
    if n < 11:
        return float(max(values)), 100, n
    pct = math.floor(100.0 * (n - 10) / n)
    return float(np.percentile(values, pct)), pct, n
