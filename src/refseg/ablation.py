"""Trend experiments: train a set of model variants under identical seeds
and data order and tabulate their evaluation metrics."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import TrainConfig
from .encoders import Vocabulary
from .errors import ConfigError
from .metrics import EvalReport, PRECISION_THRESHOLDS, evaluate
from .train import init_state, train


def variant_label(overrides: dict) -> str:
    parts = []
    if "mode" in overrides:
        parts.append(overrides["mode"])
    if "num_queries" in overrides:
        parts.append(f"nq{overrides['num_queries']}")
    return "-".join(parts) if parts else "base"


def apply_overrides(base: TrainConfig, overrides: dict, seed: int) -> TrainConfig:
    cfg = dataclasses.replace(base, seed=seed)
    if "mode" in overrides:
        cfg = dataclasses.replace(cfg, mode=overrides["mode"])
    model_over = {k: v for k, v in overrides.items() if k != "mode"}
    if model_over:
        cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, **model_over))
    return cfg


@dataclass
class VariantResult:
    label: str
    seeds: list
    reports: list  # EvalReport per seed

    @property
    def median_mean_iou(self) -> float:
        return float(np.median([r.mean_iou for r in self.reports]))

    @property
    def median_overall_iou(self) -> float:
        return float(np.median([r.overall_iou for r in self.reports]))


@dataclass
class AblationReport:
    results: list

    def get(self, label: str) -> VariantResult:
        for r in self.results:
            if r.label == label:
                return r
        raise ConfigError(f"no variant {label!r}; the report has {[r.label for r in self.results]}")

    def to_records(self) -> list:
        records = []
        for r in self.results:
            for seed, report in zip(r.seeds, r.reports):
                rec = {"variant": r.label, "seed": seed}
                rec.update(report.to_dict())
                records.append(rec)
            records.append(
                {
                    "variant": r.label,
                    "median_mean_iou": r.median_mean_iou,
                    "median_overall_iou": r.median_overall_iou,
                }
            )
        return records

    def to_text_table(self) -> str:
        headers = ["variant", "overall_iou", "mean_iou"] + [f"pr@{t}" for t in PRECISION_THRESHOLDS]
        rows = [headers]
        for r in self.results:
            med_pr = {
                t: float(np.median([rep.precision_at[t] for rep in r.reports]))
                for t in PRECISION_THRESHOLDS
            }
            rows.append(
                [r.label, f"{r.median_overall_iou:.4f}", f"{r.median_mean_iou:.4f}"]
                + [f"{med_pr[t]:.4f}" for t in PRECISION_THRESHOLDS]
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
        return "\n".join(lines)


def run_ablation(
    base_cfg: TrainConfig,
    variants: Sequence[dict],
    seeds: Sequence[int],
    vocab: Vocabulary,
    train_samples: list,
    eval_samples: Optional[list] = None,
) -> AblationReport:
    """Train every variant with the same seed set and identical data order;
    evaluate each trained model (on the training set unless a separate
    evaluation set is given) and collect per-seed and median metrics."""
    eval_set = eval_samples if eval_samples is not None else train_samples
    results = []
    for overrides in variants:
        label = variant_label(overrides)
        reports = []
        for seed in seeds:
            cfg = apply_overrides(base_cfg, overrides, seed)
            state = init_state(cfg, vocab)
            train(cfg, state, train_samples)
            reports.append(evaluate(state.model, eval_set, mode=cfg.mode))
        results.append(VariantResult(label=label, seeds=list(seeds), reports=reports))
    return AblationReport(results=results)
