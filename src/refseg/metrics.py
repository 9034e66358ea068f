"""Training loss and segmentation evaluation metrics.

The model emits logit maps at a quarter of the image pixel count per side
times four (4x the fused grid).  The loss compares against nearest-neighbor
downsampled ground truth at that resolution; metrics upsample the logits
bilinearly back to image resolution and binarize at sigmoid > 0.5, which is
logit > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError

PRECISION_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
# samples stacked into each tape-free forward of ``evaluate``; a fixed size
# bounds its transient memory
EVAL_CHUNK = 8


def bce_loss(y_logits: Tensor, gt: np.ndarray) -> Tensor:
    """Mean per-pixel binary cross-entropy on sigmoid(y_logits)."""
    return ad.bce_with_logits(y_logits, gt)


def downsample_mask_nearest(gt: np.ndarray, out_hw: tuple) -> np.ndarray:
    """Nearest-neighbor downsample of (..., H, W) binary masks (pixel-center
    sampling)."""
    h, w = gt.shape[-2:]
    oh, ow = out_hw
    rows = np.minimum(((np.arange(oh) + 0.5) * h / oh).astype(int), h - 1)
    cols = np.minimum(((np.arange(ow) + 0.5) * w / ow).astype(int), w - 1)
    return gt[..., rows[:, None], cols]


def predict_binary_mask(y_logits: np.ndarray, out_hw: tuple) -> np.ndarray:
    """Bilinearly upsample (..., h, w) logits to image resolution, threshold
    at 0."""
    up = ad.bilinear_resize_array(y_logits.astype(np.float64)[..., None], out_hw)
    return up[..., 0] > 0.0


def iou(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """Intersection over union of two binary masks; 1.0 when both empty."""
    if pred_mask.shape != gt_mask.shape:
        raise DimensionError(f"iou: {pred_mask.shape} vs {gt_mask.shape}")
    p = pred_mask.astype(bool)
    g = gt_mask.astype(bool)
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


@dataclass
class EvalReport:
    overall_iou: float
    mean_iou: float
    precision_at: dict
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "overall_iou": self.overall_iou,
            "mean_iou": self.mean_iou,
            "precision_at": {str(k): v for k, v in self.precision_at.items()},
            "sample_count": self.sample_count,
        }


def report_from_ious(intersections: np.ndarray, unions: np.ndarray) -> EvalReport:
    per_image = np.where(unions > 0, intersections / np.maximum(unions, 1), 1.0)
    total_union = unions.sum()
    overall = float(intersections.sum() / total_union) if total_union > 0 else 1.0
    precision = {t: float((per_image > t).mean()) for t in PRECISION_THRESHOLDS}
    return EvalReport(
        overall_iou=overall,
        mean_iou=float(per_image.mean()),
        precision_at=precision,
        sample_count=len(per_image),
    )


def evaluate(model, samples, mode: str = "full") -> EvalReport:
    """Per-image IoU stats: cumulative overall IoU, mean IoU, and Pr@X.
    Each chunk of ``EVAL_CHUNK`` samples, whose images must share a shape
    and whose masks must match it, is one ``model.predict_batch`` and one
    (B, H, W) threshold and IoU count."""
    if not samples:
        raise ConfigError("evaluate: empty dataset")
    inters, unions = [], []
    for lo in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[lo : lo + EVAL_CHUNK]
        shape = chunk[0].image.shape
        for i, s in enumerate(chunk, lo):
            if s.image.shape != shape or s.gt_mask.shape != shape[:2]:
                raise DimensionError(f"evaluate: sample {i} image {s.image.shape}, mask {s.gt_mask.shape} vs sample {lo} {shape}")
        logits = model.predict_batch(np.stack([s.image for s in chunk]), [s.expression for s in chunk], mode=mode)
        pred = predict_binary_mask(logits, shape[:2])
        g = np.stack([s.gt_mask for s in chunk]).astype(bool)
        inters.append(np.logical_and(pred, g).sum(axis=(-2, -1)))
        unions.append(np.logical_or(pred, g).sum(axis=(-2, -1)))
    return report_from_ious(np.concatenate(inters), np.concatenate(unions))
