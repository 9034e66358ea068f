"""Fusion neck: multi-scale vision features gated by the global language
feature, aggregated into the flattened vision-language tokens F_vt.

Maps carry an optional leading batch axis.  All fusion happens on the
1/8-resolution grid: the stage-4 map is projected,
gated and upsampled 2x onto it, the stage-2 map is average-pooled down onto
it.  Each concat pairs two C/2-wide branches so the running width stays C;
the final 1x1 convolutions map 3C -> C and then (C + 2) -> C after the
coordinate channels are appended.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .encoders import ImageFeatures
from .errors import DimensionError
from .nn import Conv, ParamStore, linear


def coord_features(h: int, w: int, dtype=np.float32) -> Tensor:
    """(h, w, 2) map: channel 0 is x in [-1, 1], channel 1 is y in [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, w, dtype=dtype)
    ys = np.linspace(-1.0, 1.0, h, dtype=dtype)
    return Tensor(np.stack(np.meshgrid(xs, ys, indexing="xy"), axis=-1))


class _PyramidFuser:
    """Shared wiring of the multi-scale fusion; the language gate is what
    distinguishes the neck from the dense-vision branch of the query
    generator, which reuses this structure with its own parameters."""

    def __init__(self, store: ParamStore, prefix: str, cfg: ModelConfig) -> None:
        c = cfg.fusion_width
        cp = c // 2
        c4 = cfg.backbone_channels[3]
        # gain 2: each projection feeds a ReLU and there is no norm layer
        # downstream to recover a shrinking signal
        self.w_v4 = store.matrix(f"{prefix}.w_v4", c4, c, gain=2.0)
        self.w_m4 = store.matrix(f"{prefix}.w_m4", c, cp, gain=2.0)
        self.w_v3 = store.matrix(f"{prefix}.w_v3", c4, cp, gain=2.0)
        self.w_m3 = store.matrix(f"{prefix}.w_m3", c, cp, gain=2.0)
        self.w_v2 = store.matrix(f"{prefix}.w_v2", c4, cp, gain=2.0)
        self.conv_m = Conv(store, f"{prefix}.conv_m", 1, 3 * c, c)
        self.conv_inte = Conv(store, f"{prefix}.conv_inte", 1, c + 2, c)

    def fuse_multiscale(self, f_m4: Tensor, f_v3: Tensor, f_v2: Tensor) -> Tensor:
        if f_v2.shape[-3:-1] != (2 * f_v3.shape[-3], 2 * f_v3.shape[-2]):
            raise DimensionError(
                f"stage-2 map {f_v2.shape} must be exactly double stage-3 {f_v3.shape}"
            )
        if f_m4.shape[-3:-1] != f_v3.shape[-3:-1]:
            raise DimensionError(f"fused stage-4 {f_m4.shape} vs stage-3 {f_v3.shape}")
        f_m3 = ad.concat(
            [ad.relu(linear(f_m4, self.w_m4, rows=2)), ad.relu(linear(f_v3, self.w_v3, rows=2))],
            axis=-1,
        )
        f_v2p = ad.avgpool2x(f_v2)
        f_m2 = ad.concat(
            [ad.relu(linear(f_m3, self.w_m3, rows=2)), ad.relu(linear(f_v2p, self.w_v2, rows=2))],
            axis=-1,
        )
        stacked = ad.concat([f_m2, f_m3, f_m4], axis=-1)
        return self.conv_m(stacked)

    def __call__(self, f_m4: Tensor, feats: ImageFeatures) -> Tensor:
        """(..., S, S, C) fused stage-4 map and the stage-3/2 features ->
        (..., S, S, C): fuse the scales, append the coordinate channels
        (broadcast over the batch) and map C + 2 -> C."""
        f_m = self.fuse_multiscale(f_m4, feats.f_v3, feats.f_v2)
        coords = coord_features(*f_m.shape[-3:-1], dtype=f_m.data.dtype).data
        stacked = ad.concat([f_m, Tensor(np.broadcast_to(coords, f_m.shape[:-1] + (2,)))], axis=-1)
        return self.conv_inte(stacked)


class FusionNeck:
    def __init__(self, store: ParamStore, cfg: ModelConfig) -> None:
        self.cfg = cfg
        self.fuser = _PyramidFuser(store, "neck", cfg)
        self.w_tg = store.matrix("neck.w_tg", cfg.text_global_width, cfg.fusion_width, gain=2.0)

    def fuse_stage4(self, f_v4: Tensor, f_tg: Tensor) -> Tensor:
        """Language-gated stage-4 features, upsampled onto the fusion grid."""
        vis = ad.relu(linear(f_v4, self.fuser.w_v4, rows=2))
        gate = ad.relu(linear(ad.reshape(f_tg, f_tg.shape[:-1] + (1, 1, f_tg.shape[-1])), self.w_tg))
        return ad.upsample2x(ad.mul(vis, gate))

    def __call__(self, feats: ImageFeatures, f_tg: Tensor) -> Tensor:
        """(..., S*S, C) row-major flattened tokens F_vt."""
        f_inte = self.fuser(self.fuse_stage4(feats.f_v4, f_tg), feats)
        s_h, s_w = f_inte.shape[-3:-1]
        return ad.reshape(f_inte, f_inte.shape[:-3] + (s_h * s_w, self.cfg.fusion_width))
