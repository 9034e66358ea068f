"""Multi-query generation: dense vision saliency maps attend over
vision-gated word features to produce one query vector per emphasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .encoders import ImageFeatures, TextFeatures, TokenSequence, pad_key_bias
from .neck import _PyramidFuser
from .nn import Conv, ParamStore, linear


def _near_channel_average(rng, shape, dtype):
    """1/C4 plus uniform noise of +-0.1/sqrt(C4): the gate starts as the
    channel average of F_vg, and the noise sets its columns apart."""
    bound = 0.1 / np.sqrt(shape[0])
    return (1.0 / shape[0] + rng.uniform(-bound, bound, size=shape)).astype(dtype)


@dataclass
class QuerySet:
    f_q: Tensor   # (..., N_q, C) query vectors
    a: Tensor     # (..., N_q, L) word-attention map, rows sum to 1, pads exactly 0


class QueryGenerator:
    def __init__(self, store: ParamStore, cfg: ModelConfig) -> None:
        c = cfg.fusion_width
        c4 = cfg.backbone_channels[3]
        self.cfg = cfg
        # dense vision branch: same pyramid wiring as the neck, own weights,
        # and no language gate on stage 4
        self.fuser = _PyramidFuser(store, "queries.dense", cfg)
        mid1, mid2 = max(1, c // 2), max(1, c // 4)
        widths = (c, mid1, mid2, cfg.num_queries)
        self.reduce = [Conv(store, f"queries.reduce{i}", 3, widths[i], widths[i + 1]) for i in range(3)]
        self.w_t = store.matrix("queries.w_t", c, c, gain=2.0)
        # the gate starts as the channel average of F_vg, which the image
        # encoder offsets by one (see fuse_language_global)
        self.w_vg = store.parameter("queries.w_vg", (c4, c), _near_channel_average)
        self.w_vd = store.matrix("queries.w_vd", cfg.num_tokens, c, gain=2.0)
        self.w_a = store.matrix("queries.w_a", c, c, gain=2.0)
        self.w_tv = store.matrix("queries.w_tv", c, c, gain=2.0)

    def dense_vision(self, feats: ImageFeatures) -> Tensor:
        """(..., N_q, S*S) saliency rows from the un-gated feature pyramid."""
        f_m4 = ad.upsample2x(ad.relu(linear(feats.f_v4, self.fuser.w_v4, rows=2)))
        x = self.fuser(f_m4, feats)
        s_h, s_w = x.shape[-3:-1]
        for i, conv in enumerate(self.reduce):
            x = conv(ad.relu(x) if i else x)
        return ad.transpose(ad.reshape(x, x.shape[:-3] + (s_h * s_w, self.cfg.num_queries)))

    def fuse_language_global(self, f_t: Tensor, f_vg: Tensor, use_fvg: bool = True) -> Tensor:
        """(..., L, C) word features relu(F_t W_t), scaled per channel by
        the vision gate relu(F_vg W_vg).

        A zero F_vg zeroes the words, and a unit gate gives the plain
        projection.  W_vg starts at the channel average and F_vg carries a
        unit offset, so at init the gate is one value close to one for every
        channel: the words keep the scale they have without the gate, and
        training learns which channels the image should boost or suppress.
        A gate drawn at random instead zeroes about half the channels of
        every word."""
        text = ad.relu(linear(f_t, self.w_t))
        if not use_fvg:
            return text
        gate = ad.relu(linear(ad.reshape(f_vg, f_vg.shape[:-1] + (1, f_vg.shape[-1])), self.w_vg))
        return ad.mul(text, gate)

    def attention_map(self, f_vd: Tensor, f_tv: Tensor, tokens: TokenSequence) -> Tensor:
        """(..., N_q, L) softmax rows over words; each sample's pad columns
        are exactly zero."""
        proj_v = ad.relu(linear(f_vd, self.w_vd))
        proj_t = ad.relu(linear(f_tv, self.w_a))
        logits = ad.matmul(proj_v, ad.transpose(proj_t))
        bias = pad_key_bias(tokens, self.cfg.max_tokens, logits.data.dtype)
        bias = bias.reshape(bias.shape[:-1] + (1, bias.shape[-1]))
        return ad.softmax(ad.add(logits, Tensor(bias)), axis=-1)

    def make_queries(self, a: Tensor, f_tv: Tensor) -> Tensor:
        return ad.matmul(a, ad.relu(linear(f_tv, self.w_tv)))

    def __call__(
        self,
        feats: ImageFeatures,
        text: TextFeatures,
        tokens: TokenSequence,
        use_fvg: bool = True,
    ) -> QuerySet:
        f_vd = self.dense_vision(feats)
        f_tv = self.fuse_language_global(text.f_t, feats.f_vg, use_fvg=use_fvg)
        a = self.attention_map(f_vd, f_tv, tokens)
        f_q = self.make_queries(a, f_tv)
        return QuerySet(f_q=f_q, a=a)
