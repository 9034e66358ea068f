"""Transformer decoding of fused tokens against queries, followed by the
query-conditioned segmentation head.  All N_q queries of every sample go
through the head together: one matrix product synthesizes their 3x3
kernels, a self-attention scorer weights them, and the prediction, the
score-weighted sum of the mask logit maps the kernels make from the
upsampled feature map, is one conv with the score-weighted kernel.  Every
shape below takes an optional leading batch axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .errors import DimensionError
from .nn import Conv, FeedForward, LayerNorm, MultiHeadAttention, ParamStore, linear, linear_init, zeros_init


class TransformerDecoder:
    """Decoder layers over the N visual tokens.

    Queries enter only as cross-attention keys/values (no positional terms),
    so the output is invariant to any permutation of the query rows.
    """

    def __init__(self, store: ParamStore, cfg: ModelConfig) -> None:
        c = cfg.fusion_width
        self.cfg = cfg
        self.layers = []
        for i in range(cfg.decoder_layers):
            self.layers.append(
                {
                    "self": MultiHeadAttention(store, f"decoder.layer{i}.self", c, cfg.heads),
                    "ln1": LayerNorm(store, f"decoder.layer{i}.ln1", c),
                    "cross": MultiHeadAttention(store, f"decoder.layer{i}.cross", c, cfg.heads),
                    "ln2": LayerNorm(store, f"decoder.layer{i}.ln2", c),
                    "ffn": FeedForward(store, f"decoder.layer{i}.ffn", c),
                    "ln3": LayerNorm(store, f"decoder.layer{i}.ln3", c),
                }
            )

    def __call__(self, f_vt: Tensor, f_q: Tensor) -> Tensor:
        """(..., N, C) tokens against (..., N_q, C) queries -> (..., S, S, C)
        features."""
        s = self.cfg.grid_size
        if f_vt.shape[-2] != s * s:
            raise DimensionError(f"expected {s * s} visual tokens, got {f_vt.shape}")
        x = f_vt
        for layer in self.layers:
            x = layer["ln1"](ad.add(x, layer["self"](x)))
            x = layer["ln2"](ad.add(x, layer["cross"](x, kv=f_q)))
            x = layer["ln3"](ad.add(x, layer["ffn"](x)))
        return ad.reshape(x, f_vt.shape[:-2] + (s, s, self.cfg.fusion_width))


@dataclass
class MaskBundle:
    """Head outputs of one forward pass, of one sample or of a batch.  The
    dynamic heads' ``kernels`` (head, f_p, taps, bias) make ``masks`` on first
    read through ``apply_dynamic_kernel``, which records no tape node;
    gradients flow through ``y``."""

    scores: Tensor     # (..., N_q) mask weights
    y: Tensor          # (..., 4S, 4S) aggregated logit map
    attention: Tensor  # (..., N_q, L) word-attention map the queries were made from
    kernels: tuple = ()

    @functools.cached_property
    def masks(self) -> list:
        """N_q mask logit maps, each (..., 4S, 4S); the fixed head's is ``y``."""
        if not self.kernels:
            return [self.y]
        stack = self.kernels[0].apply_dynamic_kernel(*self.kernels[1:])
        return [Tensor(m) for m in np.moveaxis(stack.data, -3, 0)]


class MaskGenerator:
    """Projects decoded features to the mask grid and synthesizes per-query
    convolution kernels."""

    def __init__(self, store: ParamStore, cfg: ModelConfig) -> None:
        c = cfg.fusion_width
        cp = cfg.kernel_channels
        self.cfg = cfg
        self.conv_p = Conv(store, "aligner.conv_p", 3, c, cp)
        # for unit-scale queries each generated tap starts with the variance
        # of a He-initialised 3x3xCp conv weight, as the fixed head's kernel
        # does; a 1/sqrt(C) init starts the mask logits at an RMS of 4-12,
        # where the loss saturates
        self.w_p = store.matrix("aligner.w_p", c, 9 * cp + 1, gain=2.0 / (9 * cp))
        self.b_p = store.parameter("aligner.b_p", (9 * cp + 1,), zeros_init)
        # fixed-kernel ablation head: one ordinary learned conv over F_p
        self.fixed = Conv(store, "aligner.fixed", 3, cp, 1)

    def project_fp(self, f_s: Tensor) -> Tensor:
        """(..., S, S, C) -> (..., 4S, 4S, Cp): upsample, 3x3 conv, upsample."""
        return ad.upsample2x(self.conv_p(ad.upsample2x(f_s)))

    def kernel_from_query(self, f_q: Tensor) -> tuple:
        """(..., N, C) queries -> (..., N, 3, 3, Cp) taps and (..., N)
        biases: ReLU(f_q W_p + b_p) split as 9*Cp taps then one bias, so
        every generated kernel is non-negative.  Tap order is (kernel row,
        kernel column, channel), a row-major reshape of the leading 9*Cp
        entries."""
        cp = self.cfg.kernel_channels
        raw = ad.relu(linear(f_q, self.w_p, self.b_p))
        taps = ad.getitem(raw, (Ellipsis, slice(0, 9 * cp)))
        return ad.reshape(taps, f_q.shape[:-1] + (3, 3, cp)), ad.getitem(raw, (Ellipsis, 9 * cp))

    def apply_dynamic_kernel(self, f_p: Tensor, taps: Tensor, bias: Tensor) -> Tensor:
        """(..., H, W, Cp) map against its (..., N) kernels -> (..., N, H, W)
        logit maps, untaped, for dumps and checks: one float64 conv with each
        sample's kernels as its output channels (the naive loop's sums, the
        same math as one conv per kernel), rounded once to the map's dtype."""
        if taps.shape[-1] != f_p.shape[-1] or taps.shape[:-4] != f_p.shape[:-3]:
            raise DimensionError(f"kernel channels {taps.shape} vs map {f_p.shape}")
        kernel = np.moveaxis(taps.data, -4, -1)
        out = ad.conv2d(*(Tensor(a, np.float64) for a in (f_p.data, kernel, bias.data)))
        return Tensor(np.moveaxis(out.data, -1, -3).astype(f_p.dtype, copy=False))

    def fixed_head(self, f_p: Tensor) -> Tensor:
        return ad.reshape(self.fixed(f_p), f_p.shape[:-1])


class QueryEstimator:
    """Scores queries with a residual self-attention block and a linear
    head, softmaxed so the scores are positive and sum to one.

    The residual path carries each query's own features to the head, as in
    the text encoder and decoder blocks; without it every row of the
    attention output is close to the same mean of the N_q queries and the
    scores stay uniform.  The head carries no bias: a shared offset on every
    query logit cancels inside the softmax."""

    def __init__(self, store: ParamStore, cfg: ModelConfig) -> None:
        c = cfg.fusion_width
        self.attn = MultiHeadAttention(store, "estimator.attn", c, cfg.heads)
        self.w_s = store.parameter("estimator.w_s", (c, 1), linear_init(c))

    def __call__(self, f_q: Tensor) -> Tensor:
        """(..., N_q, C) queries -> (..., N_q) scores."""
        h = ad.add(f_q, self.attn(f_q))
        logits = ad.reshape(linear(h, self.w_s), f_q.shape[:-1])
        return ad.softmax(logits, axis=-1)


def aggregate(f_p: Tensor, taps: Tensor, bias: Tensor, scores: Tensor) -> Tensor:
    """Score-weighted sum of the maps the N_q kernels make from ``f_p``."""
    return ad.weighted_conv(f_p, taps, bias, scores)
