"""End-to-end model: encoders, fusion neck, query generator, decoder and
the dynamic-kernel segmentation head, with the ablation modes used by the
trend experiments.  One forward pass runs one (image, expression) pair or a
stacked batch of them through the same ops.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .aligner import (
    MaskBundle,
    MaskGenerator,
    QueryEstimator,
    TransformerDecoder,
    aggregate,
)
from .autodiff import Tensor
from .config import ModelConfig, TRAIN_MODES
from .encoders import ImageEncoder, TextEncoder, TokenSequence, Vocabulary, tokenize
from .errors import ConfigError, DimensionError
from .neck import FusionNeck
from .nn import ParamStore
from .queries import QueryGenerator


class Model:
    """A full referring-segmentation network over one (image, expression),
    or over a batch: a (B, H, W, 3) image stack with the B token sequences
    stacked by ``TokenSequence.stack``.  Every output then gains a leading
    batch axis, and each sample's outputs equal its own forward pass bit for
    bit (a property of the numpy/BLAS build that tests/test_batching.py pins).
    The parameters live in one flat arena, ``store.arena``; ``seed=None``
    draws nothing and leaves them all zero.

    ``mode`` selects the segmentation head behavior:
      full          dynamic per-query kernels, score-weighted mask sum
      fixed_kernel  one learned conv head on the shared map, a single mask
      no_estimator  dynamic kernels, masks summed with unit weights
      no_fvg        full head, but word features skip the vision gate
    """

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, seed: Optional[int] = 0) -> None:
        dtype = np.float64 if cfg.precision == "double" else np.float32
        self.cfg = cfg
        self.vocab = vocab
        self.store = ParamStore(dtype=dtype, seed=seed)
        self.text_encoder = TextEncoder(self.store, cfg, vocab.size)
        self.image_encoder = ImageEncoder(self.store, cfg)
        self.neck = FusionNeck(self.store, cfg)
        self.query_gen = QueryGenerator(self.store, cfg)
        self.decoder = TransformerDecoder(self.store, cfg)
        self.mask_gen = MaskGenerator(self.store, cfg)
        self.estimator = QueryEstimator(self.store, cfg)
        self.store.pack()

    @property
    def dtype(self):
        return self.store.dtype

    def parameters(self):
        return self.store.parameters()

    def zero_grad(self) -> None:
        self.store.zero_grad()

    def tokenize(self, expression: str) -> TokenSequence:
        return tokenize(expression, self.vocab, self.cfg.max_tokens)

    def forward(self, image: Tensor, tokens: TokenSequence, mode: str = "full") -> MaskBundle:
        if mode not in TRAIN_MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        lead = image.shape[:-3]
        size = (self.cfg.image_size, self.cfg.image_size)
        if image.shape[-3:-1] != size:
            raise DimensionError(f"image of spatial size {image.shape[-3:-1]}, model expects {size}")
        if tokens.ids.shape[:-1] != lead:
            raise DimensionError(f"image batch {image.shape} vs token batch {tokens.ids.shape}")
        text = self.text_encoder(tokens)
        feats = self.image_encoder(image)
        f_vt = self.neck(feats, text.f_tg)
        queries = self.query_gen(feats, text, tokens, use_fvg=(mode != "no_fvg"))
        f_q = queries.f_q
        f_s = self.decoder(f_vt, f_q)
        f_p = self.mask_gen.project_fp(f_s)

        if mode == "fixed_kernel":
            ones = Tensor(np.ones(lead + (1,), dtype=self.dtype))
            return MaskBundle(scores=ones, y=self.mask_gen.fixed_head(f_p), attention=queries.a)

        taps, bias = self.mask_gen.kernel_from_query(f_q)
        per_query = lead + (self.cfg.num_queries,)
        scores = Tensor(np.ones(per_query, dtype=self.dtype)) if mode == "no_estimator" else self.estimator(f_q)
        y = aggregate(f_p, taps, bias, scores)
        return MaskBundle(scores=scores, y=y, attention=queries.a, kernels=(self.mask_gen, f_p, taps, bias))

    def predict_batch(self, images: np.ndarray, expressions: Sequence[str], mode: str = "full") -> np.ndarray:
        """Inference over a (B, H, W, 3) image stack and its B expressions:
        no tape, returns the (B, 4S, 4S) aggregated logit maps.  The forward
        is batch-invariant, so each map equals that sample's own
        ``predict_logits`` bit for bit."""
        image = Tensor(np.asarray(images, dtype=self.dtype))
        tokens = TokenSequence.stack([self.tokenize(e) for e in expressions])
        return self.forward(image, tokens, mode=mode).y.data

    def predict_logits(self, image_array: np.ndarray, expression: str, mode: str = "full") -> np.ndarray:
        """Inference helper: the aggregated logit map, as a batch of one."""
        return self.predict_batch(np.asarray(image_array)[None], [expression], mode=mode)[0]
