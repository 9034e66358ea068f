"""Gradient verification suite: every differentiable operation and every
forward block checked against central finite differences in double
precision, plus an end-to-end check of a tiny full model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .aligner import MaskGenerator, QueryEstimator, TransformerDecoder, aggregate
from .autodiff import Tape, Tensor, backward
from .config import ModelConfig
from .data import GrammarConfig, generate_scene, vocabulary_for
from .encoders import ImageEncoder, ImageFeatures, TextEncoder, TextFeatures, tokenize
from .gradcheck import grad_check
from .metrics import bce_loss, downsample_mask_nearest
from .model import Model
from .neck import FusionNeck
from .nn import MultiHeadAttention, ParamStore
from .queries import QueryGenerator

THRESHOLD = 1e-4


def tiny_config(precision: str = "double") -> ModelConfig:
    return ModelConfig(
        image_size=16,
        fusion_width=8,
        text_global_width=8,
        num_queries=2,
        max_tokens=9,
        heads=2,
        text_layers=1,
        decoder_layers=1,
        backbone_channels=(4, 8, 8, 8),
        precision=precision,
    )


@dataclass
class BlockResult:
    name: str
    max_rel_err: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < THRESHOLD


BLOCK_EPS = 3e-4  # larger step for deep blocks: tiny-gradient entries would
# otherwise drown in the float noise of the central difference; truncation
# error stays orders of magnitude below the pass threshold at this scale


def _feature_shapes(cfg) -> list:
    """Shapes of ``ImageFeatures``' f_v2, f_v3, f_v4 and f_vg."""
    s4, c4 = cfg.image_size // 16, cfg.backbone_channels[3]
    return [(4 * s4, 4 * s4, c4), (2 * s4, 2 * s4, c4), (s4, s4, c4), (c4,)]


class ForwardCache:
    """Runs ``fn``, a function of ``params`` alone (its inputs fixed), once
    per parameter state.  A state is keyed exactly by the entries whose bits
    differ from their values at construction (so -0.0 and +0.0 differ).  A
    taped call always runs ``fn``, so its tape records the nodes, and stores
    the result for the untaped calls that share its state."""

    def __init__(self, fn, params) -> None:
        self.fn, self.params, self.results = fn, params, {}
        self.start = self._bits()

    def _bits(self) -> np.ndarray:
        return np.concatenate([p.value.data for p in self.params], axis=None).view(np.uint64)

    def __call__(self):
        bits = self._bits()
        idx = np.flatnonzero(bits != self.start)
        key = idx.tobytes() + bits[idx].tobytes()
        if ad._TAPE_STACK or key not in self.results:
            self.results[key] = self.fn()
        return self.results[key]


def _param(store, name, shape, rng):
    return store.parameter(name, shape, lambda r, s, d: rng.standard_normal(s).astype(d))


def _sparse(shape, rng, k: int = 6) -> Tensor:
    """Random +-1 projection on a few entries; keeps the scalarized loss
    small so finite differences stay well conditioned."""
    w = np.zeros(shape)
    flat = w.reshape(-1)
    idx = rng.choice(flat.size, size=min(k, flat.size), replace=False)
    flat[idx] = rng.choice([-1.0, 1.0], size=len(idx))
    return Tensor(w)


def _op_checks(rng) -> list:
    checks = []

    def matmul_case(i, m, k, n):
        store = ParamStore(dtype=np.float64, seed=0)
        a = _param(store, "a", (m, k), rng)
        b = _param(store, "b", (k, n), rng)
        w = Tensor(rng.standard_normal((m, n)))
        return (f"op.matmul.{i}", lambda: ad.tsum(ad.mul(ad.matmul(a.value, b.value), w)), [a, b])

    for i, (m, k, n) in enumerate([(5, 4, 3), (2, 7, 2), (6, 1, 5)]):
        checks.append(matmul_case(i, m, k, n))

    def conv_case(i, h, w_, ci, co, k):
        store = ParamStore(dtype=np.float64, seed=0)
        x = _param(store, "x", (h, w_, ci), rng)
        kern = _param(store, "k", (k, k, ci, co), rng)
        bias = _param(store, "b", (co,), rng)
        proj = Tensor(rng.standard_normal((h, w_, co)))
        return (
            f"op.conv2d_{k}x{k}.{i}",
            lambda: ad.tsum(ad.mul(ad.conv2d(x.value, kern.value, bias.value), proj)),
            [x, kern, bias],
        )

    for i, (h, w_, ci, co) in enumerate([(5, 5, 2, 3), (4, 6, 3, 1), (3, 3, 1, 2)]):
        checks.append(conv_case(i, h, w_, ci, co, 3))
    for i, (h, w_, ci, co) in enumerate([(4, 4, 3, 2), (2, 5, 1, 4), (6, 3, 2, 2)]):
        checks.append(conv_case(i, h, w_, ci, co, 1))

    def upsample_case(i, h, w_, c):
        store = ParamStore(dtype=np.float64, seed=0)
        x = _param(store, "x", (h, w_, c), rng)
        proj = Tensor(rng.standard_normal((2 * h, 2 * w_, c)))
        return (f"op.upsample2x.{i}", lambda: ad.tsum(ad.mul(ad.upsample2x(x.value), proj)), [x])

    for i, shape in enumerate([(3, 4, 2), (1, 1, 3), (5, 2, 1)]):
        checks.append(upsample_case(i, *shape))

    def pool_case(i, h, w_, c):
        store = ParamStore(dtype=np.float64, seed=0)
        x = _param(store, "x", (h, w_, c), rng)
        proj = Tensor(rng.standard_normal((h // 2, w_ // 2, c)))
        return (f"op.avgpool2x.{i}", lambda: ad.tsum(ad.mul(ad.avgpool2x(x.value), proj)), [x])

    for i, shape in enumerate([(4, 4, 2), (2, 6, 1), (8, 2, 3)]):
        checks.append(pool_case(i, *shape))

    def softmax_case(i, t, c):
        store = ParamStore(dtype=np.float64, seed=0)
        x = _param(store, "x", (t, c), rng)
        proj = Tensor(rng.standard_normal((t, c)))
        return (f"op.softmax.{i}", lambda: ad.tsum(ad.mul(ad.softmax(x.value, -1), proj)), [x])

    for i, shape in enumerate([(3, 5), (1, 4), (6, 2)]):
        checks.append(softmax_case(i, *shape))

    def broadcast_case(i, t, c):
        store = ParamStore(dtype=np.float64, seed=0)
        x = _param(store, "x", (t, c), rng)
        row = _param(store, "row", (c,), rng)
        proj = Tensor(rng.standard_normal((t, c)))
        return (
            f"op.elementwise_broadcast.{i}",
            lambda: ad.tsum(ad.mul(ad.mul(x.value, ad.relu(row.value)), proj)),
            [x, row],
        )

    for i, shape in enumerate([(4, 3), (2, 6), (5, 5)]):
        checks.append(broadcast_case(i, *shape))

    def mhsa_case(i, t, c, heads):
        store = ParamStore(dtype=np.float64, seed=i + 11)
        attn = MultiHeadAttention(store, "attn", c, heads)
        x = _param(store, "x", (t, c), rng)
        proj = Tensor(rng.standard_normal((t, c)))
        return (f"op.mhsa.{i}", lambda: ad.tsum(ad.mul(attn(x.value), proj)), store.parameters())

    for i, (t, c, heads) in enumerate([(4, 8, 2), (1, 6, 3), (5, 4, 4)]):
        checks.append(mhsa_case(i, t, c, heads))

    return checks


def _block_checks(rng) -> list:
    cfg = tiny_config()
    grammar = GrammarConfig(image_size=cfg.image_size, max_shapes=3)
    vocab = vocabulary_for(grammar)
    sample = generate_scene(17, grammar)
    checks = []

    def text_block():
        store = ParamStore(dtype=np.float64, seed=5)
        enc = TextEncoder(store, cfg, vocab.size)
        tokens = tokenize(sample.expression, vocab, cfg.max_tokens)
        wt = _sparse((cfg.max_tokens, cfg.fusion_width), rng)
        wg = _sparse((cfg.text_global_width,), rng, k=3)

        def f():
            out = enc(tokens)
            return ad.add(ad.tsum(ad.mul(out.f_t, wt)), ad.tsum(ad.mul(out.f_tg, wg)))

        return ("block.text_encoder", f, store.parameters(), 1e-4)

    checks.append(text_block())

    def _fake_feats(local_rng, cfg):
        return ImageFeatures(*(Tensor(local_rng.standard_normal(s)) for s in _feature_shapes(cfg)))

    def neck_block():
        store = ParamStore(dtype=np.float64, seed=7)
        neck = FusionNeck(store, cfg)
        feats = _fake_feats(rng, cfg)
        f_tg = Tensor(rng.standard_normal((cfg.text_global_width,)))
        proj = _sparse((cfg.num_tokens, cfg.fusion_width), rng)
        return ("block.fusion_neck", lambda: ad.tsum(ad.mul(neck(feats, f_tg), proj)), store.parameters(), BLOCK_EPS)

    checks.append(neck_block())

    def query_block():
        store = ParamStore(dtype=np.float64, seed=8)
        gen = QueryGenerator(store, cfg)
        feats = _fake_feats(rng, cfg)
        tokens = tokenize(sample.expression, vocab, cfg.max_tokens)
        text = TextFeatures(
            f_t=Tensor(rng.standard_normal((cfg.max_tokens, cfg.fusion_width))),
            f_tg=Tensor(rng.standard_normal((cfg.text_global_width,))),
        )
        proj = _sparse((cfg.num_queries, cfg.fusion_width), rng)
        return (
            "block.query_generator",
            lambda: ad.tsum(ad.mul(gen(feats, text, tokens).f_q, proj)),
            store.parameters(),
            BLOCK_EPS,
        )

    checks.append(query_block())

    def decoder_block():
        store = ParamStore(dtype=np.float64, seed=9)
        dec = TransformerDecoder(store, cfg)
        f_vt = Tensor(rng.standard_normal((cfg.num_tokens, cfg.fusion_width)))
        f_q = Tensor(rng.standard_normal((cfg.num_queries, cfg.fusion_width)))
        s = cfg.grid_size
        proj = _sparse((s, s, cfg.fusion_width), rng)
        return ("block.decoder", lambda: ad.tsum(ad.mul(dec(f_vt, f_q), proj)), store.parameters(), BLOCK_EPS)

    checks.append(decoder_block())

    def aligner_block():
        store = ParamStore(dtype=np.float64, seed=10)
        gen = MaskGenerator(store, cfg)
        est = QueryEstimator(store, cfg)
        s = cfg.grid_size
        # moderate input scale keeps the mask logits (sums of ~9*Cp products)
        # near unit size, where the central difference is well conditioned
        f_s = Tensor(0.4 * rng.standard_normal((s, s, cfg.fusion_width)))
        f_q = Tensor(0.4 * rng.standard_normal((cfg.num_queries, cfg.fusion_width)))
        proj = _sparse((4 * s, 4 * s), rng)

        def f():
            return ad.tsum(ad.mul(aggregate(gen.project_fp(f_s), *gen.kernel_from_query(f_q), est(f_q)), proj))

        return ("block.aligner", f, store.parameters(), BLOCK_EPS)

    checks.append(aligner_block())
    checks[1:1] = _image_checks(cfg, sample, rng)
    return checks


def _image_checks(cfg, sample, rng) -> list:
    """The four image-encoder heads' checks, fed by one encoder forward per
    parameter state.  Called after every other block's draws, so that the
    heads' projections are the last draws from ``rng``, as in the unshared
    reference (tests/composite_ops.py), and the results match it bit for bit."""
    store = ParamStore(dtype=np.float64, seed=6)
    enc = ImageEncoder(store, cfg)
    img = Tensor(np.asarray(sample.image, dtype=np.float64))
    proj = [_sparse(shape, rng) for shape in _feature_shapes(cfg)]  # f_v2, f_v3, f_v4, f_vg: field order
    params = store.parameters()
    shared = ForwardCache(lambda: [ad.tsum(ad.mul(t, w)) for t, w in zip(vars(enc(img)).values(), proj)], params)
    heads = ("v2", "v3", "v4", "vg")
    return [(f"block.image_encoder.{h}", lambda i=i: shared()[i], params, BLOCK_EPS) for i, h in enumerate(heads)]


def end_to_end_check():
    cfg = tiny_config()
    grammar = GrammarConfig(image_size=cfg.image_size, max_shapes=3)
    vocab = vocabulary_for(grammar)
    sample = generate_scene(23, grammar)
    model = Model(cfg, vocab, seed=12)
    tokens = model.tokenize(sample.expression)
    image = Tensor(np.asarray(sample.image, dtype=np.float64))
    gt = downsample_mask_nearest(sample.gt_mask, (cfg.mask_size, cfg.mask_size))
    params = model.parameters()

    # fixed inputs: each encoder reruns only when one of its own parameters moved
    text = ForwardCache(lambda enc=model.text_encoder: enc(tokens), [p for p in params if p.name.startswith("text.")])
    vision = ForwardCache(lambda enc=model.image_encoder: enc(image), [p for p in params if p.name.startswith("image.")])
    model.text_encoder = lambda _tokens: text()
    model.image_encoder = lambda _image: vision()

    def f():
        bundle = model.forward(image, tokens, mode="full")
        return bce_loss(bundle.y, gt)

    return ("model.end_to_end", f, params, model)


def zero_gradient_parameters(model: Model, f) -> list:
    """Names of parameters untouched by the loss; expected for heads the
    current mode does not exercise."""
    with Tape() as tape:
        out = f()
    model.zero_grad()
    backward(tape, out)
    return sorted(p.name for p in model.parameters() if not np.any(p.gradient))


def run_gradient_suite(e2e_sample_per_param: int = 2):
    """Run all checks; returns (results, zero_grad_names)."""
    rng = np.random.default_rng(42)
    results = []
    for name, f, params in _op_checks(rng):
        start = time.perf_counter()
        err = grad_check(f, params)
        results.append(BlockResult(name, err, time.perf_counter() - start))
    for name, f, params, eps in _block_checks(rng):
        start = time.perf_counter()
        err = grad_check(f, params, eps=eps, sample_per_param=16, rng=np.random.default_rng(3))
        results.append(BlockResult(name, err, time.perf_counter() - start))
    name, f, params, model = end_to_end_check()
    start = time.perf_counter()
    err = grad_check(f, params, eps=BLOCK_EPS, sample_per_param=e2e_sample_per_param, rng=np.random.default_rng(1))
    results.append(BlockResult(name, err, time.perf_counter() - start))
    return results, zero_gradient_parameters(model, f)
