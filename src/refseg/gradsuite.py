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
from .autodiff import Tensor
from .config import ModelConfig
from .data import GrammarConfig, generate_scene, vocabulary_for
from .encoders import ImageEncoder, ImageFeatures, TextEncoder, TextFeatures, tokenize
from .errors import ConfigError
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
    """Runs ``fn`` once per state of the entries ``index`` of ``arena``, a
    packed store's arena, that determine ``fn``'s result, keyed exactly by
    the positions and ``uint64`` bits of the entries that differ from their
    values at construction (so -0.0 and +0.0 differ).  A taped call always
    runs ``fn``, so its tape records the nodes, and stores the result for
    its state."""

    def __init__(self, fn, arena: np.ndarray, index=slice(None)) -> None:
        self.fn, self.bits, self.index, self.results = fn, arena.view(np.uint64), index, {}
        self.start = self.bits[index].copy()

    def __call__(self, *args, **kwargs):
        bits = self.bits[self.index]
        idx = np.flatnonzero(bits != self.start)
        key = idx.tobytes() + bits[idx].tobytes()
        if ad._TAPE_STACK or key not in self.results:
            self.results[key] = self.fn(*args, **kwargs)
        return self.results[key]


# Model.forward's stages in its order: (Model attribute, prefix of its own
# parameters); and the earlier stages whose outputs each stage reads.
MODEL_STAGES = (("text_encoder", "text."), ("image_encoder", "image."), ("neck", "neck."),
                ("query_gen", "queries."), ("decoder", "decoder."))
STAGE_READS = {"neck": ("text_encoder", "image_encoder"), "query_gen": ("text_encoder", "image_encoder"),
               "decoder": ("neck", "query_gen")}


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
    """One check ``tsum(op(*inputs) * proj)`` per case; each case draws its
    inputs, then its projection, from ``rng`` in case order.  The cases are
    built per call, so they hold the ``ad`` ops installed at the time."""

    def case(name, op, input_shapes, proj_shape, store=None):
        store = ParamStore(dtype=np.float64, seed=0) if store is None else store
        xs = [_param(store, f"x{j}", shape, rng) for j, shape in enumerate(input_shapes)]
        proj = Tensor(rng.standard_normal(proj_shape))
        return (name, lambda: ad.tsum(ad.mul(op(*(x.value for x in xs)), proj)), store.parameters())

    checks = []
    for i, (m, k, n) in enumerate([(5, 4, 3), (2, 7, 2), (6, 1, 5)]):
        checks.append(case(f"op.matmul.{i}", ad.matmul, [(m, k), (k, n)], (m, n)))
    for k, shapes in [(3, [(5, 5, 2, 3), (4, 6, 3, 1), (3, 3, 1, 2)]), (1, [(4, 4, 3, 2), (2, 5, 1, 4), (6, 3, 2, 2)])]:
        for i, (h, w, ci, co) in enumerate(shapes):
            checks.append(case(f"op.conv2d_{k}x{k}.{i}", ad.conv2d, [(h, w, ci), (k, k, ci, co), (co,)], (h, w, co)))
    for i, (h, w, c) in enumerate([(3, 4, 2), (1, 1, 3), (5, 2, 1)]):
        checks.append(case(f"op.upsample2x.{i}", ad.upsample2x, [(h, w, c)], (2 * h, 2 * w, c)))
    for i, (h, w, c) in enumerate([(4, 4, 2), (2, 6, 1), (8, 2, 3)]):
        checks.append(case(f"op.avgpool2x.{i}", ad.avgpool2x, [(h, w, c)], (h // 2, w // 2, c)))
    for i, shape in enumerate([(3, 5), (1, 4), (6, 2)]):
        checks.append(case(f"op.softmax.{i}", lambda x: ad.softmax(x, -1), [shape], shape))
    for i, (t, c) in enumerate([(4, 3), (2, 6), (5, 5)]):
        checks.append(case(f"op.elementwise_broadcast.{i}", lambda x, row: ad.mul(x, ad.relu(row)),
                           [(t, c), (c,)], (t, c)))
    for i, (t, c, heads) in enumerate([(4, 8, 2), (1, 6, 3), (5, 4, 4)]):
        store = ParamStore(dtype=np.float64, seed=i + 11)
        checks.append(case(f"op.mhsa.{i}", MultiHeadAttention(store, "attn", c, heads), [(t, c)], (t, c), store))
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
    store.pack()
    proj = [_sparse(shape, rng) for shape in _feature_shapes(cfg)]  # f_v2, f_v3, f_v4, f_vg: field order
    params = store.parameters()
    shared = ForwardCache(lambda: [ad.tsum(ad.mul(t, w)) for t, w in zip(vars(enc(img)).values(), proj)], store.arena)
    heads = ("v2", "v3", "v4", "vg")
    return [(f"block.image_encoder.{h}", lambda i=i: shared()[i], params, BLOCK_EPS) for i, h in enumerate(heads)]


def end_to_end_check():
    """The tiny model's loss over all its parameters.  Each ``MODEL_STAGES``
    stage runs in a ``ForwardCache`` keyed on its own parameters and on the
    keys of the stages it reads (``STAGE_READS``), wherever they sit in the
    arena.  Raises ``ConfigError`` for a stage prefix that names no parameter."""
    cfg = tiny_config()
    grammar = GrammarConfig(image_size=cfg.image_size, max_shapes=3)
    vocab = vocabulary_for(grammar)
    sample = generate_scene(23, grammar)
    model = Model(cfg, vocab, seed=12)
    tokens = model.tokenize(sample.expression)
    image = Tensor(np.asarray(sample.image, dtype=np.float64))
    gt = downsample_mask_nearest(sample.gt_mask, (cfg.mask_size, cfg.mask_size))
    params, offsets, keys, caches = model.parameters(), model.store.offsets, {}, []
    for attr, prefix in MODEL_STAGES:
        own = {i for i, p in enumerate(params) if p.name.startswith(prefix)}
        if not own:
            raise ConfigError(f"stage {attr!r}: no parameter name starts with {prefix!r}")
        keys[attr] = sorted(own.union(*(keys[r] for r in STAGE_READS.get(attr, ()))))
        index = np.concatenate([np.arange(offsets[i], offsets[i] + params[i].value.size) for i in keys[attr]])
        caches.append(ForwardCache(getattr(model, attr), model.store.arena, index))
        setattr(model, attr, caches[-1])

    def f():
        bundle = model.forward(image, tokens, mode="full")
        for cache in caches:  # a perturbed state never recurs here: keep only the start's results
            cache.results = {key: out for key, out in cache.results.items() if not key}
        return bce_loss(bundle.y, gt)

    return ("model.end_to_end", f, params, model)


def run_gradient_suite(e2e_sample_per_param: int = 2):
    """Run all checks; returns (results, zero_grad_names).  The zero names are
    the model parameters whose tape gradient in the model check is zero,
    expected for heads the "full" mode does not exercise."""
    rng = np.random.default_rng(42)

    def checks():  # built one group at a time, so a finished group is freed
        for name, f, params in _op_checks(rng):
            yield name, f, params, {}
        for name, f, params, eps in _block_checks(rng):
            yield name, f, params, dict(eps=eps, sample_per_param=16, rng=np.random.default_rng(3))
        name, f, params, _ = end_to_end_check()
        yield name, f, params, dict(eps=BLOCK_EPS, sample_per_param=e2e_sample_per_param, rng=np.random.default_rng(1))

    results = []
    for name, f, params, kwargs in checks():
        start = time.perf_counter()
        err = grad_check(f, params, **kwargs)
        results.append(BlockResult(name, err, time.perf_counter() - start))
    # params is the model check's, the last run; grad_check left their tape gradients in place
    return results, sorted(p.name for p in params if not np.any(p.gradient))
