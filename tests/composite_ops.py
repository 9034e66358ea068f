"""Taped ops the model does not use, kept for tests that build reference
compositions (layer norm as a chain of primitive ops, a composite gradient
check, attention as a chain of taped ops, the mask head as a mask stack and
a weighted sum).  They follow ``refseg.autodiff``'s node protocol.  Also the
gradient suite's image-head and model checks as closures that share no
forward, the reference for the suite's forward reuse."""

import math

import numpy as np

from refseg import autodiff as ad
from refseg.autodiff import Tensor
from refseg.data import GrammarConfig, generate_scene, vocabulary_for
from refseg.encoders import ImageEncoder
from refseg.errors import DimensionError
from refseg.gradsuite import BLOCK_EPS, _sparse, tiny_config
from refseg.metrics import bce_loss, downsample_mask_nearest
from refseg.model import Model
from refseg.nn import ParamStore, linear


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad._check_same_dtype(a, b, "sub")
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        if a.requires_grad:
            ad._accum(a, ad._unbroadcast(g, a.shape))
        if b.requires_grad:
            ad._accum(b, ad._unbroadcast(-g, b.shape))

    ad._record(out, bw, a, b)
    return out


def addc(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data + a.data.dtype.type(c))

    def bw(g):
        ad._accum(a, g)

    ad._record(out, bw, a)
    return out


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y)

    def bw(g):
        ad._accum(a, g * y)

    ad._record(out, bw, a)
    return out


def powc(a: Tensor, p: float) -> Tensor:
    """Elementwise power with a constant exponent (data must support it)."""
    out = Tensor(a.data**p)

    def bw(g):
        ad._accum(a, g * p * a.data ** (p - 1))

    ad._record(out, bw, a)
    return out


def taped_attention(attn, x: Tensor, kv: Tensor = None, key_bias=None):
    """``attn``'s multi-head attention as a chain of taped matmul, add,
    reshape, transpose, mulc and softmax ops: the reference that
    ``ad.attention`` must match byte for byte.  Returns the output and the
    weights."""
    src = x if kv is None else kv
    lead = x.shape[:-2]
    n = len(lead)
    tq, tk, h, d = x.shape[-2], src.shape[-2], attn.heads, attn.head_dim
    keep = tuple(range(n))
    q = ad.transpose(ad.reshape(linear(x, attn.wq, attn.bq), lead + (tq, h, d)), keep + (n + 1, n, n + 2))
    k_t = ad.transpose(ad.reshape(linear(src, attn.wk), lead + (tk, h, d)), keep + (n + 1, n + 2, n))
    v = ad.transpose(ad.reshape(linear(src, attn.wv, attn.bv), lead + (tk, h, d)), keep + (n + 1, n, n + 2))
    logits = ad.mulc(ad.matmul(q, k_t), 1.0 / math.sqrt(d))
    if key_bias is not None:
        bias = np.asarray(key_bias, dtype=x.data.dtype).reshape(lead + (1, 1, tk))
        logits = ad.add(logits, Tensor(bias))
    w = ad.softmax(logits, axis=-1)
    heads = ad.transpose(ad.matmul(w, v), keep + (n + 1, n, n + 2))
    return linear(ad.reshape(heads, lead + (tq, attn.width)), attn.wo, attn.bo), w.data


def taped_aggregate(gen, f_p: Tensor, taps: Tensor, bias: Tensor, scores: Tensor) -> Tensor:
    """The score-weighted mask sum as the chain of taped ops it replaced: one
    N-channel conv over the transposed taps makes the (..., N, H, W) mask
    stack, as ``gen.apply_dynamic_kernel`` did when it was taped, and a
    reshape, mul and tsum add its maps weighted by the scores.  ``gen`` is
    not read.  The reference for ``aligner.aggregate``."""
    n = taps.ndim - 4
    keep = tuple(range(n))
    out = ad.conv2d(f_p, ad.transpose(taps, keep + (n + 1, n + 2, n + 3, n)), bias)
    stack = ad.transpose(out, keep + (n + 2, n, n + 1))
    weights = ad.reshape(scores, scores.shape + (1, 1))
    return ad.tsum(ad.mul(stack, weights), axis=-3)


def unshared_image_checks(cfg, sample, rng) -> list:
    """The four image-encoder head checks with one encoder and one set of
    forwards per head, each head drawing its projection from ``rng`` on its
    first call.  The reference for ``gradsuite._image_checks``."""

    def image_block(head):
        store = ParamStore(dtype=np.float64, seed=6)
        enc = ImageEncoder(store, cfg)
        img = Tensor(np.asarray(sample.image, dtype=np.float64))
        proj = {}

        def f():
            out = enc(img)
            t = {"v2": out.f_v2, "v3": out.f_v3, "v4": out.f_v4, "vg": out.f_vg}[head]
            if "w" not in proj:
                proj["w"] = _sparse(t.shape, rng)
            return ad.tsum(ad.mul(t, proj["w"]))

        return (f"block.image_encoder.{head}", f, store.parameters(), BLOCK_EPS)

    return [image_block(head) for head in ("v2", "v3", "v4", "vg")]


def unshared_end_to_end_check():
    """The model check with both encoders run on every forward.  The
    reference for ``gradsuite.end_to_end_check``."""
    cfg = tiny_config()
    grammar = GrammarConfig(image_size=cfg.image_size, max_shapes=3)
    sample = generate_scene(23, grammar)
    model = Model(cfg, vocabulary_for(grammar), seed=12)
    tokens = model.tokenize(sample.expression)
    image = Tensor(np.asarray(sample.image, dtype=np.float64))
    gt = downsample_mask_nearest(sample.gt_mask, (cfg.mask_size, cfg.mask_size))

    def f():
        return bce_loss(model.forward(image, tokens, mode="full").y, gt)

    return ("model.end_to_end", f, model.parameters(), model)
