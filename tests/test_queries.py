"""Multi-query generator: dense saliency, gated words, attention, queries."""

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.autodiff import Tensor
from refseg.config import TRAIN_MODES
from refseg.data import generate_split, vocabulary_for
from refseg.encoders import TextFeatures, TokenSequence, tokenize
from refseg.gradcheck import grad_check
from refseg.gradsuite import _sparse as sparse_proj
from refseg.model import Model
from refseg.nn import ParamStore
from refseg.queries import QueryGenerator

from test_neck import make_feats


def build_gen(cfg, seed=11):
    store = ParamStore(dtype=np.float64, seed=seed)
    return QueryGenerator(store, cfg), store


def test_dense_vision_shape(tiny_cfg, rng):
    gen, _ = build_gen(tiny_cfg)
    f_vd = gen.dense_vision(make_feats(tiny_cfg, rng))
    assert f_vd.shape == (tiny_cfg.num_queries, tiny_cfg.num_tokens)


def test_dense_vision_single_query_is_one_map(tiny_cfg, rng):
    import dataclasses

    cfg1 = dataclasses.replace(tiny_cfg, num_queries=1)
    gen, _ = build_gen(cfg1)
    f_vd = gen.dense_vision(make_feats(cfg1, rng))
    assert f_vd.shape == (1, cfg1.num_tokens)


def test_dense_vision_matches_compositional_oracle(tiny_cfg, rng):
    gen, _ = build_gen(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    f_vd = gen.dense_vision(feats)

    relu = lambda a: np.maximum(a, 0)
    proj = lambda x, w: (x.reshape(-1, x.shape[2]) @ w).reshape(x.shape[0], x.shape[1], -1)
    conv3 = lambda x, k, b: _conv_oracle(x, k, b)

    m4 = relu(proj(feats.f_v4.data, gen.fuser.w_v4.value.data))
    m4 = ad.bilinear_resize_array(m4, (2 * m4.shape[0], 2 * m4.shape[1]))
    m3 = np.concatenate(
        [relu(proj(m4, gen.fuser.w_m4.value.data)), relu(proj(feats.f_v3.data, gen.fuser.w_v3.value.data))],
        axis=2,
    )
    v2p = feats.f_v2.data.reshape(feats.f_v2.shape[0] // 2, 2, feats.f_v2.shape[1] // 2, 2, -1).mean(axis=(1, 3))
    m2 = np.concatenate(
        [relu(proj(m3, gen.fuser.w_m3.value.data)), relu(proj(v2p, gen.fuser.w_v2.value.data))],
        axis=2,
    )
    c = tiny_cfg.fusion_width
    f_m = proj(np.concatenate([m2, m3, m4], axis=2), gen.fuser.conv_m.kernel.value.data.reshape(3 * c, c))
    f_m += gen.fuser.conv_m.bias.value.data
    s = f_m.shape[0]
    from refseg.neck import coord_features

    inte = proj(
        np.concatenate([f_m, coord_features(s, s, np.float64).data], axis=2),
        gen.fuser.conv_inte.kernel.value.data.reshape(c + 2, c),
    )
    inte += gen.fuser.conv_inte.bias.value.data
    x = inte
    for i, conv in enumerate(gen.reduce):
        if i > 0:
            x = relu(x)
        x = conv3(x, conv.kernel.value.data, conv.bias.value.data)
    expected = x.reshape(s * s, tiny_cfg.num_queries).T
    assert np.allclose(f_vd.data, expected, atol=1e-10)


def _conv_oracle(x, k, b):
    h, w, ci = x.shape
    kk, _, _, co = k.shape
    p = (kk - 1) // 2
    xp = np.zeros((h + 2 * p, w + 2 * p, ci))
    xp[p : p + h, p : p + w] = x
    out = np.zeros((h, w, co))
    for dy in range(kk):
        for dx in range(kk):
            out += xp[dy : dy + h, dx : dx + w, :] @ k[dy, dx]
    return out + b


def test_zero_vision_gate_zeroes_words(tiny_cfg, rng):
    gen, _ = build_gen(tiny_cfg)
    f_t = Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
    f_tv = gen.fuse_language_global(f_t, Tensor(np.zeros(tiny_cfg.backbone_channels[3])))
    assert np.array_equal(f_tv.data, np.zeros_like(f_tv.data))


def test_ones_gate_is_plain_text_projection(tiny_cfg, rng):
    gen, _ = build_gen(tiny_cfg)
    c4 = tiny_cfg.backbone_channels[3]
    gen.w_vg.value.data[:] = 1.0 / c4
    f_t = Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
    f_tv = gen.fuse_language_global(f_t, Tensor(np.ones(c4)))
    expected = np.maximum(f_t.data @ gen.w_t.value.data, 0)
    assert np.allclose(f_tv.data, expected)


def test_no_fvg_flag_skips_gate(tiny_cfg, rng):
    gen, _ = build_gen(tiny_cfg)
    f_t = Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
    f_vg = Tensor(rng.standard_normal(tiny_cfg.backbone_channels[3]))
    f_tv = gen.fuse_language_global(f_t, f_vg, use_fvg=False)
    assert np.allclose(f_tv.data, np.maximum(f_t.data @ gen.w_t.value.data, 0))


def test_vision_gate_keeps_word_scale_at_init():
    """At init on the trend-fixture config the gated queries must keep the
    scale of the ungated (no_fvg) ones; a gate that zeroes or shrinks most
    word channels makes them 7-10x smaller."""
    from test_acceptance import BENCH_GRAMMAR, BENCH_MODEL

    model = Model(BENCH_MODEL, vocabulary_for(BENCH_GRAMMAR), seed=0)
    rms = lambda a: float(np.sqrt(np.mean(np.square(a, dtype=np.float64))))
    for s in generate_split(3000, 4, BENCH_GRAMMAR):
        tokens = model.tokenize(s.expression)
        text = model.text_encoder(tokens)
        feats = model.image_encoder(Tensor(np.asarray(s.image, dtype=model.dtype)))
        gated = model.query_gen(feats, text, tokens).f_q.data
        plain = model.query_gen(feats, text, tokens, use_fvg=False).f_q.data
        assert 0.5 < rms(gated) / rms(plain) < 2.0


@pytest.mark.parametrize("mode", TRAIN_MODES)
def test_forward_reports_the_attention_its_queries_used(tiny_cfg, tiny_grammar, mode):
    """``MaskBundle.attention`` is the query generator's map as ``mode``
    runs it (``no_fvg`` skips the vision gate), byte for byte."""
    model = Model(tiny_cfg, vocabulary_for(tiny_grammar), seed=0)
    samples = generate_split(5, 2, tiny_grammar)
    image = Tensor(np.stack([s.image for s in samples]).astype(model.dtype))
    tokens = TokenSequence.stack([model.tokenize(s.expression) for s in samples])
    bundle = model.forward(image, tokens, mode=mode)
    feats, text = model.image_encoder(image), model.text_encoder(tokens)
    a = model.query_gen(feats, text, tokens, use_fvg=(mode != "no_fvg")).a.data
    assert a.shape == (2, tiny_cfg.num_queries, tiny_cfg.max_tokens)
    assert bundle.attention.data.tobytes() == a.tobytes()


class TestAttentionMap:
    def test_identical_words_uniform_over_non_pad(self, tiny_cfg, vocab, rng):
        gen, _ = build_gen(tiny_cfg)
        tokens = tokenize("red circle", vocab, tiny_cfg.max_tokens)
        f_vd = Tensor(rng.standard_normal((tiny_cfg.num_queries, tiny_cfg.num_tokens)))
        one_row = rng.standard_normal(tiny_cfg.fusion_width)
        f_tv = Tensor(np.tile(one_row, (tiny_cfg.max_tokens, 1)))
        a = gen.attention_map(f_vd, f_tv, tokens)
        n_real = tokens.eos_position + 1
        assert np.allclose(a.data[:, :n_real], 1.0 / n_real)
        assert np.array_equal(a.data[:, n_real:], np.zeros_like(a.data[:, n_real:]))

    def test_dominant_word_wins(self, tiny_cfg, vocab, rng):
        gen, _ = build_gen(tiny_cfg)
        tokens = tokenize("red circle on the left", vocab, tiny_cfg.max_tokens)
        # construct: identity-ish projections so the dominant word's logit
        # provably exceeds every other word's
        gen.w_a.value.data[...] = np.eye(tiny_cfg.fusion_width)
        gen.w_vd.value.data[...] = np.full((tiny_cfg.num_tokens, tiny_cfg.fusion_width), 0.1)
        f_vd = Tensor(np.abs(rng.standard_normal((tiny_cfg.num_queries, tiny_cfg.num_tokens))))
        f_tv_arr = np.abs(0.01 * rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
        f_tv_arr[3] = 50.0  # word "on"
        a = gen.attention_map(f_vd, Tensor(f_tv_arr), tokens)
        assert np.all(a.data.argmax(axis=1) == 3)

    def test_rows_sum_to_one(self, tiny_cfg, vocab, rng):
        gen, _ = build_gen(tiny_cfg)
        tokens = tokenize("blue square", vocab, tiny_cfg.max_tokens)
        for _ in range(20):
            f_vd = Tensor(rng.standard_normal((tiny_cfg.num_queries, tiny_cfg.num_tokens)))
            f_tv = Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
            a = gen.attention_map(f_vd, f_tv, tokens)
            assert np.abs(a.data.sum(axis=1) - 1).max() < 1e-6
            assert np.all(a.data >= 0)


class TestMakeQueries:
    def test_one_hot_selects_row(self, tiny_cfg, rng):
        gen, _ = build_gen(tiny_cfg)
        f_tv = Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
        a = np.zeros((tiny_cfg.num_queries, tiny_cfg.max_tokens))
        a[:, 4] = 1.0
        f_q = gen.make_queries(Tensor(a), f_tv)
        projected = np.maximum(f_tv.data @ gen.w_tv.value.data, 0)
        for n in range(tiny_cfg.num_queries):
            assert np.allclose(f_q.data[n], projected[4])

    def test_uniform_attention_averages(self, tiny_cfg, rng):
        gen, _ = build_gen(tiny_cfg)
        f_tv = Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
        k = 3
        a = np.zeros((1, tiny_cfg.max_tokens))
        a[0, :k] = 1.0 / k
        f_q = gen.make_queries(Tensor(a), f_tv)
        projected = np.maximum(f_tv.data @ gen.w_tv.value.data, 0)
        assert np.allclose(f_q.data[0], projected[:k].mean(axis=0))

    def test_random_case_matches_oracle(self, tiny_cfg, rng):
        gen, _ = build_gen(tiny_cfg)
        f_tv = Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width)))
        a_arr = rng.random((tiny_cfg.num_queries, tiny_cfg.max_tokens))
        a_arr /= a_arr.sum(axis=1, keepdims=True)
        f_q = gen.make_queries(Tensor(a_arr), f_tv)
        assert np.allclose(f_q.data, a_arr @ np.maximum(f_tv.data @ gen.w_tv.value.data, 0))


def test_full_module_gradcheck(tiny_cfg, vocab, rng):
    gen, store = build_gen(tiny_cfg)
    feats = make_feats(tiny_cfg, rng, scale=0.5)
    tokens = tokenize("red circle on the left", vocab, tiny_cfg.max_tokens)
    text = TextFeatures(
        f_t=Tensor(rng.standard_normal((tiny_cfg.max_tokens, tiny_cfg.fusion_width))),
        f_tg=Tensor(rng.standard_normal(tiny_cfg.text_global_width)),
    )
    proj = sparse_proj((tiny_cfg.num_queries, tiny_cfg.fusion_width), rng)
    err = grad_check(
        lambda: ad.tsum(ad.mul(gen(feats, text, tokens).f_q, proj)),
        store.parameters(),
        eps=1e-4,
        sample_per_param=6,
        rng=rng,
    )
    assert err < 1e-4
