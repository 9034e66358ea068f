"""Decoder, dynamic kernels, mask generation, scoring, aggregation."""

import dataclasses

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.aligner import (
    MaskGenerator,
    QueryEstimator,
    TransformerDecoder,
    aggregate,
)
from refseg.autodiff import Tensor
from refseg.data import GrammarConfig, generate_scene, generate_split, vocabulary_for
from refseg.model import Model
from refseg.nn import ParamStore

from test_tensor_ops import naive_conv


def build(cls, cfg, seed=9):
    store = ParamStore(dtype=np.float64, seed=seed)
    return cls(store, cfg), store


class TestDecoder:
    def test_output_shape(self, tiny_cfg, rng):
        dec, _ = build(TransformerDecoder, tiny_cfg)
        f_vt = Tensor(rng.standard_normal((tiny_cfg.num_tokens, tiny_cfg.fusion_width)))
        f_q = Tensor(rng.standard_normal((tiny_cfg.num_queries, tiny_cfg.fusion_width)))
        s = tiny_cfg.grid_size
        assert dec(f_vt, f_q).shape == (s, s, tiny_cfg.fusion_width)

    def test_single_query_cross_attention_weight_is_one(self, tiny_cfg, rng, attention_weights):
        cfg1 = dataclasses.replace(tiny_cfg, num_queries=1)
        dec, _ = build(TransformerDecoder, cfg1)
        f_vt = Tensor(rng.standard_normal((cfg1.num_tokens, cfg1.fusion_width)))
        f_q = Tensor(rng.standard_normal((1, cfg1.fusion_width)))
        dec(f_vt, f_q)
        # each layer attends to itself, then across to the queries
        assert len(attention_weights) == 2 * len(dec.layers)
        for weights in attention_weights[1::2]:
            assert np.allclose(weights, 1.0)

    def test_permuted_queries_leave_output_unchanged(self, tiny_cfg, rng):
        cfg4 = dataclasses.replace(tiny_cfg, num_queries=4)
        dec, _ = build(TransformerDecoder, cfg4)
        f_vt = Tensor(rng.standard_normal((cfg4.num_tokens, cfg4.fusion_width)))
        f_q_arr = rng.standard_normal((4, cfg4.fusion_width))
        base = dec(f_vt, Tensor(f_q_arr)).data
        for _ in range(5):
            perm = rng.permutation(4)
            permuted = dec(f_vt, Tensor(f_q_arr[perm])).data
            assert np.abs(base - permuted).max() < 1e-6


class TestMaskGenerator:
    def test_project_fp_shape(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        s = tiny_cfg.grid_size
        f_s = Tensor(rng.standard_normal((s, s, tiny_cfg.fusion_width)))
        f_p = gen.project_fp(f_s)
        assert f_p.shape == (4 * s, 4 * s, tiny_cfg.kernel_channels)

    def test_project_fp_zero_input_gives_bias_map(self, tiny_cfg):
        gen, _ = build(MaskGenerator, tiny_cfg)
        s = tiny_cfg.grid_size
        f_p = gen.project_fp(Tensor(np.zeros((s, s, tiny_cfg.fusion_width))))
        expected = np.broadcast_to(gen.conv_p_b.value.data, f_p.shape)
        assert np.allclose(f_p.data, expected)

    def test_project_fp_matches_compositional_oracle(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        s = tiny_cfg.grid_size
        f_s = rng.standard_normal((s, s, tiny_cfg.fusion_width))
        f_p = gen.project_fp(Tensor(f_s))
        up1 = ad.bilinear_resize_array(f_s, (2 * s, 2 * s))
        mid = naive_conv(up1, gen.conv_p.value.data, gen.conv_p_b.value.data)
        up2 = ad.bilinear_resize_array(mid, (4 * s, 4 * s))
        assert np.allclose(f_p.data, up2, atol=1e-12)

    def test_kernel_round_trip(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        f_q = rng.standard_normal(tiny_cfg.fusion_width)[None]
        taps, bias = gen.kernel_from_query(Tensor(f_q))
        cp = tiny_cfg.kernel_channels
        f_p = np.maximum(f_q @ gen.w_p.value.data + gen.b_p.value.data, 0)
        assert taps.shape == (1, 3, 3, cp) and bias.shape == (1,)
        assert np.array_equal(np.concatenate([taps.data.reshape(1, -1), bias.data[..., None]], axis=-1), f_p)
        assert f_p.size == 9 * cp + 1

    def test_generator_row_maps_to_single_tap(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        f_q = Tensor(rng.standard_normal(tiny_cfg.fusion_width)[None])
        base = gen.kernel_from_query(f_q)[0].data.copy()
        j = 7  # one output coordinate of the kernel generator
        gen.b_p.value.data[j] += 100.0  # force that ReLU active
        bumped = gen.kernel_from_query(f_q)[0].data
        diff = np.abs(bumped - base) > 0
        assert diff.sum() == 1
        assert diff.reshape(-1)[j]

    def test_zero_query_gives_relu_of_generator_bias(self, tiny_cfg):
        gen, _ = build(MaskGenerator, tiny_cfg)
        gen.b_p.value.data[:] = np.linspace(-1, 1, gen.b_p.value.data.size)
        taps, bias = gen.kernel_from_query(Tensor(np.zeros((1, tiny_cfg.fusion_width))))
        cp = tiny_cfg.kernel_channels
        expected = np.maximum(gen.b_p.value.data, 0)
        assert np.array_equal(taps.data.reshape(-1), expected[: 9 * cp])
        assert bias.data[0] == expected[9 * cp]

    def test_apply_zero_kernel_constant_bias(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        cp = tiny_cfg.kernel_channels
        f_p = Tensor(rng.standard_normal((8, 8, cp)))
        mask = gen.apply_dynamic_kernel(f_p, Tensor(np.zeros((1, 3, 3, cp))), Tensor(np.array([2.5])))
        assert mask.shape == (1, 8, 8)
        assert np.allclose(mask.data, 2.5)

    def test_apply_delta_kernel_selects_channel(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        cp = tiny_cfg.kernel_channels
        w = np.zeros((3, 3, cp))
        w[1, 1, 2] = 1.0
        f_p = Tensor(rng.standard_normal((8, 8, cp)))
        mask = gen.apply_dynamic_kernel(f_p, Tensor(w[None]), Tensor(np.array([0.5])))
        assert np.allclose(mask.data[0], f_p.data[:, :, 2] + 0.5)

    def test_apply_matches_naive_loop_exactly(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        cp = tiny_cfg.kernel_channels
        w = rng.standard_normal((3, 3, cp))
        b = rng.standard_normal(1)
        f_p = rng.standard_normal((6, 6, cp))
        mask = gen.apply_dynamic_kernel(Tensor(f_p), Tensor(w[None]), Tensor(b))
        ref = naive_conv(f_p, w[:, :, :, None], b)
        assert np.array_equal(mask.data[0], ref[:, :, 0])

    def test_each_map_of_one_apply_matches_naive_loop_exactly(self, tiny_cfg, rng):
        """N kernels applied in one call give N maps, each the naive conv
        with its own kernel, bit for bit in float64."""
        gen, _ = build(MaskGenerator, tiny_cfg)
        cp = tiny_cfg.kernel_channels
        f_p = rng.standard_normal((8, 8, cp))
        taps = rng.standard_normal((3, 3, 3, cp))
        bias = rng.standard_normal(3)
        stack = gen.apply_dynamic_kernel(Tensor(f_p), Tensor(taps), Tensor(bias))
        assert stack.shape == (3, 8, 8)
        for n in range(3):
            ref = naive_conv(f_p, taps[n, ..., None], bias[n : n + 1])[:, :, 0]
            assert np.array_equal(stack.data[n], ref)


class TestEstimator:
    def test_single_query_scores_one_exactly(self, tiny_cfg, rng):
        cfg1 = dataclasses.replace(tiny_cfg, num_queries=1)
        est, _ = build(QueryEstimator, cfg1)
        s = est(Tensor(rng.standard_normal((1, cfg1.fusion_width))))
        assert s.data[0] == 1.0

    def test_permutation_equivariance(self, tiny_cfg, rng):
        est, _ = build(QueryEstimator, tiny_cfg)
        f_q = rng.standard_normal((tiny_cfg.num_queries, tiny_cfg.fusion_width))
        base = est(Tensor(f_q)).data
        perm = rng.permutation(tiny_cfg.num_queries)
        assert np.abs(base[perm] - est(Tensor(f_q[perm])).data).max() < 1e-12

    def test_scores_sum_to_one(self, tiny_cfg, rng):
        est, _ = build(QueryEstimator, tiny_cfg)
        for _ in range(20):
            s = est(Tensor(rng.standard_normal((tiny_cfg.num_queries, tiny_cfg.fusion_width))))
            assert abs(float(s.data.sum()) - 1.0) < 1e-6
            assert np.all(s.data > 0)


def test_scores_tell_queries_apart_at_init():
    """At init on the trend-fixture config the scores must already differ by
    more than rounding: a scorer that sees only the attention mean of the
    queries gives every query the same score to within 1e-6."""
    from test_acceptance import BENCH_GRAMMAR, BENCH_MODEL

    model = Model(BENCH_MODEL, vocabulary_for(BENCH_GRAMMAR), seed=0)
    for s in generate_split(3000, 4, BENCH_GRAMMAR):
        image = Tensor(np.asarray(s.image, dtype=model.dtype))
        scores = model.forward(image, model.tokenize(s.expression)).scores.data
        assert np.ptp(scores) > 1e-3, scores


class TestAggregate:
    def test_single_mask_identity(self, rng):
        m = rng.standard_normal((8, 8))
        y = aggregate(Tensor(m[None]), Tensor(np.array([1.0])))
        assert np.array_equal(y.data, m)

    def test_equal_scores_identical_masks(self, rng):
        arr = rng.standard_normal((6, 6))
        y = aggregate(Tensor(np.stack([arr] * 4)), Tensor(np.full(4, 0.25)))
        assert np.allclose(y.data, arr)

    def test_matches_weighted_sum_oracle(self, rng):
        masks = rng.standard_normal((3, 5, 7))
        w = rng.random(3)
        w /= w.sum()
        y = aggregate(Tensor(masks), Tensor(w))
        expected = sum(wi * m for wi, m in zip(w, masks))
        assert np.allclose(y.data, expected, atol=1e-12)


class TestFullModel:
    @pytest.fixture
    def setup(self, tiny_cfg, tiny_grammar):
        vocab = vocabulary_for(tiny_grammar)
        sample = generate_scene(31, tiny_grammar)
        model = Model(tiny_cfg, vocab, seed=3)
        image = Tensor(np.asarray(sample.image, dtype=model.dtype))
        tokens = model.tokenize(sample.expression)
        return model, image, tokens

    def test_output_shape(self, setup, tiny_cfg):
        model, image, tokens = setup
        bundle = model.forward(image, tokens)
        m = tiny_cfg.mask_size
        assert bundle.y.shape == (m, m)
        assert len(bundle.masks) == tiny_cfg.num_queries
        assert bundle.scores.shape == (tiny_cfg.num_queries,)

    def test_permuted_queries_invariance(self, setup, rng, tiny_cfg, permuted_queries):
        model, image, tokens = setup
        base = model.forward(image, tokens).y.data
        scale = max(np.abs(base).max(), 1e-12)
        for _ in range(5):
            perm = rng.permutation(tiny_cfg.num_queries)
            with permuted_queries(model, perm):
                permuted = model.forward(image, tokens).y.data
            assert np.abs(base - permuted).max() / scale < 1e-5

    def test_single_query_degeneracy(self, tiny_cfg, tiny_grammar):
        cfg1 = dataclasses.replace(tiny_cfg, num_queries=1)
        vocab = vocabulary_for(tiny_grammar)
        sample = generate_scene(37, tiny_grammar)
        model = Model(cfg1, vocab, seed=5)
        bundle = model.forward(
            Tensor(np.asarray(sample.image, dtype=model.dtype)),
            model.tokenize(sample.expression),
        )
        assert bundle.scores.data[0] == 1.0
        assert np.abs(bundle.y.data - bundle.masks[0].data).max() < 1e-7

    def test_fixed_kernel_mode_single_mask(self, setup):
        model, image, tokens = setup
        bundle = model.forward(image, tokens, mode="fixed_kernel")
        assert len(bundle.masks) == 1
        assert np.array_equal(bundle.y.data, bundle.masks[0].data)

    def test_no_estimator_mode_plain_sum(self, setup):
        model, image, tokens = setup
        bundle = model.forward(image, tokens, mode="no_estimator")
        assert np.array_equal(bundle.scores.data, np.ones_like(bundle.scores.data))
        expected = sum(m.data for m in bundle.masks)
        assert np.allclose(bundle.y.data, expected, atol=1e-12)

    def test_no_fvg_mode_changes_output(self, setup):
        model, image, tokens = setup
        full = model.forward(image, tokens).y.data
        ablated = model.forward(image, tokens, mode="no_fvg").y.data
        assert not np.allclose(full, ablated)

    def test_bundle_weighted_sum_invariant(self, setup):
        model, image, tokens = setup
        bundle = model.forward(image, tokens)
        expected = sum(s * m.data for s, m in zip(bundle.scores.data, bundle.masks))
        assert np.allclose(bundle.y.data, expected, atol=1e-10)


def test_forward_tape_budget(vocab):
    """A default-config forward records at most 165 tape nodes (each
    attention call is one), and the count does not grow with the number of
    heads or queries: each runs as one batched op."""
    from refseg.config import ModelConfig

    sample = generate_scene(5, GrammarConfig())
    counts = {}
    for kw in ({}, {"num_queries": 2}, {"heads": 2}):
        model = Model(dataclasses.replace(ModelConfig(), **kw), vocab, seed=0)
        image = Tensor(np.asarray(sample.image, dtype=model.dtype))
        with ad.Tape() as tape:
            model.forward(image, model.tokenize(sample.expression), mode="full")
        counts[tuple(kw.items())] = len(tape)
    assert counts[()] <= 165
    assert len(set(counts.values())) == 1, counts
