"""Decoder, dynamic kernels, mask generation, scoring, aggregation."""

import dataclasses
import functools

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
from refseg.errors import DimensionError
from refseg.data import GrammarConfig, generate_scene, generate_split, vocabulary_for
from refseg.model import Model
from refseg.nn import ParamStore

from composite_ops import taped_aggregate
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

    def test_float32_maps_are_the_double_loop_rounded_once(self, tiny_cfg, rng):
        """Float32 maps are float32 and byte-equal to the naive loop over
        the float64-cast inputs, rounded once to float32, unbatched and at
        B=2, for 1 to 4 kernels of 2 to 16 channels on odd map sizes."""
        gen, _ = build(MaskGenerator, tiny_cfg)
        sizes = [(5, 7), (7, 3), (3, 9), (9, 5)]
        for lead in ((), (2,)):
            for n in range(1, 5):
                for i, cp in enumerate((2, 4, 8, 16)):
                    h, w = sizes[(i + n) % 4]
                    f_p, taps, bias = (
                        rng.standard_normal(s).astype(np.float32)
                        for s in (lead + (h, w, cp), lead + (n, 3, 3, cp), lead + (n,))
                    )
                    stack = gen.apply_dynamic_kernel(Tensor(f_p), Tensor(taps), Tensor(bias)).data
                    assert stack.dtype == np.float32 and stack.shape == lead + (n, h, w)
                    for j in np.ndindex(*lead):
                        k64 = np.moveaxis(taps[j], 0, -1).astype(np.float64)
                        ref = naive_conv(f_p[j].astype(np.float64), k64, bias[j].astype(np.float64))
                        expected = np.moveaxis(ref, -1, 0).astype(np.float32)
                        assert stack[j].tobytes() == expected.tobytes()

    def test_apply_records_no_tape_node(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        cp = tiny_cfg.kernel_channels
        inputs = [
            Tensor(rng.standard_normal(s), requires_grad=True)
            for s in ((2, 6, 5, cp), (2, 3, 3, 3, cp), (2, 3))
        ]
        with ad.Tape() as tape:
            stack = gen.apply_dynamic_kernel(*inputs)
        assert len(tape) == 0 and not stack.requires_grad


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


def _head_inputs(rng, lead, n, dtype, h=8, w=7, cp=4):
    """A map, N non-negative kernels (the generator's ReLU makes them so),
    their biases and softmax scores, as the model's head receives them."""
    logits = rng.standard_normal(lead + (n,))
    scores = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    arrays = (
        rng.standard_normal(lead + (h, w, cp)),
        0.3 * np.abs(rng.standard_normal(lead + (n, 3, 3, cp))),
        np.abs(rng.standard_normal(lead + (n,))),
        scores,
    )
    return [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]


def _weighted_terms(gen, f_p, taps, bias, scores):
    """The float64 terms s_n * m_n of each kernel's mask, (..., N, H, W)."""
    stack = gen.apply_dynamic_kernel(f_p, taps, bias).data.astype(np.float64)
    return scores.data.astype(np.float64)[..., None, None] * stack


class TestAggregate:
    """``aggregate`` runs the head as one conv with the score-weighted kernel;
    ``composite_ops.taped_aggregate``, the mask stack and its weighted sum,
    is the reference."""

    def test_single_mask_identity(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        f_p, taps, bias, _ = _head_inputs(rng, (), 1, np.float64)
        y = aggregate(f_p, taps, bias, Tensor(np.array([1.0])))
        m = gen.apply_dynamic_kernel(f_p, taps, bias).data[0]
        assert np.abs(y.data - m).max() <= 1e-12 * np.abs(m).max()

    def test_equal_scores_identical_masks(self, tiny_cfg, rng):
        gen, _ = build(MaskGenerator, tiny_cfg)
        f_p, taps, bias, _ = _head_inputs(rng, (), 1, np.float64)
        four = (Tensor(np.repeat(t.data, 4, axis=0)) for t in (taps, bias))
        y = aggregate(f_p, *four, Tensor(np.full(4, 0.25)))
        m = gen.apply_dynamic_kernel(f_p, taps, bias).data[0]
        assert np.abs(y.data - m).max() <= 1e-12 * np.abs(m).max()

    def test_matches_weighted_sum_oracle(self, tiny_cfg, rng):
        """float64 y is within 1e-12 of the float64 sum of s_n * m_n, and
        float32 y within 16 float32 roundings of the sum of |s_n * m_n|,
        relative to that sum at each pixel."""
        gen, _ = build(MaskGenerator, tiny_cfg)
        for trial in range(20):
            lead = () if trial % 2 else (3,)
            inputs64 = _head_inputs(rng, lead, 8, np.float64)
            for dtype, bound in ((np.float64, 1e-12), (np.float32, 16 * np.finfo(np.float32).eps)):
                inputs = [Tensor(t.data.astype(dtype)) for t in inputs64]
                y = aggregate(*inputs).data
                assert y.dtype == dtype and y.shape == lead + (8, 7)
                terms = _weighted_terms(gen, *(Tensor(t.data.astype(np.float64)) for t in inputs))
                err = np.abs(y.astype(np.float64) - terms.sum(axis=-3))
                assert np.all(err <= bound * np.abs(terms).sum(axis=-3)), (trial, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["full", "no_estimator"])
    def test_batched_equals_single_bit_for_bit(self, rng, dtype, mode):
        f_p, taps, bias, scores = _head_inputs(rng, (4,), 8, dtype, h=16, w=16, cp=16)
        if mode == "no_estimator":
            scores = Tensor(np.ones((4, 8), dtype=dtype))
        batched = aggregate(f_p, taps, bias, scores).data
        for j in range(4):
            single = aggregate(*(Tensor(t.data[j]) for t in (f_p, taps, bias, scores))).data
            assert batched[j].tobytes() == single.tobytes(), j

    @pytest.mark.parametrize("mode", ["full", "no_estimator"])
    def test_taped_output_and_gradients_match_chain(self, tiny_cfg, rng, mode):
        gen, _ = build(MaskGenerator, tiny_cfg)
        inputs = _head_inputs(rng, (2,), 3, np.float64)
        if mode == "no_estimator":
            inputs[3] = Tensor(np.ones((2, 3)))
        proj = Tensor(rng.standard_normal((2, 8, 7)))
        outs = []
        for head in (aggregate, functools.partial(taped_aggregate, gen)):
            for t in inputs:
                t.grad = None
            with ad.Tape() as tape:
                y = head(*inputs)
                loss = ad.tsum(ad.mul(y, proj))
            ad.backward(tape, loss)
            outs.append([y.data] + [t.grad for t in inputs])
        for name, g, ref in zip(("y", "f_p", "taps", "bias", "scores"), *outs):
            if ref is None:
                assert g is None and mode == "no_estimator", name
                continue
            assert g.shape == ref.shape and np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_mismatched_shapes_rejected(self, rng):
        f_p, taps, bias, scores = _head_inputs(rng, (), 3, np.float64)
        with pytest.raises(DimensionError):
            aggregate(f_p, taps, bias, Tensor(scores.data[:2]))
        with pytest.raises(DimensionError):
            aggregate(Tensor(f_p.data[..., :2]), taps, bias, scores)


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

    def test_forward_runs_no_mask_stack_until_masks_are_read(self, setup, tiny_cfg, monkeypatch):
        """y comes from one 1-channel conv per sample: no forward runs the
        N_q-channel conv of the mask stack, the model's only conv with a
        kernel per sample.  The first read of ``masks`` runs it once,
        untaped."""
        model, image, tokens = setup
        kernels, applied = [], []
        conv, apply = ad.conv2d, MaskGenerator.apply_dynamic_kernel

        def recording_conv(x, kernel, *args, **kwargs):
            kernels.append(kernel.shape)
            return conv(x, kernel, *args, **kwargs)

        def recording_apply(gen, f_p, taps, bias):
            applied.append(taps.shape)
            return apply(gen, f_p, taps, bias)

        monkeypatch.setattr(ad, "conv2d", recording_conv)
        monkeypatch.setattr(MaskGenerator, "apply_dynamic_kernel", recording_apply)
        for mode in ("full", "no_estimator", "no_fvg"):
            with ad.Tape() as tape:
                bundle = model.forward(image, tokens, mode=mode)
                nodes = len(tape)
                assert not applied and kernels and all(len(k) == 4 for k in kernels), kernels
                masks = bundle.masks
                assert len(tape) == nodes
            assert applied == [(tiny_cfg.num_queries, 3, 3, tiny_cfg.kernel_channels)]
            assert len(masks) == tiny_cfg.num_queries and bundle.masks is masks
            kernels.clear()
            applied.clear()

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
