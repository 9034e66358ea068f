"""Loss and evaluation metrics against brute-force oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refseg.autodiff import Tensor
from refseg.data import generate_split, vocabulary_for
from refseg.errors import ConfigError, DimensionError
from refseg.gradcheck import grad_check
from refseg.metrics import (
    EvalReport,
    PRECISION_THRESHOLDS,
    bce_loss,
    downsample_mask_nearest,
    evaluate,
    iou,
    predict_binary_mask,
    report_from_ious,
)
from refseg.model import Model
from refseg.nn import ParamStore


class TestBceLoss:
    def test_saturated_correct_near_zero(self):
        gt = np.zeros((4, 4))
        gt[1:3, 1:3] = 1
        logits = np.where(gt > 0, 100.0, -100.0)
        loss = float(bce_loss(Tensor(logits), gt).data)
        assert loss < 1e-8

    def test_zero_logits_ln2(self, rng):
        gt = (rng.random((5, 5)) > 0.5).astype(np.float64)
        loss = float(bce_loss(Tensor(np.zeros((5, 5))), gt).data)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_direct_formula(self, rng):
        logits = rng.standard_normal((6, 6)) * 3
        gt = (rng.random((6, 6)) > 0.4).astype(np.float64)
        loss = float(bce_loss(Tensor(logits), gt).data)
        p = 1.0 / (1.0 + np.exp(-logits))
        direct = -(gt * np.log(p) + (1 - gt) * np.log(1 - p)).mean()
        assert loss == pytest.approx(direct, rel=1e-12)

    def test_extreme_logits_finite(self):
        gt = np.array([[0.0, 1.0]])
        loss = float(bce_loss(Tensor(np.array([[4000.0, -4000.0]])), gt).data)
        assert np.isfinite(loss) and loss > 100

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 3)))

    def test_gradcheck(self, rng):
        store = ParamStore(dtype=np.float64, seed=0)
        logits = store.parameter(
            "logits", (4, 4), lambda r, s, d: rng.standard_normal(s).astype(d)
        )
        gt = (rng.random((4, 4)) > 0.5).astype(np.float64)
        assert grad_check(lambda: bce_loss(logits.value, gt), [logits]) < 1e-8

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            logits = rng.standard_normal((3, 3)) * 5
            gt = (rng.random((3, 3)) > 0.5).astype(np.float64)
            assert float(bce_loss(Tensor(logits), gt).data) >= 0.0


class TestIou:
    def test_identical_nonempty(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 2:5] = True
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[:2], b[6:] = True, True
        assert iou(a, b) == 0.0

    def test_both_empty_defined_as_one(self):
        z = np.zeros((4, 4), dtype=bool)
        assert iou(z, z) == 1.0

    def test_strip_overlap_one_third(self):
        # two 10x10 squares overlapping in a 5x10 strip: 50 / 150
        a = np.zeros((20, 20), dtype=bool)
        b = np.zeros((20, 20), dtype=bool)
        a[0:10, 0:10] = True
        b[5:15, 0:10] = True
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_matches_counting_oracle(self, rng):
        for _ in range(25):
            a = rng.random((9, 9)) > 0.6
            b = rng.random((9, 9)) > 0.6
            inter = sum(1 for i in range(9) for j in range(9) if a[i, j] and b[i, j])
            union = sum(1 for i in range(9) for j in range(9) if a[i, j] or b[i, j])
            expected = 1.0 if union == 0 else inter / union
            assert iou(a, b) == pytest.approx(expected)


class TestDownUp:
    def test_nearest_downsample_identity_blocks(self):
        gt = np.kron(np.array([[1, 0], [0, 1]], dtype=np.uint8), np.ones((4, 4), dtype=np.uint8))
        small = downsample_mask_nearest(gt, (2, 2))
        assert np.array_equal(small, np.array([[1, 0], [0, 1]], dtype=np.uint8))

    def test_predict_threshold_strictly_positive(self):
        logits = np.zeros((4, 4))
        pred = predict_binary_mask(logits, (8, 8))
        assert not pred.any()  # sigmoid(0) == 0.5 is not > 0.5
        logits[1, 1] = 5.0
        assert predict_binary_mask(logits, (8, 8)).any()


class _StubModel:
    """Returns canned logit maps keyed by expression."""

    dtype = np.float64

    def __init__(self, outputs):
        self.outputs = outputs

    def predict_batch(self, images, expressions, mode="full"):
        assert len(images) == len(expressions)
        return np.stack([self.outputs[e] for e in expressions])


def _mask_to_logits(mask):
    return np.where(mask > 0, 50.0, -50.0)


def _sample(expression, gt):
    from refseg.data import Sample

    return Sample(
        image=np.zeros((gt.shape[0], gt.shape[1], 3), dtype=np.float32),
        expression=expression,
        gt_mask=gt.astype(np.uint8),
        shapes=[],
        target_index=0,
        expression_struct=("attribute", "red", "circle"),
        seed=0,
    )


class TestEvaluate:
    def test_single_image_precision_staircase(self):
        # per-image IoU 0.75: three quarters of an 8x8 block predicted
        gt = np.zeros((16, 16), dtype=np.uint8)
        gt[0:8, 0:8] = 1
        pred = np.zeros((8, 8))
        pred[0:4, 0:3] = 1  # upsampled 2x: 8x6 = 48 of 64 px -> iou 0.75
        model = _StubModel({"e": _mask_to_logits(pred)})
        report = evaluate(model, [_sample("e", gt)])
        assert report.mean_iou == pytest.approx(0.75)
        assert report.precision_at[0.5] == 1.0
        assert report.precision_at[0.6] == 1.0
        assert report.precision_at[0.7] == 1.0
        assert report.precision_at[0.8] == 0.0
        assert report.precision_at[0.9] == 0.0

    def test_two_images_mean_half(self):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[0:4, 0:4] = 1
        hit = _mask_to_logits(downsample_mask_nearest(gt, (4, 4)))
        # equal-area disjoint prediction
        wrong = np.zeros((8, 8), dtype=np.uint8)
        wrong[4:8, 4:8] = 1
        miss = _mask_to_logits(downsample_mask_nearest(wrong, (4, 4)))
        model = _StubModel({"a": hit, "b": miss})
        report = evaluate(model, [_sample("a", gt), _sample("b", gt)])
        assert report.mean_iou == pytest.approx(0.5)
        assert report.sample_count == 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            evaluate(_StubModel({}), [])

    def test_matches_from_scratch_oracle(self, rng):
        samples, outputs = [], {}
        for i in range(6):
            gt = (rng.random((8, 8)) > 0.6).astype(np.uint8)
            pred_small = rng.standard_normal((4, 4))
            expr = f"s{i}"
            outputs[expr] = pred_small
            samples.append(_sample(expr, gt))
        report = evaluate(_StubModel(outputs), samples)

        inters, unions, per = [], [], []
        for s in samples:
            pred = predict_binary_mask(outputs[s.expression], (8, 8))
            g = s.gt_mask.astype(bool)
            i_ = np.logical_and(pred, g).sum()
            u_ = np.logical_or(pred, g).sum()
            inters.append(i_)
            unions.append(u_)
            per.append(1.0 if u_ == 0 else i_ / u_)
        assert report.overall_iou == pytest.approx(sum(inters) / sum(unions))
        assert report.mean_iou == pytest.approx(np.mean(per))
        for t in PRECISION_THRESHOLDS:
            assert report.precision_at[t] == pytest.approx(np.mean([v > t for v in per]))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
    def test_chunks_equal_per_sample_predictions(self, n, tiny_cfg, tiny_grammar):
        """Chunked evaluation over n samples (chunks of EVAL_CHUNK, the last
        one short) gives the report built from per-sample predict_logits."""
        model = Model(dataclasses.replace(tiny_cfg, precision="single"), vocabulary_for(tiny_grammar), seed=2)
        samples = generate_split(4, n, tiny_grammar)
        inters, unions = [], []
        for s in samples:
            pred = predict_binary_mask(model.predict_logits(s.image, s.expression), s.gt_mask.shape)
            g = s.gt_mask.astype(bool)
            inters.append(np.logical_and(pred, g).sum())
            unions.append(np.logical_or(pred, g).sum())
        assert evaluate(model, samples) == report_from_ious(np.array(inters), np.array(unions))

    def test_chunk_with_mixed_image_shapes_rejected(self):
        gt = np.zeros((8, 8), dtype=np.uint8)
        samples = [_sample("a", gt), _sample("a", gt), _sample("a", np.zeros((16, 16), dtype=np.uint8))]
        with pytest.raises(DimensionError, match="sample 2"):
            evaluate(_StubModel({"a": np.zeros((4, 4))}), samples)

    def test_threshold_keys_exact(self):
        report = report_from_ious(np.array([1]), np.array([2]))
        assert set(report.precision_at) == {0.5, 0.6, 0.7, 0.8, 0.9}


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_report_bounds_and_monotonicity(pairs):
    inters = np.array([min(i, u) for i, u in pairs])
    unions = np.array([u for _, u in pairs])
    report = report_from_ious(inters, unions)
    values = [report.overall_iou, report.mean_iou] + list(report.precision_at.values())
    assert all(0.0 <= v <= 1.0 for v in values)
    ordered = [report.precision_at[t] for t in sorted(report.precision_at)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
