"""Ablation driver structure and equivalences."""

import numpy as np
import pytest

from refseg.ablation import AblationReport, VariantResult, apply_overrides, run_ablation, variant_label
from refseg.data import generate_split, vocabulary_for
from refseg.errors import ConfigError
from refseg.metrics import PRECISION_THRESHOLDS, EvalReport, evaluate
from refseg.train import init_state, train

from test_train import small_train_cfg


def test_variant_labels():
    assert variant_label({"mode": "full"}) == "full"
    assert variant_label({"mode": "fixed_kernel"}) == "fixed_kernel"
    assert variant_label({"num_queries": 4}) == "nq4"


def test_report_get_unknown_variant_raises_config_error():
    report = AblationReport([VariantResult("full", [0], [])])
    assert report.get("full").label == "full"
    with pytest.raises(ConfigError, match="no_fvg"):
        report.get("no_fvg")


def test_apply_overrides_replaces_mode_and_model():
    base = small_train_cfg()
    cfg = apply_overrides(base, {"mode": "no_fvg", "num_queries": 4}, seed=9)
    assert cfg.mode == "no_fvg"
    assert cfg.model.num_queries == 4
    assert cfg.seed == 9
    assert base.mode == "full" and base.model.num_queries == 2


def test_single_variant_equals_plain_run(tiny_grammar):
    vocab = vocabulary_for(tiny_grammar)
    samples = generate_split(60, 4, tiny_grammar)
    base = small_train_cfg(steps=3)

    report = run_ablation(base, [{"mode": "full"}], seeds=[5], vocab=vocab, train_samples=samples)

    cfg = apply_overrides(base, {"mode": "full"}, seed=5)
    state = init_state(cfg, vocab)
    train(cfg, state, samples)
    direct = evaluate(state.model, samples, mode="full")

    row = report.get("full")
    assert row.reports[0].mean_iou == direct.mean_iou
    assert row.reports[0].overall_iou == direct.overall_iou


def test_query_sweep_report_structure(tiny_grammar):
    vocab = vocabulary_for(tiny_grammar)
    samples = generate_split(61, 4, tiny_grammar)
    base = small_train_cfg(steps=2)
    report = run_ablation(
        base,
        [{"num_queries": q} for q in (1, 2, 4)],
        seeds=[0, 1],
        vocab=vocab,
        train_samples=samples,
    )
    labels = [r.label for r in report.results]
    assert labels == ["nq1", "nq2", "nq4"]
    for r in report.results:
        assert len(r.reports) == 2
        assert 0.0 <= r.median_mean_iou <= 1.0
    table = report.to_text_table()
    assert "nq4" in table and "pr@0.9" in table
    records = report.to_records()
    assert any("median_mean_iou" in rec for rec in records)


def test_same_seed_same_data_order_across_variants(tiny_grammar):
    # identical seeds must give identical batch streams regardless of variant
    from refseg.train import batch_indices

    a = [batch_indices(3, 8, 2, s) for s in range(4)]
    b = [batch_indices(3, 8, 2, s) for s in range(4)]
    assert a == b


def _reports(*mean_ious):
    return [EvalReport(0.5, m, {t: 0.25 for t in PRECISION_THRESHOLDS}, 4) for m in mean_ious]


def test_report_gives_paired_deltas_against_full():
    report = AblationReport(
        [
            VariantResult("no_fvg", [0, 1, 2], _reports(0.50, 0.75, 0.25)),
            VariantResult("full", [0, 1, 2], _reports(0.25, 0.75, 0.50)),
            VariantResult("fixed_kernel", [2, 0, 5], _reports(0.125, 0.5, 0.75)),  # seed 5: no pair
            VariantResult("nq4", [7], _reports(0.5)),  # shares no seed with full
        ]
    )
    assert AblationReport(report.results[:1] + report.results[2:]).delta_records() == []  # no full
    expected = []  # the per-seed and median records, as they were before the deltas
    for r in report.results:
        expected += [{"variant": r.label, "seed": seed, **rep.to_dict()} for seed, rep in zip(r.seeds, r.reports)]
        expected.append({"variant": r.label, "median_mean_iou": r.median_mean_iou,
                         "median_overall_iou": r.median_overall_iou})
    records = report.to_records()
    assert records[:-2] == expected
    deltas = records[-2:]
    assert deltas[0] == {
        "variant": "no_fvg", "paired_with": "full", "seeds": [0, 1, 2], "delta_mean_iou": [0.25, 0.0, -0.25],
        "delta_positive": 1, "delta_negative": 1, "delta_min": -0.25, "delta_max": 0.25,
    }
    assert deltas[1] == {
        "variant": "fixed_kernel", "paired_with": "full", "seeds": [2, 0], "delta_mean_iou": [-0.375, 0.25],
        "delta_positive": 1, "delta_negative": 1, "delta_min": -0.375, "delta_max": 0.25,
    }
    table = report.to_text_table()
    main, paired = table.split("\n\n")
    assert main.splitlines()[0].split()[:3] == ["variant", "overall_iou", "mean_iou"]
    assert [line.split() for line in paired.splitlines()[1:]] == [
        ["no_fvg", "0:+0.2500", "1:+0.0000", "2:-0.2500", "1/1", "-0.2500", "+0.2500"],
        ["fixed_kernel", "2:-0.3750", "0:+0.2500", "1/1", "-0.3750", "+0.2500"],
    ]
    assert "\n\n" not in AblationReport(report.results[:1]).to_text_table()
