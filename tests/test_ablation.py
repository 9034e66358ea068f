"""Ablation driver structure and equivalences."""

import numpy as np
import pytest

from refseg.ablation import AblationReport, VariantResult, apply_overrides, run_ablation, variant_label
from refseg.data import generate_split, vocabulary_for
from refseg.errors import ConfigError
from refseg.metrics import evaluate
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
