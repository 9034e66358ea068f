"""tools/bench_record.py: parsing benchmark output and the slow tier's report."""

import importlib.util
import json
from pathlib import Path


def load_bench_record():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_OUTPUT = "\n".join(
    [
        "workload train_trend  seed 0  seconds 1  trace 0",
        "env numpy = 2.4.6",
        "env blas_threads = 1",
        "check PASS full: all 33 losses finite",
        "check FAIL full: loss falls over 33 steps",
        '{"correct": false, "attempted": 64, "failed": 0, "metrics": {"items_per_s": {"value": 300.0, "unit": "items/s"}}}',
        "workload gradcheck  seed 0  seconds 1  trace 0",
        "env numpy = 2.4.6",
        "env blas_threads = 1",
        "check PASS suite: every block under the bound",
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"items_per_s": {"value": 7.0, "unit": "items/s"}}}',
        json.dumps(
            {
                "correct": False,
                "attempted": 65,
                "failed": 0,
                "metrics": {
                    "train_trend.items_per_s": {"value": 300.0, "unit": "items/s"},
                    "gradcheck.items_per_s": {"value": 7.0, "unit": "items/s"},
                },
            }
        ),
    ]
)


def test_parse_benchmark_reads_env_checks_and_combined_metrics():
    record = load_bench_record().parse_benchmark(BENCH_OUTPUT)
    assert record["env"] == {"numpy": "2.4.6", "blas_threads": "1"}
    assert record["checks"] == {"train_trend": {"PASS": 1, "FAIL": 1}, "gradcheck": {"PASS": 1, "FAIL": 0}}
    assert record["correct"] is False and record["attempted"] == 65
    assert record["metrics"] == {"train_trend.items_per_s": 300.0, "gradcheck.items_per_s": 7.0}


def test_parse_benchmark_without_a_result_line_is_not_correct():
    record = load_bench_record().parse_benchmark("workload train_trend\nTraceback (most recent call last):\n")
    assert record["correct"] is False and record["metrics"] == {}


def test_parse_slow_tier_times_each_criterion():
    junit = """<testsuites><testsuite>
      <testcase classname="tests.test_acceptance" name="test_criterion_7_overfit_desk_config" time="71.24"/>
      <testcase classname="tests.test_acceptance" name="test_criterion_8_aligner_vs_fixed_kernel" time="154.0">
        <failure message="boom"/>
      </testcase>
    </testsuite></testsuites>"""
    stdout = ".PASS criterion 7: mean IoU 0.8768 at step 1000\n.\n"
    criteria = load_bench_record().parse_slow_tier(junit, stdout)
    assert criteria["7"] == {
        "test": "test_criterion_7_overfit_desk_config",
        "wall_s": 71.2,
        "outcome": "passed",
        "report": "mean IoU 0.8768 at step 1000",
    }
    assert criteria["8"]["outcome"] == "failed" and criteria["8"]["report"] is None
