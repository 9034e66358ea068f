"""tools/bench_record.py: parsing benchmark output and the slow tier's report."""

import importlib.util
import json
import subprocess
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


def test_criterion_1_is_recorded_apart_from_the_slow_tier(monkeypatch, tmp_path):
    bench_record = load_bench_record()
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        if "pytest" not in cmd:  # git
            return subprocess.CompletedProcess(cmd, 0, stdout="")
        xml_path = Path(next(a for a in cmd if a.startswith("--junitxml=")).split("=", 1)[1])
        if "tests/test_acceptance.py::test_criterion_1_gradient_suite" in cmd:
            case, stdout = "test_criterion_1_gradient_suite", "PASS criterion 1: 34 blocks, worst x=6.17e-05, 2s\n"
        else:
            case, stdout = "test_criterion_7_overfit_desk_config", ".PASS criterion 7: mean IoU 0.8751 at step 1000\n"
        xml_path.write_text(f'<testsuite><testcase name="{case}" time="2.31"/></testsuite>')
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout)

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "run_benchmark", lambda threads, trace: {"correct": True, "exit_code": 0})
    out = tmp_path / "bench.json"
    assert bench_record.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["correct"] is True
    assert record["slow_tier"]["command"] == "pytest -m slow -s tests/test_acceptance.py"
    assert list(record["slow_tier"]["criteria"]) == ["7"]
    c1 = record["criterion_1"]
    assert c1["command"] == "pytest -s tests/test_acceptance.py::test_criterion_1_gradient_suite"
    assert c1["exit_code"] == 0 and isinstance(c1["wall_s"], float)
    assert c1["criteria"] == {"1": {"test": "test_criterion_1_gradient_suite", "wall_s": 2.3,
                                    "outcome": "passed", "report": "34 blocks, worst x=6.17e-05, 2s"}}
    pytest_runs = [cmd for cmd in commands if "pytest" in cmd]
    assert len(pytest_runs) == 2 and "slow" not in pytest_runs[1]
