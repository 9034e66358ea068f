"""Write one measurement record, ``BENCH_<n>.json``, for the current tree.

It runs the benchmark over all four workloads three times:

- end to end (``--trace 0``) with BLAS pinned to one thread, the setting
  every benchmark comparison uses;
- end to end with two BLAS threads, which keeps the cost of
  oversubscribing the cores visible;
- per layer (``--trace 1``) with one BLAS thread.

Then it runs the slow acceptance tier once and records each criterion's
wall time (its set-up included, so criterion 8 carries the trend fixture
that criterion 9 reuses) and the line it printed, and does the same for
criterion 1, the gradient suite, in a pytest run of its own (under
``criterion_1``, apart from the slow tier's).  Run it from the repository
root:

    python3 tools/bench_record.py                 # writes the next BENCH_<n>.json
    python3 tools/bench_record.py --out bench.json

Every record uses the same seed and run length, so that each one compares
with the last.

The record names the git commit it ran on, whether the tree had local
changes, and a SHA-256 over ``src/`` so that a record made before a commit
still identifies the code it measured.  A run whose benchmark fails a check
or whose acceptance tests fail is still written, with ``correct`` false and
the exit code of the failing command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, --blas-threads, --trace)
RUNS = (("e2e_blas1", 1, 0), ("e2e_blas2", 2, 0), ("layers_blas1", 1, 1))
SEED = 0
SECONDS = 20.0  # timed phase of each benchmark run


def parse_benchmark(stdout: str) -> dict:
    """The environment, the check lines and the combined metrics of one
    ``perfbench/run.py --workload all`` output."""
    env: dict = {}
    checks: dict = {}
    workload = None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("env ") and workload is not None:
            key, _, value = line[len("env "):].partition(" = ")
            env.setdefault(key, value)
        elif line.startswith("check ") and workload is not None:
            verdict = line.split()[1]
            tally = checks.setdefault(workload, {"PASS": 0, "FAIL": 0})
            tally[verdict] = tally.get(verdict, 0) + 1
    lines = stdout.strip().splitlines()
    combined = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    metrics = {k: v["value"] for k, v in combined["metrics"].items()} if combined else {}
    return {
        "env": env,
        "checks": checks,
        "correct": bool(combined and combined["correct"]),
        "attempted": combined["attempted"] if combined else 0,
        "failed": combined["failed"] if combined else 0,
        "metrics": metrics,
    }


def run_benchmark(blas_threads: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace), "--blas-threads", str(blas_threads)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    record = parse_benchmark(proc.stdout)
    record.update(command=" ".join(cmd[1:]), exit_code=proc.returncode,
                  wall_s=round(time.perf_counter() - start, 1))
    return record


def parse_slow_tier(junit_xml: str, stdout: str) -> dict:
    """Per criterion: the wall time pytest reports (set-up, call and
    tear-down), the outcome and the ``PASS criterion`` line it printed."""
    # not anchored: with -q -s a line starts with the previous test's "."
    printed = dict(re.findall(r"PASS criterion (\d+): (.*)", stdout))
    criteria = {}
    for case in ET.fromstring(junit_xml).iter("testcase"):
        m = re.match(r"test_criterion_(\d+)_", case.get("name", ""))
        if not m:
            continue
        failed = case.find("failure") is not None or case.find("error") is not None
        criteria[m.group(1)] = {
            "test": case.get("name"),
            "wall_s": round(float(case.get("time", 0.0)), 1),
            "outcome": "failed" if failed else ("skipped" if case.find("skipped") is not None else "passed"),
            "report": printed.get(m.group(1)),
        }
    return criteria


def run_acceptance(*selection: str) -> dict:
    """One pytest run of the acceptance tests that ``selection`` picks: its
    wall time and, per criterion, what ``parse_slow_tier`` reads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        xml_path = Path(work) / "acceptance.xml"
        cmd = [sys.executable, "-m", "pytest", *selection, "-q", "-p", "no:cacheprovider", f"--junitxml={xml_path}"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        wall_s = round(time.perf_counter() - start, 1)
        criteria = parse_slow_tier(xml_path.read_text(), proc.stdout) if xml_path.exists() else {}
    return {"command": " ".join(["pytest", *selection]), "exit_code": proc.returncode,
            "wall_s": wall_s, "criteria": criteria}


def run_slow_tier() -> dict:
    return run_acceptance("-m", "slow", "-s", "tests/test_acceptance.py")


def run_criterion_1() -> dict:
    """The gradient suite's gate alone: it is not in the slow tier."""
    return run_acceptance("-s", "tests/test_acceptance.py::test_criterion_1_gradient_suite")


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


def next_record_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="record path (default: the next free BENCH_<n>.json)")
    args = ap.parse_args(argv)
    out = args.out or next_record_path()

    record = {
        "commit": git("rev-parse", "HEAD"),
        "local_changes": bool(git("status", "--porcelain", "--", "src", "tools", "perfbench")),
        "src_sha256": source_digest(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": SEED,
        "seconds": SECONDS,
        "benchmark": {},
    }
    for label, threads, trace in RUNS:
        print(f"bench_record: {label}", file=sys.stderr, flush=True)
        record["benchmark"][label] = run_benchmark(threads, trace)
    print("bench_record: slow tier", file=sys.stderr, flush=True)
    record["slow_tier"] = run_slow_tier()
    print("bench_record: criterion 1", file=sys.stderr, flush=True)
    record["criterion_1"] = run_criterion_1()
    record["correct"] = (
        all(r["correct"] and r["exit_code"] == 0 for r in record["benchmark"].values())
        and record["slow_tier"]["exit_code"] == 0
        and record["criterion_1"]["exit_code"] == 0
    )
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
