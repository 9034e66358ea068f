"""refseg benchmark: four closed-loop workloads, checked outputs, and an
optional traced run with per-layer timings.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every output
check passed and no operation failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_default", "train_trend", "eval_default", "gradcheck")
SETUP_REPS = 3
IMPORT_REPS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# layers of the traced partition: (layer, reports tape_nodes)
TIMED_LAYERS = (
    ("encoders.text", True),
    ("encoders.image", True),
    ("neck", True),
    ("queries", True),
    ("aligner.decoder", True),
    ("aligner.head", True),
    ("nn.mha", True),
    ("metrics.bce", False),
    ("autodiff.toplevel", False),
)
# layers reported as one figure, forward plus backward
SUMMED_LAYERS = {
    "metrics.score_ms": "metrics.score",
    "train.adam_ms": "train.adam",
    "model.glue_ms": "model.glue",
    "trace.uncovered_ms": "uncovered",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of each timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS thread count, pinned before numpy loads (default 1; "
                        "other values are for comparison only)")
    return p.parse_args(argv)


def emit(line: str = "") -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# environment


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads_in_use(),
        "blas_pin": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# one workload


def closed_loop(wl, phase, seconds: float, cal, tracer=None) -> int:
    """Whole rounds back to back until ``seconds`` have passed, the host
    calibrated at every round boundary; with a tracer, the rounds are
    traced and the calibration is not."""
    before = cal.sample()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        rounds = 0
        while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
            n0, busy0 = len(phase.latencies), phase.busy
            wl.round(phase, tracer)
            after = cal.sample(tracer)
            if not wl.calibrates_itself:
                f = cal.factor(before, after)
                phase.norm_latencies.extend(t * f for t in phase.latencies[n0:])
                phase.busy_norm += (phase.busy - busy0) * f
            before = after
            rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rounds


def per_layer_metrics(tracer, traced, untraced, wl, data_ms: dict, spec_names: list) -> dict:
    units = max(traced.units, 1)
    ms = 1e3 / units
    out = {m["name"]: 0.0 for m in spec_names}  # a layer this workload never runs reads 0
    for layer, counts in TIMED_LAYERS:
        out[f"{layer}.fwd_ms"] = tracer.layer_s(layer, "fwd") * ms
        out[f"{layer}.bwd_ms"] = tracer.layer_s(layer, "bwd") * ms
        if counts:
            out[f"{layer}.tape_nodes"] = tracer.layer_ops[layer] / units
    for key, layer in SUMMED_LAYERS.items():
        out[key] = (tracer.layer_s(layer, "fwd") + tracer.layer_s(layer, "bwd")) * ms
    out["nn.mha.calls"] = tracer.span_calls["nn.mha"] / units
    for op, (calls, fwd_s, bwd_s) in tracer.ops.items():
        out[f"autodiff.{op}.calls"] = calls / units
        out[f"autodiff.{op}.fwd_ms"] = fwd_s * ms
        out[f"autodiff.{op}.bwd_ms"] = bwd_s * ms
    out["autodiff.conv2d.f64.fwd_ms"] = tracer.conv_f64_s * ms
    out["autodiff.tape_nodes"] = tracer.tape_nodes / units
    out["model.forward.tape_nodes"] = tracer.forward_ops / max(tracer.forward_calls, 1)
    step_ms = tracer.wall_s * ms
    out["trace.step_ms"] = step_ms
    out["trace.untraced_step_ms"] = 1e3 * untraced.busy / max(untraced.units, 1)
    # compared host-normalized, so a change of host speed between the two
    # phases does not read as tracing cost
    out["trace.overhead_pct"] = 100.0 * (
        (traced.busy_norm / units) / (untraced.busy_norm / max(untraced.units, 1)) - 1.0)
    out["trace.uncovered_pct"] = 100.0 * out["trace.uncovered_ms"] / step_ms
    out.update(data_ms)
    out.update(wl.layer_figures(untraced))
    return out


def run_workload(args, spec: dict) -> int:
    src = ROOT / "src"
    if not (src / "refseg" / "__init__.py").is_file():
        print(f"error: refseg sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np  # noqa: F401  (loads after the BLAS pin)
    import refseg

    from checks import Checks
    from tracer import Tracer
    from workloads import WORKLOADS, Phase

    if Path(refseg.__file__).resolve().parent != (src / "refseg").resolve():
        print(f"error: imported refseg from {refseg.__file__}, not from {src}", file=sys.stderr)
        return 2

    env = environment()
    emit(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in env.items():
        emit(f"env {key} = {value}")

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    checks = Checks()
    untraced, traced, tracer = Phase(), Phase(), None
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        cal = wl.cal
        before = cal.sample()
        imports = [fresh_import_s(src) for _ in range(IMPORT_REPS)]
        after = cal.sample()
        import_s = statistics.median(imports)
        import_norm = import_s * cal.factor(before, after)
        before = after
        setup_times, setup_norm, data_reps = [], [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            after = cal.sample()
            setup_norm.append(setup_times[-1] * cal.factor(before, after))
            before = after
            data_reps.append(getattr(wl, "data_ms", {}))
        data_ms = {k: statistics.median(r[k] for r in data_reps) for k in data_reps[-1]}
        try:
            rounds = closed_loop(wl, untraced, args.seconds, cal)
            emit(f"untraced: {rounds} rounds, {untraced.units} x {wl.unit} in {untraced.busy:.3f} s")
            if args.trace:
                tracer = Tracer()
                rounds = closed_loop(wl, traced, args.seconds, cal, tracer)
                emit(f"traced: {rounds} rounds, {traced.units} x {wl.unit} in {tracer.wall_s:.3f} s")
                covered = sum(tracer.self_s.values())
                checks.add("trace: layer self times plus the uncovered remainder sum to the traced time",
                           abs(covered - tracer.wall_s) <= 1e-6 * tracer.wall_s,
                           f"{1e3 * covered:.3f} of {1e3 * tracer.wall_s:.3f} ms")
                checks.add("trace: every tape node was recorded by a traced op", "other" not in tracer.ops)
            wl.check(checks)
        except Exception as exc:  # an operation raised: report it as a failed operation
            traceback.print_exc()
            untraced.attempted += 1
            untraced.failed += 1
            checks.add("every operation completed", False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()  # unless another run still uses it
        except OSError:
            pass

    for line in checks.lines():
        emit(line)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    correct = not checks.failed and bool(untraced.latencies)
    emit(f"operations: {attempted} {wl.op_noun} attempted, {failed} failed")

    if args.trace:
        names = spec["per_layer"]
        values = per_layer_metrics(tracer, traced, untraced, wl, data_ms, names) if correct else {}
        if correct:
            for miss in tracer.missing:
                emit(f"trace: span target {miss} not found in this refseg")
            extra = sorted(set(values) - {m["name"] for m in names})
            for key in extra:
                if values[key]:
                    emit(f"extra {key} = {values[key]:.6g}")
    else:
        raw = end_to_end(import_s, setup_times, untraced.items, untraced.busy, untraced.latencies,
                         wl.tail(untraced, normalized=False)[0] if correct else 0.0)
        tail, tail_is = wl.tail(untraced, normalized=True) if correct else (0.0, "not measured")
        values = end_to_end(import_norm, setup_norm, untraced.items,
                            untraced.busy_norm, untraced.norm_latencies, tail)
        emit(f"setup: import {import_s:.3f} s (median of {', '.join(f'{t:.3f}' for t in imports)}), "
             f"{SETUP_REPS} set-ups {', '.join(f'{t:.3f}' for t in setup_times)} s")
        emit(f"op_ms_tail is {tail_is}")
        emit(f"raw, before host normalization: {', '.join(f'{k} = {v:.6g}' for k, v in raw.items())}")
        names = spec["end_to_end"]
        for alias, key, unit, scale in ALIASES[args.workload]:
            emit(f"{alias} = {values[key] * scale:.6g} {unit}")

    metrics = {}
    for m in names:
        if m["name"] in values:
            metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
            emit(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if correct and len(metrics) != len(names):
        missing = [m["name"] for m in names if m["name"] not in metrics]
        raise SystemExit(f"error: metrics missing from this run: {missing}")
    emit(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def fresh_import_s(src: Path) -> float:
    """Seconds a fresh interpreter takes to import numpy and refseg; timed
    in child processes so that it can be repeated and taken as a median."""
    code = "import time; t = time.perf_counter(); import numpy, refseg; print(time.perf_counter() - t)"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(proc.stdout)


def end_to_end(import_s, setup_times, items, busy, latencies, tail_s: float) -> dict:
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "items_per_s": items / busy if busy else 0.0,
        "op_ms_p50": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "op_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# workload-specific names printed beside the end-to-end figures:
# (name, metric, unit, scale)
ALIASES = {
    "train_default": (("train_samples_per_s", "items_per_s", "samples/s", 1.0),
                      ("train_step_ms_p50", "op_ms_p50", "ms", 1.0),
                      ("train_step_ms_tail", "op_ms_tail", "ms", 1.0)),
    "train_trend": (("train_samples_per_s", "items_per_s", "samples/s", 1.0),
                    ("train_step_ms_p50", "op_ms_p50", "ms", 1.0),
                    ("train_step_ms_tail", "op_ms_tail", "ms", 1.0)),
    "eval_default": (("eval_samples_per_s", "items_per_s", "samples/s", 1.0),
                     ("predict_ms_p50", "op_ms_p50", "ms", 1.0),
                     ("predict_ms_tail", "op_ms_tail", "ms", 1.0)),
    "gradcheck": (("gradcheck_s", "op_ms_p50", "s", 1e-3),
                  ("gradcheck_blocks_per_s", "items_per_s", "blocks/s", 1.0)),
}


# ---------------------------------------------------------------------------
# all workloads


def run_all(args) -> int:
    """Each workload in its own benchmark process, one after the other, so
    that peak memory and set-up stay per workload."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = all(r is not None for r in results.values())
    combined = {
        "correct": ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}.{k}": v for w, r in results.items() if r for k, v in r["metrics"].items()},
    }
    emit(json.dumps(combined))
    return code if ok else max(code, 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(args.blas_threads)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
