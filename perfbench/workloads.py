"""The four closed-loop workloads, driven through refseg's public API.

A workload sets itself up (``setup``, repeated so set-up time can be taken
as a median), then runs whole rounds (``round``) until the run's time is
spent, then checks its outputs (``check``).  In a closed loop each train
step, eval sample or gradient-suite pass starts when the previous one ends.
The program only ever receives generated inputs: a manifest (grammar and
split seeds) and configs derived from the run's ``--seed``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

from refseg import data as rd
from refseg import gradsuite as rg
from refseg import metrics as rm
from refseg import train as rt
from refseg.autodiff import Tape, Tensor
from refseg.config import ModelConfig, TrainConfig
from refseg.model import Model

from calib import Calibrator
from checks import (
    Checks,
    adam_reference,
    first_vs_last_eighth,
    iou_bounds,
    poly_lr,
    report_matches,
    rounding_excess,
    tail_percentile,
)

MODES = ("full", "fixed_kernel", "no_estimator", "no_fvg")
HORIZON = 2000          # lr-schedule length; a run takes far fewer steps
GRAD_BOUND = 1e-4       # finite-difference bound of acceptance criterion 1
CALIBRATE_EVERY_S = 0.25  # gradient-suite block time between two calibrations

# trend-fixture inputs of the acceptance suite (criteria 8 and 9)
TREND_GRAMMAR = rd.GrammarConfig(
    image_size=32,
    min_shapes=2,
    max_shapes=3,
    size_frac_min=0.16,
    size_frac_max=0.24,
    templates=("attribute_side", "relation"),
)
TREND_MODEL = ModelConfig(
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
TREND_SAMPLES = 256


def derive_seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed % 2**64).generate_state(n)]


def now() -> float:
    return time.perf_counter()


def slowest_median(by_input: dict, inputs: str, calls: str) -> tuple:
    """(tail latency, what it is) for operations that repeat the same
    inputs: the highest of the per-input median times."""
    medians = [statistics.median(v) for v in by_input.values()]
    fewest = min(len(v) for v in by_input.values())
    return max(medians), f"the slowest of {len(medians)} {inputs}, median of {fewest} or more {calls} each"


class Phase:
    """What one timed stretch of rounds did.  ``busy`` is the time spent in
    the calls that make up the units (train steps, evaluated samples or
    suite passes), ``latencies`` the per-operation times; the ``norm_``
    fields hold the same times scaled by the host-speed calibration.  Where
    operations repeat the same inputs, ``inputs`` names the input of each
    latency."""

    def __init__(self) -> None:
        self.units = 0
        self.items = 0
        self.busy = 0.0
        self.busy_norm = 0.0
        self.latencies: list = []
        self.norm_latencies: list = []
        self.inputs: list = []
        self.by_mode = defaultdict(list)
        self.attempted = 0
        self.failed = 0


class Workload:
    unit = ""           # what one trace unit and one latency sample are
    op_noun = ""        # what ``attempted`` counts
    min_rounds = 1
    calibrates_itself = False  # a round fills the ``norm_`` fields itself
    calibration = ("mixed", "taps")  # the calibration kernel's parts

    def __init__(self, seed: int, work) -> None:
        self.seed = seed
        self.work = work
        self.cal = Calibrator(self.calibration)
        self.setups = 0
        self.checkpoint_figures = defaultdict(list)

    def _write_dataset(self, manifest: dict, split: str) -> list:
        """Generate, save and load one dataset; the loaded split is what
        the program trains or evaluates on, as ``refseg train`` does."""
        self.setups += 1
        root = self.work / f"data{self.setups}"
        t0 = now()
        splits, grammar, vocab = rd.generate_from_manifest(manifest)
        t1 = now()
        rd.save_dataset(root, splits, grammar, manifest)
        t2 = now()
        samples = rd.load_split(root, split)
        t3 = now()
        generated = sum(len(v) for v in splits.values())
        self.vocab = vocab
        self.data_ms = {
            "data.generate_ms": 1e3 * (t1 - t0) / generated,
            "data.save_ms": 1e3 * (t2 - t1) / generated,
            "data.load_ms": 1e3 * (t3 - t2) / len(samples),
        }
        return samples

    def _time_checkpoint(self, path, cfg, state):
        """Save and load one checkpoint, recording time and size; returns
        what ``load_checkpoint`` returns."""
        t0 = now()
        rt.save_checkpoint(path, cfg, state)
        t1 = now()
        loaded = rt.load_checkpoint(path)
        t2 = now()
        self.checkpoint_figures["train.checkpoint_save_ms"].append(1e3 * (t1 - t0))
        self.checkpoint_figures["train.checkpoint_load_ms"].append(1e3 * (t2 - t1))
        self.checkpoint_figures["train.checkpoint_bytes"].append(float(path.stat().st_size))
        return loaded

    def tail(self, phase, normalized: bool) -> tuple:
        """(tail latency, what it is): the highest whole percentile with at
        least ten operations above it."""
        value, pct, n = tail_percentile(phase.norm_latencies if normalized else phase.latencies)
        return value, f"p{pct} of {n} x {self.unit}" + (" (fewer than 11: the maximum)" if n < 11 else "")

    def layer_figures(self, phase) -> dict:
        """Per-layer figures measured outside the trace."""
        return {k: statistics.median(v) for k, v in self.checkpoint_figures.items()}


# ---------------------------------------------------------------------------
# training


class TrainWorkload(Workload):
    unit = "train step"
    op_noun = "train steps"

    def __init__(self, seed: int, work, trend: bool) -> None:
        super().__init__(seed, work)
        s_train, s_val, s_model = derive_seeds(seed, 3)
        if trend:
            self.modes, self.round_steps, self.min_rounds = MODES, 4, 4
            model_cfg = TREND_MODEL
            self.manifest = rd.grammar_to_pairs(TREND_GRAMMAR)
            self.manifest.update({"split.train.seed": str(s_train), "split.train.count": str(TREND_SAMPLES)})
        else:
            self.modes, self.round_steps, self.min_rounds = ("full",), 2, 8
            model_cfg = ModelConfig()
            self.manifest = rd.default_manifest()
            self.manifest.update({"split.train.seed": str(s_train), "split.val.seed": str(s_val)})
        self.cfgs = {
            m: TrainConfig(model=model_cfg, lr=3e-4, steps=HORIZON, batch_size=4, seed=s_model, mode=m)
            for m in self.modes
        }

    def setup(self) -> None:
        self.samples = self._write_dataset(self.manifest, "train")
        self.states = {m: rt.init_state(cfg, self.vocab) for m, cfg in self.cfgs.items()}
        self.losses = {m: [] for m in self.modes}
        for m in self.modes:  # warm-up: each model's first step
            self._train(m, 1)

    def _train(self, mode: str, steps: int, phase=None, state=None, cfg=None) -> list:
        """Run ``steps`` steps through ``refseg.train.train``; each step is
        timed from the end of the previous one (the first from the call)."""
        state = state or self.states[mode]
        losses = self.losses[mode] if state is self.states[mode] else []
        mark = [now()]

        def log(line: str) -> None:
            t = now()
            losses.append(json.loads(line)["loss"])
            if phase is not None:
                phase.latencies.append(t - mark[0])
                phase.by_mode[mode].append(t - mark[0])
            mark[0] = t

        start = now()
        rt.train(cfg or self.cfgs[mode], state, self.samples, log=log, max_step=state.step + steps)
        if phase is not None:
            phase.busy += now() - start
            phase.units += steps
            phase.items += steps * self.cfgs[mode].batch_size
            phase.attempted += steps
        return losses

    def round(self, phase: Phase, tracer) -> None:
        for m in self.modes:
            self._train(m, self.round_steps, phase)

    def check(self, checks: Checks) -> None:
        for m in self.modes:
            self._check_losses(checks, m)
            self._check_outputs(checks, m)
            self._check_adam(checks, m)
            self._check_checkpoint(checks, m)

    def _check_losses(self, checks: Checks, mode: str) -> None:
        losses = self.losses[mode]
        checks.add(f"{mode}: all {len(losses)} losses finite", np.all(np.isfinite(losses)))
        first, last = first_vs_last_eighth(losses)
        checks.add(f"{mode}: loss falls over {len(losses)} steps", last < first,
                   f"first eighth {first:.4f}, last eighth {last:.4f}")

    def _check_outputs(self, checks: Checks, mode: str) -> None:
        model = self.states[mode].model
        ok = True
        for s in self.samples[:4]:
            b = model.forward(Tensor(np.asarray(s.image, dtype=model.dtype)), model.tokenize(s.expression), mode=mode)
            scores = b.scores.data
            if mode == "fixed_kernel":
                ok &= len(b.masks) == 1
            elif mode == "no_estimator":
                ok &= bool(np.all(scores == 1.0))
            else:
                ok &= abs(float(scores.astype(np.float64).sum()) - 1.0) <= 1e-6
        rule = {"fixed_kernel": "one mask", "no_estimator": "scores exactly 1"}.get(mode, "scores sum to 1 within 1e-6")
        checks.add(f"{mode}: {rule} on 4 samples", ok)

    def _check_adam(self, checks: Checks, mode: str) -> None:
        state, cfg = self.states[mode], self.cfgs[mode]
        opt = state.optimizer
        params = state.model.parameters()
        p0 = {p.name: p.value.data.copy() for p in params}
        m0 = {k: v.copy() for k, v in opt.m.items()}
        v0 = {k: v.copy() for k, v in opt.v.items()}
        t0 = opt.t
        lr = poly_lr(cfg.lr, state.step, cfg.total_steps, cfg.decay_power)
        self._train(mode, 1)
        b1, b2, t = cfg.beta1, cfg.beta2, t0 + 1
        worst, moved = 0.0, 0
        for p in params:
            n = p.name
            g = p.gradient.astype(np.float64)
            p1, m1, v1, upd = adam_reference(p0[n], g, m0[n], v0[n], t, lr, b1, b2, cfg.adam_eps)
            m_scale = b1 * np.abs(m0[n]) + (1 - b1) * np.abs(g)
            v_scale = b2 * v0[n] + (1 - b2) * g * g
            denom = np.sqrt(v1 / (1 - b2**t)) + cfg.adam_eps
            p_scale = np.abs(p1) + lr * (upd + m_scale / (1 - b1**t) / denom)
            worst = max(
                worst,
                rounding_excess(opt.m[n], m1, m_scale),
                rounding_excess(opt.v[n], v1, v_scale),
                rounding_excess(p.value.data, p1, p_scale),
            )
            moved += int(np.count_nonzero(p.value.data != p0[n]))
        checks.add(f"{mode}: Adam step equals numpy recomputation to rounding",
                   worst <= 1.0 and opt.t == t and moved > 0,
                   f"worst error {worst:.3f} of a 16-ulp bound, {moved} entries moved")

    def _check_checkpoint(self, checks: Checks, mode: str) -> None:
        state = self.states[mode]
        loaded_cfg, loaded, _ = self._time_checkpoint(self.work / f"{mode}.eavc", self.cfgs[mode], state)

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        live = {p.name: p.value.data for p in state.model.parameters()}
        back = {p.name: p.value.data for p in loaded.model.parameters()}
        exact = live.keys() == back.keys() and all(
            same(live[n], back[n])
            and same(state.optimizer.m[n], loaded.optimizer.m[n])
            and same(state.optimizer.v[n], loaded.optimizer.v[n])
            for n in live
        )
        exact = exact and loaded.step == state.step and loaded.optimizer.t == state.optimizer.t
        checks.add(f"{mode}: checkpoint round trip bit-identical", exact, f"{len(live)} parameters and moments")
        live_loss = self._train(mode, 1)[-1]
        resumed_loss = self._train(mode, 1, state=loaded, cfg=loaded_cfg)[-1]
        checks.add(f"{mode}: next-step loss after reload bit-identical", live_loss == resumed_loss,
                   f"{live_loss!r} vs {resumed_loss!r}")

    def layer_figures(self, phase: Phase) -> dict:
        out = super().layer_figures(phase)
        out.update({f"model.{m}.step_ms": 1e3 * statistics.median(v) for m, v in phase.by_mode.items()})
        return out


# ---------------------------------------------------------------------------
# evaluation


class EvalWorkload(Workload):
    """Rounds take the val split in chunks of ``CHUNK`` samples, so that the
    host is calibrated every fraction of a second.  Every val sample is
    queried many times in a run, so the tail latency is that of the slowest
    query: the highest of the per-sample median latencies.  A percentile of
    all calls would instead pick out the calls a neighbour on the shared
    host preempted."""

    unit = "eval sample"
    op_noun = "eval samples"
    CHUNK = 8
    min_rounds = 8

    def __init__(self, seed: int, work) -> None:
        super().__init__(seed, work)
        s_val, s_model = derive_seeds(seed, 2)
        self.manifest = {k: v for k, v in rd.default_manifest().items() if not k.startswith("split.train.")}
        self.manifest["split.val.seed"] = str(s_val)
        self.cfg = TrainConfig(model=ModelConfig(), steps=HORIZON, seed=s_model)
        self.report_mismatches: list = []
        self.rounds_checked = 0
        self.next_chunk = 0
        self.ambiguous = 0
        self.last_detail = ""

    def setup(self) -> None:
        """The ``refseg eval`` path: a dataset read from disk and a model
        read from a checkpoint."""
        self.samples = self._write_dataset(self.manifest, "val")
        _, state, _ = self._time_checkpoint(self.work / "eval.eavc", self.cfg, rt.init_state(self.cfg, self.vocab))
        self.model = state.model
        rm.evaluate(self.model, self.samples[:1])  # warm-up
        self.model.predict_logits(self.samples[0].image, self.samples[0].expression)

    def round(self, phase: Phase, tracer) -> None:
        lo = self.next_chunk * self.CHUNK
        chunk = self.samples[lo : lo + self.CHUNK]
        self.next_chunk = (self.next_chunk + 1) % -(-len(self.samples) // self.CHUNK)
        n = len(chunk)
        t0 = now()
        report = rm.evaluate(self.model, chunk)
        phase.busy += now() - t0
        phase.units += n
        phase.items += n
        phase.attempted += n
        if tracer is not None:  # a traced round times evaluate() alone
            return
        bounds = []
        for i, s in enumerate(chunk, lo):
            t = now()
            logits = self.model.predict_logits(s.image, s.expression)
            phase.latencies.append(now() - t)
            phase.inputs.append(i)
            bounds.append(iou_bounds(logits, s.gt_mask))
        ok, detail = report_matches(report, bounds)
        self.rounds_checked += 1
        self.ambiguous += sum(b[4] for b in bounds)
        self.last_detail = detail
        if not ok:
            self.report_mismatches.append(detail)

    def check(self, checks: Checks) -> None:
        checks.add(
            f"EvalReport equals the IoU recomputed from predict_logits in all {self.rounds_checked} rounds",
            self.rounds_checked > 0 and not self.report_mismatches,
            f"{self.ambiguous} pixels within rounding of 0; last round {self.last_detail}",
        )
        model = self.model
        sum_ok, tape_ok = True, True
        for s in self.samples[:8]:
            image = Tensor(np.asarray(s.image, dtype=model.dtype))
            tokens = model.tokenize(s.expression)
            b = model.forward(image, tokens)
            terms = [float(w) * m.data.astype(np.float64) for w, m in zip(b.scores.data, b.masks)]
            ref = np.sum(terms, axis=0)
            scale = np.sum(np.abs(terms), axis=0)
            sum_ok &= rounding_excess(b.y.data, ref, scale) <= 1.0
            with Tape():
                taped = model.forward(image, tokens).y.data
            tape_ok &= taped.dtype == b.y.data.dtype and taped.tobytes() == b.y.data.tobytes()
        checks.add("y equals sum of scores times masks on 8 samples", sum_ok)
        checks.add("taped and untaped forward give bit-identical y on 8 samples", tape_ok)

    def tail(self, phase: Phase, normalized: bool) -> tuple:
        by_input = defaultdict(list)
        for i, t in zip(phase.inputs, phase.norm_latencies if normalized else phase.latencies):
            by_input[i].append(t)
        return slowest_median(by_input, "val samples", "calls")

    def layer_figures(self, phase: Phase) -> dict:
        out = super().layer_figures(phase)
        out["model.predict_ms"] = 1e3 * statistics.median(phase.latencies)
        return out


# ---------------------------------------------------------------------------
# gradient check


class GradcheckWorkload(Workload):
    """``run_gradient_suite`` as acceptance criterion 1 runs it.  Its inputs
    are fixed inside the suite, so the seed only picks the warm-up scene.

    A pass lasts seconds, long enough for the host's speed to change within
    it, so the host is calibrated between its ``grad_check`` calls (one per
    block, wrapped from outside the package) once ``CALIBRATE_EVERY_S`` of
    block time has passed, and each block's time is scaled by the factor of
    the stretch it ran in; the calibration itself is left out of the pass
    time.  Its calibration kernel is the tap loop alone, the pattern of the
    suite's hot path (see calib.py).

    A run holds only three or four passes, too few for a tail percentile, so
    the tail is taken over the blocks, which every pass repeats: the highest
    of the per-block median times, the longest a caller waits for one
    block's verdict."""

    unit = "suite pass"
    op_noun = "gradient blocks"
    min_rounds = 1
    calibrates_itself = True
    calibration = ("taps",)

    def __init__(self, seed: int, work) -> None:
        super().__init__(seed, work)
        self.worst = 0.0
        self.over = 0
        self.blocks: set = set()
        self.zero_flagged = True
        self.block_s = defaultdict(list)  # block -> (raw, normalized) seconds per pass
        self.passes = 0

    def setup(self) -> None:
        cfg = rg.tiny_config()
        grammar = rd.GrammarConfig(image_size=cfg.image_size, max_shapes=3)
        vocab = rd.vocabulary_for(grammar)
        sample = rd.generate_scene(derive_seeds(self.seed, 1)[0], grammar)
        model = Model(cfg, vocab, seed=0)
        model.predict_logits(sample.image, sample.expression)  # warm-up

    def round(self, phase: Phase, tracer) -> None:
        grad_check = rg.grad_check
        blocks = []   # seconds of each grad_check call
        factors = []  # host factor of each block calibrated so far
        cal_s = 0.0
        last = self.cal.sample(tracer)

        def calibrate() -> None:
            nonlocal cal_s, last
            c0 = now()
            after = self.cal.sample(tracer)
            cal_s += now() - c0
            factors.extend([self.cal.factor(last, after)] * (len(blocks) - len(factors)))
            last = after

        def timed_grad_check(*args, **kwargs):
            t0 = now()
            try:
                return grad_check(*args, **kwargs)
            finally:
                blocks.append(now() - t0)
                if sum(blocks[len(factors):]) >= CALIBRATE_EVERY_S:
                    calibrate()

        rg.grad_check = timed_grad_check
        try:
            t0 = now()
            results, zero_names = rg.run_gradient_suite(e2e_sample_per_param=2)
            dt = now() - t0 - cal_s
        finally:
            rg.grad_check = grad_check
        if len(factors) < len(blocks):
            calibrate()
        # time outside the blocks is scaled by the factor of the last block
        dt_norm = sum(b * f for b, f in zip(blocks, factors)) + (dt - sum(blocks)) * factors[-1]
        phase.busy += dt
        phase.busy_norm += dt_norm
        phase.latencies.append(dt)
        phase.norm_latencies.append(dt_norm)
        phase.units += 1
        phase.items += len(results)
        phase.attempted += len(results)
        over = sum(1 for r in results if not r.max_rel_err < GRAD_BOUND)  # NaN counts as over
        phase.failed += over
        self.over += over
        self.worst = max([self.worst] + [r.max_rel_err for r in results if r.max_rel_err < GRAD_BOUND])
        self.blocks.update(r.name for r in results)
        self.zero_flagged &= "aligner.fixed.kernel" in zero_names
        if tracer is None:
            self.passes += 1
            for r, seconds, f in zip(results, blocks, factors):
                self.block_s[r.name].append((seconds, seconds * f))

    def check(self, checks: Checks) -> None:
        checks.add(f"all {len(self.blocks)} blocks under the {GRAD_BOUND:g} bound in every pass",
                   self.over == 0, f"{self.over} over the bound, worst of the rest {self.worst:.2e}")
        checks.add("aligner.fixed.kernel flagged as zero-gradient in every pass", self.zero_flagged)

    def tail(self, phase: Phase, normalized: bool) -> tuple:
        by_block = {name: [norm if normalized else raw for raw, norm in v] for name, v in self.block_s.items()}
        return slowest_median(by_block, "gradient blocks", "passes")

    def layer_figures(self, phase: Phase) -> dict:
        """Per-pass seconds by block group, the calibration left out."""
        groups = {"gradsuite.ops_s": "op", "gradsuite.blocks_s": "block", "gradsuite.e2e_s": "model"}
        return {
            key: sum(raw for name, v in self.block_s.items() if name.split(".")[0] == g for raw, _ in v)
            / max(self.passes, 1)
            for key, g in groups.items()
        }


WORKLOADS = {
    "train_default": lambda seed, work: TrainWorkload(seed, work, trend=False),
    "train_trend": lambda seed, work: TrainWorkload(seed, work, trend=True),
    "eval_default": EvalWorkload,
    "gradcheck": GradcheckWorkload,
}
