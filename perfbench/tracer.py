"""Span tracer for the benchmark's traced runs.

While installed, it wraps from outside the package the entry points of
refseg's modules, every autodiff op that records a tape node, and
``Tape.record``; ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited.

Time is charged by events.  Whenever a span opens or closes, the time since
the previous event goes to the span on top of the stack, so each layer's
total is its self time (its span minus its child spans), and the totals of
all layers plus the root add up to the traced wall time exactly.  The root
collects the time no layer span covers, such as the caller's loop and the
loop inside ``backward`` between tape nodes.

Ops are a second, orthogonal view: an op's forward time stays in the self
time of the layer that called it, and is also summed per op name.  Each
tape node is wrapped when it is recorded; replaying it during backward is a
span charged to the layer that recorded it, and its time is also summed
per op name.  Ops called while no layer span is open get their own layer,
``autodiff.toplevel``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = "uncovered"
TOPLEVEL = "autodiff.toplevel"
MODEL_GLUE = "model.glue"
DECODER = "aligner.decoder"
HEAD = "aligner.head"

# (module, attribute path, layer).  Model.forward opens as model glue and
# becomes the head once its decoder call returns, so the head is everything
# Model.forward runs after the decoder.
SPANS = [
    ("encoders", "TextEncoder.__call__", "encoders.text"),
    ("encoders", "ImageEncoder.__call__", "encoders.image"),
    ("neck", "FusionNeck.__call__", "neck"),
    ("queries", "QueryGenerator.__call__", "queries"),
    ("aligner", "TransformerDecoder.__call__", DECODER),
    ("aligner", "QueryEstimator.__call__", HEAD),
    ("aligner", "MaskGenerator.project_fp", HEAD),
    ("aligner", "MaskGenerator.kernel_from_query", HEAD),
    ("aligner", "MaskGenerator.apply_dynamic_kernel", HEAD),
    ("aligner", "MaskGenerator.fixed_head", HEAD),
    ("aligner", "aggregate", HEAD),
    ("nn", "MultiHeadAttention.__call__", "nn.mha"),
    ("model", "Model.forward", MODEL_GLUE),
    ("model", "Model.predict_logits", MODEL_GLUE),
    ("metrics", "bce_loss", "metrics.bce"),
    ("metrics", "evaluate", "metrics.score"),
    ("train", "Adam.step", "train.adam"),
]


class Tracer:
    def __init__(self) -> None:
        self.self_s = defaultdict(float)    # (layer, "fwd" | "bwd") -> seconds
        self.span_calls = defaultdict(int)  # layer -> spans opened
        self.layer_ops = defaultdict(int)   # layer -> op calls made in its self time
        # op -> [calls, forward seconds, backward seconds]
        self.ops = defaultdict(lambda: [0, 0.0, 0.0])
        self.conv_f64_s = 0.0
        self.tape_nodes = 0
        self.forward_calls = 0
        self.forward_ops = 0                # op calls inside Model.forward, children included
        self.op_total = 0
        self.missing: list = []
        self._op = None
        self._restore: list = []
        self._root = [ROOT, "fwd", False, 0]
        self._stack = [self._root]
        self._last = 0.0
        self.start = self.stop = 0.0
        self.paused_s = 0.0

    # -- event accounting -------------------------------------------------

    def enter(self, layer: str, phase: str = "fwd", forward: bool = False) -> float:
        now = time.perf_counter()
        top = self._stack[-1]
        self.self_s[(top[0], top[1])] += now - self._last
        self._last = now
        self._stack.append([layer, phase, forward, self.op_total])
        if phase == "fwd":
            self.span_calls[layer] += 1
        return now

    def exit(self) -> float:
        now = time.perf_counter()
        frame = self._stack.pop()
        self.self_s[(frame[0], frame[1])] += now - self._last
        self._last = now
        top = self._stack[-1]
        if frame[2]:
            self.forward_calls += 1
            self.forward_ops += self.op_total - frame[3]
        if frame[0] == DECODER and top[2] and top[0] == MODEL_GLUE:
            top[0] = HEAD
        return now

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, layer: str, forward: bool):
        def wrapped(*args, **kwargs):
            self.enter(layer, forward=forward)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapped

    def _op_wrapper(self, name: str, fn):
        stats = self.ops[name]
        is_conv = name == "conv2d"

        def wrapped(*args, **kwargs):
            outer = self._op
            self._op = name
            at_root = self._stack[-1] is self._root
            if at_root:
                self.enter(TOPLEVEL)
            self.layer_ops[self._stack[-1][0]] += 1
            self.op_total += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                if is_conv and (args[0] if args else kwargs["x"]).data.dtype == np.float64:
                    self.conv_f64_s += dt
                self._op = outer
                if at_root:
                    self.exit()

        return wrapped

    def _record_wrapper(self, record):
        tracer = self

        def wrapped(tape, fn):
            layer = tracer._stack[-1][0]
            stats = tracer.ops[tracer._op or "other"]
            tracer.tape_nodes += 1

            def node():
                t0 = tracer.enter(layer, "bwd")
                try:
                    fn()
                finally:
                    stats[2] += tracer.exit() - t0

            record(tape, node)

        return wrapped

    # -- install / uninstall ---------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Swap a module-level function in every refseg module that bound it,
        so names imported with ``from .x import f`` are traced too."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "refseg" or mod_name.startswith("refseg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        import importlib

        from refseg import autodiff as ad

        for name, fn in list(vars(ad).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == ad.__name__
                and not name.startswith("_")
                and "_record(" in inspect.getsource(fn)
            ):
                self._replace_everywhere(fn, self._op_wrapper(name, fn))
        self._restore.append((ad.Tape, "record", ad.Tape.record))
        ad.Tape.record = self._record_wrapper(ad.Tape.record)

        for mod_name, path, layer in SPANS:
            mod = importlib.import_module(f"refseg.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapped = self._span(original, layer, forward=path == "Model.forward")
            if owner is mod:
                self._replace_everywhere(original, wrapped)
            else:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)

        self.start = self._last = time.perf_counter()
        return self

    def uninstall(self) -> None:
        now = time.perf_counter()
        self.self_s[(ROOT, "fwd")] += now - self._last
        self._last = self.stop = now
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def pause(self) -> None:
        """Stop the clock, e.g. around the benchmark's own calibration."""
        now = time.perf_counter()
        top = self._stack[-1]
        self.self_s[(top[0], top[1])] += now - self._last
        self._last = now

    def resume(self) -> None:
        now = time.perf_counter()
        self.paused_s += now - self._last
        self._last = now

    @property
    def wall_s(self) -> float:
        return self.stop - self.start - self.paused_s

    def layer_s(self, layer: str, phase: str) -> float:
        return self.self_s.get((layer, phase), 0.0)
