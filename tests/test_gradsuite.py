"""The gradient suite's forward reuse: ``gradsuite.ForwardCache`` is a pure
cache, so the suite gives the results of closures that share no forward
(``composite_ops.unshared_image_checks`` and ``unshared_end_to_end_check``)
while each encoder, and each later model stage, runs once per state of its
slice of the parameter arena."""

import re
import runpy
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg import gradsuite
from refseg.autodiff import Tape, backward
from refseg.aligner import TransformerDecoder
from refseg.encoders import ImageEncoder, TextEncoder
from refseg.errors import ConfigError
from refseg.gradsuite import ForwardCache, run_gradient_suite
from refseg.neck import FusionNeck
from refseg.nn import ParamStore, zeros_init
from refseg.queries import QueryGenerator

from composite_ops import unshared_end_to_end_check, unshared_image_checks

SUITE_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "suite_digest.py"
HEADS = [f"block.image_encoder.{h}" for h in ("v2", "v3", "v4", "vg")]
STAGE_CLASSES = (TextEncoder, ImageEncoder, FusionNeck, QueryGenerator, TransformerDecoder)


def packed(values):
    """A float64 store holding one parameter ``p`` set to ``values``, packed
    into its arena; returns (store, p)."""
    store = ParamStore(dtype=np.float64, seed=None)
    p = store.parameter("p", np.shape(values), zeros_init)
    store.pack()
    p.value.data[...] = values
    return store, p


def test_cache_key_tells_signed_zeros_apart():
    store, p = packed(np.zeros(3))
    runs = []
    cache = ForwardCache(lambda: runs.append(p.value.data.tobytes()) or len(runs), store.arena)
    assert cache() == 1 and cache() == 1
    p.value.data[1] = -0.0
    assert cache() == 2
    p.value.data[1] = 0.0
    assert cache() == 1
    p.value.data[1] = -0.0
    assert cache() == 2 and len(runs) == 2


def test_taped_call_never_reads_the_cache():
    store, p = packed(np.array([1.0, -2.0]))
    runs = []

    def fn():
        runs.append(1)
        return ad.tsum(ad.mul(p.value, p.value))

    cache = ForwardCache(fn, store.arena)
    untaped = cache()
    outs = []
    for _ in range(2):
        with Tape() as tape:
            outs.append(cache())
        assert len(tape) == 2
    assert len(runs) == 3 and outs[0] is not untaped and outs[1] is not outs[0]
    p.zero_grad()
    backward(tape, outs[1])
    assert np.array_equal(p.gradient, [2.0, -4.0])
    assert cache() is outs[1]  # a taped result serves the untaped calls at its state


@pytest.fixture(scope="module")
def logged_suite():
    """One suite pass that logs, for every untaped call of an encoder or a
    later cached model stage, the check it ran in and the parameters of that
    check that differed from their values when the check began (name and
    bytes)."""
    checks = []  # (params, their bytes when the check began)
    calls = defaultdict(list)  # (stage class, check index) -> changed params per call
    real_grad_check = gradsuite.grad_check

    def grad_check(f, params, **kwargs):
        checks.append((params, [p.value.data.tobytes() for p in params]))
        return real_grad_check(f, params, **kwargs)

    def logged(cls):
        call = cls.__call__

        def wrapper(self, *args, **kwargs):
            if not ad._TAPE_STACK:
                params, start = checks[-1]
                changed = tuple((p.name, p.value.data.tobytes()) for p, s in zip(params, start)
                                if p.value.data.tobytes() != s)
                calls[cls.__name__, len(checks) - 1].append(changed)
            return call(self, *args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradsuite, "grad_check", grad_check)
        for cls in STAGE_CLASSES:
            mp.setattr(cls, "__call__", logged(cls))
        results, zero_names = run_gradient_suite(e2e_sample_per_param=2)
    return results, zero_names, [params for params, _ in checks], calls


def test_suite_equals_unshared_closures(logged_suite, monkeypatch):
    results, zero_names, _, _ = logged_suite
    monkeypatch.setattr(gradsuite, "_image_checks", unshared_image_checks)
    monkeypatch.setattr(gradsuite, "end_to_end_check", unshared_end_to_end_check)
    ref_results, ref_zero_names = run_gradient_suite(e2e_sample_per_param=2)
    assert len(results) == 34
    assert [(r.name, r.max_rel_err) for r in results] == [(r.name, r.max_rel_err) for r in ref_results]
    assert zero_names == ref_zero_names


def test_image_heads_run_one_encoder_forward_per_parameter_state(logged_suite):
    results, _, params, calls = logged_suite
    index = {r.name: i for i, r in enumerate(results)}
    states = calls["ImageEncoder", index[HEADS[0]]]
    # every perturbed entry, at +eps and at -eps, is one state, run once
    assert len(states) == len(set(states)) == 2 * sum(min(16, p.value.size) for p in params[index[HEADS[0]]])
    assert all(len(changed) == 1 for changed in states)
    for head in HEADS[1:]:
        assert params[index[head]] == params[index[HEADS[0]]]  # the same Parameter objects
        assert calls["ImageEncoder", index[head]] == []


# each model-check stage's own parameter prefix, and the prefixes of the
# parameters its cache is keyed on: its own and those of every stage whose
# output reaches it
RANGES = {
    "text.": ("text.",),
    "image.": ("image.",),
    "neck.": ("text.", "image.", "neck."),
    "queries.": ("text.", "image.", "queries."),
    "decoder.": ("text.", "image.", "neck.", "queries.", "decoder."),
}


@pytest.mark.parametrize(
    "cls, prefix",
    [
        ("TextEncoder", "text."),
        ("ImageEncoder", "image."),
        ("FusionNeck", "neck."),
        ("QueryGenerator", "queries."),
        ("TransformerDecoder", "decoder."),
    ],
)
def test_model_check_encoders_run_only_for_their_own_parameters(logged_suite, cls, prefix):
    """Each cached stage runs untaped once per distinct state of the
    parameters it is keyed on, and only with one of them perturbed."""
    results, _, params, calls = logged_suite
    i = next(i for i, r in enumerate(results) if r.name == "model.end_to_end")
    states = calls[cls, i]
    in_range = [p for p in params[i] if p.name.startswith(RANGES[prefix])]
    assert len(states) == len(set(states)) == 2 * sum(min(2, p.value.size) for p in in_range)
    assert all(len(changed) == 1 and changed[0][0].startswith(RANGES[prefix]) for changed in states)


def test_model_check_rejects_a_stage_prefix_that_names_no_parameter(monkeypatch):
    monkeypatch.setattr(gradsuite, "MODEL_STAGES", gradsuite.MODEL_STAGES[:4] + (("decoder", "decoders."),))
    with pytest.raises(ConfigError, match="'decoder': no parameter name starts with 'decoders.'"):
        gradsuite.end_to_end_check()


def test_model_check_keeps_only_the_start_state_outputs():
    """A perturbed state never recurs in the model check, so no stage keeps
    its output once the next forward is done."""
    _, f, params, model = gradsuite.end_to_end_check()
    first = [next(p for p in params if p.name.startswith(prefix)) for prefix in ("text.", "image.")]
    gradsuite.grad_check(f, first, eps=gradsuite.BLOCK_EPS, sample_per_param=1, rng=np.random.default_rng(0))
    assert [list(getattr(model, attr).results) for attr, _ in gradsuite.MODEL_STAGES] == [[b""]] * 5


def test_zero_gradient_names_come_from_the_model_checks_own_tape(logged_suite):
    """The model check leaves each parameter's tape gradient in place, so the
    suite reads its zero-gradient names from them instead of a second taped
    forward and backward."""
    _, zero_names, _, _ = logged_suite
    _, f, params, model = gradsuite.end_to_end_check()
    gradsuite.grad_check(f, params, eps=gradsuite.BLOCK_EPS, sample_per_param=2, rng=np.random.default_rng(1))
    left = [p.gradient.tobytes() for p in params]
    with Tape() as tape:
        out = f()
    model.zero_grad()
    backward(tape, out)
    assert [p.gradient.tobytes() for p in params] == left
    assert zero_names == sorted(p.name for p in model.parameters() if not np.any(p.gradient))
    assert "aligner.fixed.kernel" in zero_names


def test_suite_digest_is_stable_and_reads_every_result_bit(capsys, monkeypatch):
    def digest():
        runpy.run_path(str(SUITE_DIGEST), run_name="__main__")
        return capsys.readouterr().out

    first = digest()
    assert re.fullmatch(r"[0-9a-f]{64}\n", first) and digest() == first
    real_grad_check, calls = gradsuite.grad_check, []

    def one_result_off_by_an_ulp(f, params, **kwargs):
        err = real_grad_check(f, params, **kwargs)
        calls.append(err)
        return np.nextafter(err, 1.0) if len(calls) == 5 else err

    monkeypatch.setattr(gradsuite, "grad_check", one_result_off_by_an_ulp)
    assert digest() != first
