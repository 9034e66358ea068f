"""The gradient suite's forward reuse: ``gradsuite.ForwardCache`` is a pure
cache, so the suite gives the results of closures that share no forward
(``composite_ops.unshared_image_checks`` and ``unshared_end_to_end_check``)
while each encoder runs once per parameter state."""

from collections import defaultdict

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg import gradsuite
from refseg.autodiff import Parameter, Tape, Tensor, backward
from refseg.encoders import ImageEncoder, TextEncoder
from refseg.gradsuite import ForwardCache, run_gradient_suite

from composite_ops import unshared_end_to_end_check, unshared_image_checks

HEADS = [f"block.image_encoder.{h}" for h in ("v2", "v3", "v4", "vg")]


def test_cache_key_tells_signed_zeros_apart():
    p = Parameter("p", Tensor(np.zeros(3)))
    runs = []
    cache = ForwardCache(lambda: runs.append(p.value.data.tobytes()) or len(runs), [p])
    assert cache() == 1 and cache() == 1
    p.value.data[1] = -0.0
    assert cache() == 2
    p.value.data[1] = 0.0
    assert cache() == 1
    p.value.data[1] = -0.0
    assert cache() == 2 and len(runs) == 2


def test_taped_call_never_reads_the_cache():
    p = Parameter("p", Tensor(np.array([1.0, -2.0])))
    runs = []

    def fn():
        runs.append(1)
        return ad.tsum(ad.mul(p.value, p.value))

    cache = ForwardCache(fn, [p])
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
    """One suite pass that logs, for every untaped encoder call, the check
    it ran in and the parameters of that check that differed from their
    values when the check began (name and bytes)."""
    checks = []  # (params, their bytes when the check began)
    calls = defaultdict(list)  # (encoder class, check index) -> changed params per call
    real_grad_check = gradsuite.grad_check

    def grad_check(f, params, **kwargs):
        checks.append((params, [p.value.data.tobytes() for p in params]))
        return real_grad_check(f, params, **kwargs)

    def logged(cls):
        call = cls.__call__

        def wrapper(self, x):
            if not ad._TAPE_STACK:
                params, start = checks[-1]
                changed = tuple((p.name, p.value.data.tobytes()) for p, s in zip(params, start)
                                if p.value.data.tobytes() != s)
                calls[cls.__name__, len(checks) - 1].append(changed)
            return call(self, x)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradsuite, "grad_check", grad_check)
        mp.setattr(ImageEncoder, "__call__", logged(ImageEncoder))
        mp.setattr(TextEncoder, "__call__", logged(TextEncoder))
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


@pytest.mark.parametrize("cls, prefix", [("TextEncoder", "text."), ("ImageEncoder", "image.")])
def test_model_check_encoders_run_only_for_their_own_parameters(logged_suite, cls, prefix):
    results, _, params, calls = logged_suite
    i = next(i for i, r in enumerate(results) if r.name == "model.end_to_end")
    states = calls[cls, i]
    own = [p for p in params[i] if p.name.startswith(prefix)]
    assert len(states) == len(set(states)) == 2 * sum(min(2, p.value.size) for p in own)
    assert all(len(changed) == 1 and changed[0][0].startswith(prefix) for changed in states)
