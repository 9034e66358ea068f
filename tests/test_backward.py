"""Tape mechanics, backward accumulation, and the finite-difference oracle."""

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.autodiff import Parameter, Tape, Tensor, backward
from refseg.errors import ConfigError, DimensionError, NumericalError
from refseg.gradcheck import grad_check
from refseg.gradsuite import _param as randn_param
from refseg.nn import MultiHeadAttention, ParamStore

from composite_ops import powc, taped_attention


def test_backward_sum_of_matmul_outer_product_oracle(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (3, 4), rng)
    x = Tensor(rng.standard_normal((4, 5)))
    with Tape() as tape:
        loss = ad.tsum(ad.matmul(w.value, x))
    backward(tape, loss)
    # d/dW sum(Wx) = ones(3,5) @ x^T: every row is the row-sums of x
    expected = np.tile(x.data.sum(axis=1), (3, 1))
    assert np.allclose(w.gradient, expected)


def test_unreachable_parameter_has_zero_gradient(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (3, 3), rng)
    unused = randn_param(store, "unused", (2, 2), rng)
    with Tape() as tape:
        loss = ad.tsum(w.value)
    backward(tape, loss)
    assert np.array_equal(unused.gradient, np.zeros((2, 2)))


def test_backward_rejects_non_scalar(rng):
    with Tape() as tape:
        out = ad.relu(Tensor(rng.standard_normal((2, 2))))
    with pytest.raises(DimensionError):
        backward(tape, out)


def test_relu_matmul_chain_matches_finite_differences(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w1 = randn_param(store, "w1", (4, 6), rng)
    w2 = randn_param(store, "w2", (6, 2), rng)
    x = Tensor(rng.standard_normal((3, 4)))

    def f():
        return ad.tsum(ad.matmul(ad.relu(ad.matmul(x, w1.value)), w2.value))

    assert grad_check(f, [w1, w2], eps=1e-5) < 1e-6


def test_tensor_reused_twice_accumulates(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (3, 3), rng)
    with Tape() as tape:
        y = ad.add(ad.relu(w.value), ad.relu(w.value))
        loss = ad.tsum(y)
    backward(tape, loss)
    assert np.allclose(w.gradient, 2.0 * (w.value.data > 0))


def test_no_recording_without_tape(rng):
    t = Tape()
    out = ad.matmul(Tensor(np.eye(2)), Tensor(np.ones((2, 2))))
    assert len(t) == 0
    assert out.grad is None


def test_ops_on_constants_record_no_node(rng):
    a = Tensor(rng.standard_normal((2, 4, 4, 3)))
    k = Tensor(rng.standard_normal((3, 3, 3, 2)))
    with Tape() as tape:
        y = ad.conv2d(a, k)
        z = ad.relu(ad.matmul(ad.concat([y, y], axis=-1), Tensor(rng.standard_normal((4, 2)))))
    assert len(tape) == 0
    assert not y.requires_grad and not z.requires_grad


def test_parameter_plus_constant_accumulates_only_into_parameter(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (3,), rng)
    c = Tensor(rng.standard_normal((2, 3)))
    with Tape() as tape:
        y = ad.add(w.value, c)
        assert len(tape) == 1 and y.requires_grad
        loss = ad.tsum(y)
    backward(tape, loss)
    assert np.array_equal(w.gradient, np.full(3, 2.0))
    assert c.grad is None


@pytest.mark.parametrize("input_requires_grad, im2col_calls", [(False, 1), (True, 2)])
def test_conv2d_backward_skips_a_constant_input(rng, monkeypatch, input_requires_grad, im2col_calls):
    # float32 caches the forward's patch matrix for the kernel gradient, so
    # a second im2col call is the input gradient's
    calls = []
    im2col = ad._im2col
    monkeypatch.setattr(ad, "_im2col", lambda *a: calls.append(1) or im2col(*a))
    store = ParamStore(dtype=np.float32, seed=0)
    k = store.parameter("k", (3, 3, 2, 4), lambda r, s, d: r.standard_normal(s).astype(d))
    x = Tensor(rng.standard_normal((2, 5, 5, 2)).astype(np.float32), requires_grad=input_requires_grad)
    with Tape() as tape:
        loss = ad.tsum(ad.conv2d(x, k.value))
    backward(tape, loss)
    assert len(calls) == im2col_calls
    assert (x.grad is not None) == input_requires_grad
    assert k.value.grad is not None


def test_gradcheck_linear_function_tiny_error(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (4, 4), rng)
    proj = Tensor(rng.standard_normal((4, 4)))
    err = grad_check(lambda: ad.tsum(ad.mul(w.value, proj)), [w])
    assert err < 1e-9


def test_gradcheck_constant_function_both_zero(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (3, 2), rng)
    c = Tensor(np.ones(1))
    err = grad_check(lambda: ad.tsum(c), [w])
    assert err == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gradcheck_non_finite_gradient_is_nan(bad):
    x = Parameter("x", Tensor(np.array([0.5, -1.0, 2.0])))
    c = Tensor(np.array([1.0, bad, 2.0]))
    assert np.isnan(grad_check(lambda: ad.tsum(ad.mul(x.value, c)), [x]))


def test_gradcheck_non_finite_unsampled_tape_gradient_is_nan():
    # d sqrt(x)/dx is inf at x = 0; the one sampled entry is another one,
    # whose own central difference is finite
    x = Parameter("x", Tensor(np.array([0.0, 1.0, 4.0, 9.0])))
    assert np.random.default_rng(0).choice(4, size=1, replace=False)[0] != 0
    with np.errstate(divide="ignore"):
        err = grad_check(lambda: ad.tsum(powc(x.value, 0.5)), [x], sample_per_param=1, rng=np.random.default_rng(0))
    assert np.isnan(err)


def test_mhsa_single_row_attention_weight_is_one(rng, attention_weights):
    store = ParamStore(dtype=np.float64, seed=4)
    attn = MultiHeadAttention(store, "attn", 8, 2)
    x = Tensor(rng.standard_normal((1, 8)))
    out = attn(x)
    assert out.shape == (1, 8)
    assert np.allclose(attention_weights[-1], 1.0)
    # with weight exactly one the block reduces to out_proj(v_proj(x))
    v = x.data @ attn.wv.value.data + attn.bv.value.data
    expected = v @ attn.wo.value.data + attn.bo.value.data
    assert np.allclose(out.data, expected)


def test_mhsa_row_permutation_equivariance(rng):
    store = ParamStore(dtype=np.float64, seed=5)
    attn = MultiHeadAttention(store, "attn", 8, 4)
    x = rng.standard_normal((5, 8))
    perm = np.array([2, 0, 4, 1, 3])
    y = attn(Tensor(x)).data
    y_perm = attn(Tensor(x[perm])).data
    assert np.abs(y[perm] - y_perm).max() < 1e-6


def test_mhsa_gradcheck(rng):
    store = ParamStore(dtype=np.float64, seed=6)
    attn = MultiHeadAttention(store, "attn", 6, 3)
    x = randn_param(store, "x", (4, 6), rng)
    proj = Tensor(rng.standard_normal((4, 6)))
    err = grad_check(lambda: ad.tsum(ad.mul(attn(x.value), proj)), store.parameters())
    assert err < 1e-4


def per_head_reference(attn, x, kv=None, key_bias=None):
    """Numpy multi-head attention with an explicit loop over heads."""
    src = x if kv is None else kv
    q = x @ attn.wq.value.data + attn.bq.value.data
    k = src @ attn.wk.value.data
    v = src @ attn.wv.value.data + attn.bv.value.data
    d = attn.head_dim
    outs, weights = [], []
    for h in range(attn.heads):
        cols = slice(h * d, (h + 1) * d)
        logits = q[:, cols] @ k[:, cols].T / np.sqrt(d)
        if key_bias is not None:
            logits = logits + key_bias
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        weights.append(w)
        outs.append(w @ v[:, cols])
    out = np.concatenate(outs, axis=1) @ attn.wo.value.data + attn.bo.value.data
    return out, np.stack(weights)


@pytest.mark.parametrize("case", ["self", "cross", "key_bias"])
def test_fused_mha_matches_per_head_reference(case, rng, attention_weights):
    store = ParamStore(dtype=np.float64, seed=7)
    attn = MultiHeadAttention(store, "attn", 12, 3)
    x = rng.standard_normal((5, 12))
    kv = rng.standard_normal((7, 12)) if case == "cross" else None
    key_bias = None
    if case == "key_bias":
        key_bias = np.array([0.0, 0.0, 0.0, -np.inf, -np.inf])
    out = attn(Tensor(x), kv=None if kv is None else Tensor(kv), key_bias=key_bias)
    ref, ref_weights = per_head_reference(attn, x, kv, key_bias)
    weights = attention_weights[-1]
    assert np.abs(out.data - ref).max() < 1e-12
    assert weights.shape == ref_weights.shape
    assert np.abs(weights - ref_weights).max() < 1e-12
    if key_bias is not None:
        assert np.all(weights[:, :, 3:] == 0.0)


def test_mha_tape_nodes_independent_of_heads(rng):
    counts = []
    for heads in (1, 2, 4):
        attn = MultiHeadAttention(ParamStore(dtype=np.float64, seed=0), "attn", 8, heads)
        with Tape() as tape:
            attn(Tensor(rng.standard_normal((6, 8))), key_bias=np.zeros(6))
        counts.append(len(tape))
    assert counts == [1, 1, 1]


def _attention_run(attn, forward, x, kv, key_bias, proj, x_grad):
    """Output, weights and the gradients of x, kv and the seven parameters
    after backpropagating sum(out * proj) through ``forward``."""
    params = [attn.wq, attn.bq, attn.wk, attn.wv, attn.bv, attn.wo, attn.bo]
    for p in params:
        p.zero_grad()
    xt = Tensor(x, requires_grad=True)
    xt.grad = None if x_grad is None else x_grad.copy()
    kvt = None if kv is None else Tensor(kv, requires_grad=True)
    with Tape() as tape:
        out, weights = forward(xt, kvt, key_bias)
        loss = ad.tsum(ad.mul(out, Tensor(proj)))
    backward(tape, loss)
    return [out.data, weights, xt.grad] + ([] if kvt is None else [kvt.grad]) + [p.gradient for p in params]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["self", "cross", "key_bias"])
@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("x_has_grad", [False, True])
def test_fused_attention_matches_taped_chain_bytewise(dtype, case, lead, x_has_grad, rng, attention_weights):
    attn = MultiHeadAttention(ParamStore(dtype=dtype, seed=3), "attn", 12, 3)
    for p in (attn.bq, attn.bv, attn.bo):
        p.value.data[...] = rng.standard_normal(12)
    x = rng.standard_normal(lead + (5, 12)).astype(dtype)
    kv = rng.standard_normal(lead + (7, 12)).astype(dtype) if case == "cross" else None
    key_bias = None
    if case == "key_bias":
        key_bias = np.zeros(lead + (5,))
        key_bias[..., 3:] = -np.inf
    proj = rng.standard_normal(lead + (5, 12)).astype(dtype)
    x_grad = rng.standard_normal(x.shape).astype(dtype) if x_has_grad else None

    def fused(*args):
        return attn(*args), attention_weights[-1]

    got = _attention_run(attn, fused, x, kv, key_bias, proj, x_grad)
    want = _attention_run(attn, lambda *a: taped_attention(attn, *a), x, kv, key_bias, proj, x_grad)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype == dtype and np.array_equal(a, b), i


def test_attention_fully_masked_row_raises(rng):
    attn = MultiHeadAttention(ParamStore(dtype=np.float64, seed=0), "attn", 8, 2)
    key_bias = np.array([[0.0, 0.0, -np.inf, 0.0], [-np.inf] * 4])  # sample 1 masks every key
    with Tape(), pytest.raises(NumericalError):
        attn(Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True), key_bias=key_bias)


def _grads_alias(tensors) -> bool:
    grads = [t.grad for t in tensors]
    return any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1 :])


def test_add_of_a_tensor_and_itself_doubles_without_alias(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with Tape() as tape:
        s = ad.add(x, x)
        loss = ad.tsum(ad.add(ad.mul(s, s), y))
    backward(tape, loss)
    assert np.array_equal(x.grad, 2 * (2 * s.data))
    assert np.array_equal(y.grad, np.ones((3, 4)))
    assert not _grads_alias([x, y])


def test_add_of_two_tensors_gives_each_its_own_gradient(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(ad.add(x, y), Tensor(rng.standard_normal((3, 4)))))
    backward(tape, loss)
    assert np.array_equal(x.grad, y.grad)
    assert not _grads_alias([x, y])
    x.grad += 1.0
    assert not np.array_equal(x.grad, y.grad)


def test_concat_of_reused_parts_gives_each_its_own_gradient(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 12)))
    with Tape() as tape:
        loss = ad.tsum(ad.mul(ad.concat([a, b, a, ad.relu(b)], axis=-1), proj))
    backward(tape, loss)
    p = proj.data
    assert np.array_equal(a.grad, p[:, 0:3] + p[:, 6:9])
    assert np.array_equal(b.grad, p[:, 3:6] + p[:, 9:12] * (b.data > 0))
    assert not _grads_alias([a, b])


@pytest.mark.parametrize("sample_per_param", [0, -1])
def test_grad_check_rejects_sample_per_param_below_1(sample_per_param, rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (3,), rng)
    with pytest.raises(ConfigError, match="sample_per_param"):
        grad_check(lambda: ad.tsum(w.value), [w], sample_per_param=sample_per_param)
