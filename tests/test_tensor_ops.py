"""Tensor-engine operations against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refseg import autodiff as ad
from refseg.autodiff import Tensor
from refseg.errors import DimensionError, PrecisionError
from refseg.gradcheck import grad_check
from refseg.gradsuite import _param as randn_param
from refseg.nn import ParamStore

import composite_ops as ops


def param(store, name, arr):
    return store.parameter(name, arr.shape, lambda r, s, d: np.asarray(arr, dtype=d))


# ---------------------------------------------------------------------------
# oracles


def naive_conv(x, k, b):
    """Triple-loop convolution reference: bias first, taps in (dy, dx, ci)."""
    h, w, ci = x.shape
    kk = k.shape[0]
    co = k.shape[3]
    p = (kk - 1) // 2
    xp = np.zeros((h + 2 * p, w + 2 * p, ci), dtype=x.dtype)
    xp[p : p + h, p : p + w] = x
    out = np.empty((h, w, co), dtype=x.dtype)
    for i in range(h):
        for j in range(w):
            for o in range(co):
                acc = b[o] if b is not None else x.dtype.type(0)
                for dy in range(kk):
                    for dx in range(kk):
                        for c in range(ci):
                            acc = acc + xp[i + dy, j + dx, c] * k[dy, dx, c, o]
                out[i, j, o] = acc
    return out


def block_mean(x):
    h, w, c = x.shape
    out = np.empty((h // 2, w // 2, c))
    for i in range(h // 2):
        for j in range(w // 2):
            out[i, j] = x[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].reshape(4, c).mean(axis=0)
    return out


def bilinear_reference(x):
    """Independent 2x upsampling: per-output-pixel source coords with clamping."""
    h, w, c = x.shape
    out = np.zeros((2 * h, 2 * w, c))
    for i in range(2 * h):
        for j in range(2 * w):
            sy = (i + 0.5) / 2.0 - 0.5
            sx = (j + 0.5) / 2.0 - 0.5
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            fy, fx = sy - y0, sx - x0
            for dy, wy in ((y0, 1 - fy), (y0 + 1, fy)):
                for dx, wx in ((x0, 1 - fx), (x0 + 1, fx)):
                    out[i, j] += wy * wx * x[np.clip(dy, 0, h - 1), np.clip(dx, 0, w - 1)]
    return out


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    b = np.arange(12.0).reshape(3, 4)
    out = ad.matmul(Tensor(np.eye(3)), Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_hand_sum():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_backward_matches_finite_differences(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    a = randn_param(store, "a", (5, 4), rng)
    b = randn_param(store, "b", (4, 3), rng)
    proj = Tensor(rng.standard_normal((5, 3)))
    err = grad_check(lambda: ad.tsum(ad.mul(ad.matmul(a.value, b.value), proj)), [a, b], eps=1e-5)
    assert err < 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as e:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_batched_matmul_backward_matches_finite_differences(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    a = randn_param(store, "a", (3, 5, 4), rng)
    b = randn_param(store, "b", (3, 4, 2), rng)
    proj = Tensor(rng.standard_normal((3, 5, 2)))
    out = ad.matmul(a.value, b.value)
    for i in range(3):  # each slice is its own product
        assert np.allclose(out.data[i], a.value.data[i] @ b.value.data[i], atol=1e-12)
    err = grad_check(lambda: ad.tsum(ad.mul(ad.matmul(a.value, b.value), proj)), [a, b], eps=1e-5)
    assert err < 1e-6


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (5, 6)), ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 5, 6))],
)
def test_batched_matmul_mismatch_names_both_shapes(a_shape, b_shape):
    with pytest.raises(DimensionError) as e:
        ad.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))
    assert str(a_shape) in str(e.value) and str(b_shape) in str(e.value)


def test_mixed_precision_rejected():
    with pytest.raises(PrecisionError):
        ad.add(Tensor(np.zeros(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float64)))


# ---------------------------------------------------------------------------
# conv2d


def test_conv_delta_kernel_selects_channel(rng):
    x = rng.standard_normal((5, 5, 3))
    k = np.zeros((3, 3, 3, 1))
    k[1, 1, 2, 0] = 1.0  # center tap on channel 2
    out = ad.conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(1)))
    assert np.allclose(out.data[:, :, 0], x[:, :, 2])


def test_conv_ones_kernel_interior():
    x = np.full((5, 5, 1), 3.0)
    k = np.ones((3, 3, 1, 1))
    out = ad.conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(1)))
    assert out.data[2, 2, 0] == pytest.approx(27.0)  # 9k for k=3


def test_conv_matches_naive_loop_exactly(rng):
    x = rng.standard_normal((6, 6, 2))
    k = rng.standard_normal((3, 3, 2, 3))
    b = rng.standard_normal(3)
    out = ad.conv2d(Tensor(x), Tensor(k), Tensor(b))
    assert out.data.tobytes() == naive_conv(x, k, b).tobytes()


def test_conv_bitexact_double_many_shapes(rng):
    # tensor-core invariant: bit-for-bit against the loop up to 8x8x4
    for _ in range(6):
        h, w = rng.integers(1, 9, size=2)
        ci = int(rng.integers(1, 5))
        co = int(rng.integers(1, 4))
        kk = int(rng.choice([1, 3]))
        x = rng.standard_normal((h, w, ci))
        k = rng.standard_normal((kk, kk, ci, co))
        b = rng.standard_normal(co)
        out = ad.conv2d(Tensor(x), Tensor(k), Tensor(b))
        assert out.data.tobytes() == naive_conv(x, k, b).tobytes()


def _double_conv_edge_cases(rng):
    """(x, kernel, bias) float64 cases, kernel and bias per sample when the
    kernel has 5 axes: 1x1 maps with one output channel, all -0.0 maps with a
    -0.0 bias and with none, a product that overflows, k=1 and k=3, and
    batched maps with shared and per-sample kernels."""
    normal = rng.standard_normal
    for kk in (1, 3):
        yield normal((1, 1, 3)), normal((kk, kk, 3, 1)), normal(1)
        yield normal((1, 1, 1)), normal((kk, kk, 1, 1)), None
        for b, per_sample_b in ((np.full(2, -0.0), np.full((2, 2), -0.0)), (None, None)):
            yield np.full((3, 2, 2), -0.0), normal((kk, kk, 2, 2)), b
            yield np.full((2, 3, 2, 2), -0.0), normal((2, kk, kk, 2, 2)), per_sample_b
        yield np.full((2, 2, 1), 1e300), np.full((kk, kk, 1, 1), 1e10), normal(1)
        yield normal((3, 5, 4, 3)), normal((kk, kk, 3, 2)), normal(2)
        yield normal((3, 4, 5, 3)), normal((3, kk, kk, 3, 2)), normal((3, 2))
        yield normal((3, 4, 5, 3)), normal((3, kk, kk, 3, 2)), None


@pytest.mark.parametrize("run", [ad.CONV_F64_RUN, 40, 7])  # 40 and 7: sums cross run boundaries
def test_double_conv_bytes_equal_naive_loop_on_edge_cases(run, rng, monkeypatch):
    # byte equality also tells -0.0 from +0.0, which np.array_equal does not
    monkeypatch.setattr(ad, "CONV_F64_RUN", run)
    for x, k, b in _double_conv_edge_cases(rng):
        with np.errstate(over="ignore"):
            out = ad.conv2d(Tensor(x), Tensor(k), None if b is None else Tensor(b)).data
            if x.ndim == 3:
                ref = naive_conv(x, k, b)
            elif k.ndim == 4:
                ref = np.stack([naive_conv(xj, k, b) for xj in x])
            else:
                ref = np.stack([naive_conv(x[j], k[j], None if b is None else b[j]) for j in range(len(x))])
        assert out.tobytes() == ref.tobytes(), (x.shape, k.shape, b is None)
        # C order too: numpy's sums downstream round by memory layout
        assert out.flags.c_contiguous


def test_conv_channel_mismatch():
    with pytest.raises(DimensionError):
        ad.conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))


def gamma(n, unit_roundoff):
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of an
    n-term dot product summed in any order (Accuracy and Stability of
    Numerical Algorithms, section 3.1)."""
    return n * unit_roundoff / (1 - n * unit_roundoff)


def _f32_conv_case(rng, per_sample):
    """Float32-representable (x, kernel, bias) in float64: a batch of 3 maps
    with a shared or a per-sample 3x3 kernel."""
    cin, cout = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    lead = (3,) if per_sample else ()
    shapes = ((3, 7, 6, cin), lead + (3, 3, cin, cout), lead + (cout,))
    return [rng.standard_normal(s).astype(np.float32).astype(np.float64) for s in shapes]


@pytest.mark.parametrize("per_sample", [False, True], ids=["shared", "per_sample"])
def test_conv_float32_sum_within_dot_product_bound(per_sample, rng):
    for _ in range(5):
        x, k, b = _f32_conv_case(rng, per_sample)
        out = ad.conv2d(*(Tensor(a.astype(np.float32)) for a in (x, k, b)))
        assert out.data.dtype == np.float32
        n_terms = k.shape[-4] * k.shape[-3] * k.shape[-2] + 1  # taps and the bias
        for j in range(3):
            kj, bj = (k[j], b[j]) if per_sample else (k, b)
            ref = naive_conv(x[j], kj, bj)
            # the reference's own double rounding is covered by the f64 term
            bound = (gamma(n_terms, 2.0**-24) + gamma(n_terms, 2.0**-53)) * naive_conv(
                np.abs(x[j]), np.abs(kj), np.abs(bj)
            )
            assert np.all(np.abs(out.data[j] - ref) <= bound)


# ---------------------------------------------------------------------------
# upsample2x / avgpool2x


def test_upsample_constant():
    out = ad.upsample2x(Tensor(np.full((3, 5, 2), 4.5)))
    assert out.shape == (6, 10, 2)
    assert np.allclose(out.data, 4.5)


def test_upsample_1x1():
    out = ad.upsample2x(Tensor(np.full((1, 1, 1), 7.0)))
    assert np.array_equal(out.data, np.full((2, 2, 1), 7.0))


def test_upsample_ramp_matches_reference(rng):
    x = np.arange(4.0).reshape(2, 2, 1)
    out = ad.upsample2x(Tensor(x))
    assert np.allclose(out.data, bilinear_reference(x))
    y = rng.standard_normal((3, 4, 2))
    assert np.allclose(ad.upsample2x(Tensor(y)).data, bilinear_reference(y))


def test_avgpool_constant():
    out = ad.avgpool2x(Tensor(np.full((4, 6, 2), 1.25)))
    assert np.allclose(out.data, 1.25)


def test_avgpool_hand_block():
    x = np.array([[0.0, 2.0], [4.0, 6.0]]).reshape(2, 2, 1)
    assert ad.avgpool2x(Tensor(x)).data[0, 0, 0] == pytest.approx(3.0)


def test_avgpool_matches_block_mean(rng):
    x = rng.standard_normal((8, 8, 3))
    assert np.allclose(ad.avgpool2x(Tensor(x)).data, block_mean(x))


def test_avgpool_odd_dims_rejected():
    with pytest.raises(DimensionError):
        ad.avgpool2x(Tensor(np.zeros((3, 4, 1))))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_zeros():
    out = ad.softmax(Tensor(np.zeros(4)), axis=0)
    assert np.allclose(out.data, 0.25)


@given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
@settings(max_examples=30, deadline=None)
def test_softmax_shift_invariance(seed, shift):
    x = np.random.default_rng(seed).standard_normal((3, 6))
    a = ad.softmax(Tensor(x), axis=-1).data
    b = ad.softmax(Tensor(x + shift), axis=-1).data
    assert np.abs(a - b).max() < 1e-7


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_matches_exp_sum_oracle_and_normalizes(seed):
    x = np.random.default_rng(seed).standard_normal((4, 5))
    out = ad.softmax(Tensor(x), axis=-1).data
    ref = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
    assert np.allclose(out, ref, atol=1e-12)
    assert np.all(out > 0)
    assert np.abs(out.sum(axis=-1) - 1).max() < 1e-6


def test_softmax_masked_entries_exactly_zero():
    x = np.array([[1.0, -np.inf, 0.5], [0.0, 0.0, -np.inf]])
    out = ad.softmax(Tensor(x), axis=-1).data
    assert out[0, 1] == 0.0 and out[1, 2] == 0.0
    assert np.allclose(out.sum(axis=-1), 1.0)


# ---------------------------------------------------------------------------
# bit identity with the straightforward formulations: the ops skip layout
# work and temporaries, never an operation or a rounding


def signed_zero_input(rng, shape, dtype):
    """Values over six decades with runs of +0 and -0 mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    x.flat[::7] = 0.0
    x.flat[::11] = -0.0
    return x.astype(dtype)


def grad_into(op, x, g):
    """The gradient ``op``'s backward sends to ``x`` when ``g`` flows into
    its output (tsum and mul pass ``g`` through unchanged)."""
    t = Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(op(t), Tensor(g)))
    ad.backward(tape, loss)
    return t.grad


BIT_CASES = [
    (dtype, shape)
    for dtype in (np.float32, np.float64)
    for shape in ((6, 8, 3), (2, 8, 6, 5), (3, 4, 4, 16))
]


@pytest.mark.parametrize("dtype,shape", BIT_CASES)
def test_avgpool_bitwise_equals_block_mean(dtype, shape, rng):
    x = signed_zero_input(rng, shape, dtype)
    *lead, h, w, c = shape
    ref = x.reshape(*lead, h // 2, 2, w // 2, 2, c).mean(axis=(-4, -2))
    out = ad.avgpool2x(Tensor(x)).data
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    g = signed_zero_input(rng, ref.shape, dtype)
    ref_grad = np.repeat(np.repeat(g, 2, axis=-3), 2, axis=-2) * dtype(0.25)
    assert grad_into(ad.avgpool2x, x, g).tobytes() == ref_grad.tobytes()


def test_avgpool_one_channel_sums_in_row_order(rng):
    x = signed_zero_input(rng, (2, 6, 8, 1), np.float32)
    q = x.reshape(2, 3, 2, 4, 2, 1)
    ref = ((q[..., 0, :, 0, :] + q[..., 0, :, 1, :]) + q[..., 1, :, 0, :]) + q[..., 1, :, 1, :]
    assert ad.avgpool2x(Tensor(x)).data.tobytes() == (ref / np.float32(4)).tobytes()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dtype,shape", BIT_CASES)
def test_im2col_bitwise_equals_window_transpose(k, dtype, shape, rng):
    x = signed_zero_input(rng, shape, dtype)
    *lead, h, w, c = shape
    n, pad = len(lead), (k - 1) // 2
    win = np.lib.stride_tricks.sliding_window_view(ad._pad_spatial(x, pad), (k, k), axis=(n, n + 1))
    ref = win.transpose(*range(n + 2), n + 3, n + 4, n + 2).reshape(*lead, h * w, k * k * c)
    cols = ad._im2col(x, k)
    assert cols.shape == ref.shape and cols.tobytes() == ref.tobytes()


@pytest.mark.parametrize("axis", [-1, 0])
@pytest.mark.parametrize("dtype,shape", BIT_CASES)
def test_softmax_bitwise_equals_exp_over_sum(axis, dtype, shape, rng):
    x = signed_zero_input(rng, shape, dtype)
    x.flat[::13] = -np.inf
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    ref = e / e.sum(axis=axis, keepdims=True)
    assert ad.softmax(Tensor(x), axis).data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype,shape", BIT_CASES)
def test_relu_backward_bitwise_equals_bool_mask_product(dtype, shape, rng):
    x = signed_zero_input(rng, shape, dtype)
    g = signed_zero_input(rng, shape, dtype)
    ref = g * (x > 0)
    grad = grad_into(ad.relu, x, g)
    assert grad.dtype == ref.dtype and grad.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# elementwise


def test_elementwise_identities(rng):
    x = rng.standard_normal((4, 5))
    assert np.array_equal(ad.mul(Tensor(np.ones_like(x)), Tensor(x)).data, x)
    assert np.array_equal(ad.mul(Tensor(np.zeros_like(x)), Tensor(x)).data, np.zeros_like(x))
    assert np.array_equal(ad.add(Tensor(x), Tensor(np.zeros_like(x))).data, x)


def test_elementwise_row_broadcast_matches_tiling(rng):
    x = rng.standard_normal((6, 3))
    row = rng.standard_normal(3)
    out = ad.mul(Tensor(x), Tensor(row)).data
    tiled = np.tile(row, (6, 1))  # explicit tiling oracle
    assert np.array_equal(out, x * tiled)


def test_elementwise_bad_shapes():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_broadcast_gradient_reduces(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    row = randn_param(store, "row", (4,), rng)
    x = Tensor(rng.standard_normal((5, 4)))
    err = grad_check(lambda: ad.tsum(ad.mul(x, row.value)), [row])
    assert err < 1e-8


# ---------------------------------------------------------------------------
# gradcheck across ops (tensor-core invariant: three shapes each)


@pytest.mark.parametrize("shape", [(3, 4), (1, 6), (5, 2)])
def test_composite_ops_gradcheck(shape, rng):
    store = ParamStore(dtype=np.float64, seed=3)
    x = randn_param(store, "x", shape, rng)
    proj = Tensor(rng.standard_normal(shape))

    def f():
        y = ad.relu(x.value)
        y = ad.mul(ad.softmax(y, axis=-1), proj)
        return ad.tsum(ops.exp(ad.mulc(y, 0.1)))

    assert grad_check(f, [x]) < 1e-4


# ---------------------------------------------------------------------------
# layer_norm


def composed_layer_norm(x, gamma, beta, eps):
    """LayerNorm as a chain of primitive taped ops."""
    mu = ad.tmean(x, axis=-1, keepdims=True)
    xc = ops.sub(x, mu)
    var = ad.tmean(ad.mul(xc, xc), axis=-1, keepdims=True)
    inv = ops.powc(ops.addc(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv), gamma), beta)


@pytest.mark.parametrize("shape", [(4, 6), (1, 5), (2, 3, 8)])
def test_layer_norm_gradcheck(shape, rng):
    store = ParamStore(dtype=np.float64, seed=0)
    x = randn_param(store, "x", shape, rng)
    gamma = randn_param(store, "gamma", shape[-1:], rng)
    beta = randn_param(store, "beta", shape[-1:], rng)
    proj = Tensor(rng.standard_normal(shape))

    def f():
        return ad.tsum(ad.mul(ad.layer_norm(x.value, gamma.value, beta.value, 1e-5), proj))

    assert grad_check(f, [x, gamma, beta], eps=1e-5) < 1e-6


def test_layer_norm_matches_composed_formula(rng):
    x = Tensor(3.0 * rng.standard_normal((7, 10)) + 1.5, requires_grad=True)
    gamma = Tensor(rng.standard_normal(10), requires_grad=True)
    beta = Tensor(rng.standard_normal(10), requires_grad=True)
    proj = rng.standard_normal((7, 10))
    grads = []
    for fn in (ad.layer_norm, composed_layer_norm):
        for t in (x, gamma, beta):
            t.grad = None
        with ad.Tape() as tape:
            y = fn(x, gamma, beta, 1e-5)
            loss = ad.tsum(ad.mul(y, Tensor(proj)))
        ad.backward(tape, loss)
        grads.append((y.data, x.grad, gamma.grad, beta.grad))
    for fused, composed in zip(*grads):
        assert np.abs(fused - composed).max() < 1e-12


def test_layer_norm_records_one_node(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with ad.Tape() as tape:
        ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
    assert len(tape) == 1


def test_layer_norm_width_mismatch():
    with pytest.raises(DimensionError):
        ad.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
