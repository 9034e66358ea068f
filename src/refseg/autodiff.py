"""Dense tensors with tape-based reverse-mode differentiation.

Values are numpy arrays in float32 or float64, channels-last and row-major
everywhere.  Operations executed while a :class:`Tape` is active record at
most one node each; :func:`backward` replays the tape in reverse execution
order, accumulating gradients into every reachable tensor that requires
one.

Gradient rule (PyTorch autograd's): a tensor requires a gradient only if
it says so.  ``Tensor`` defaults to ``requires_grad=False``, so images,
masks, attention biases and other constants are not differentiated; a
``Parameter`` sets the flag on its value.  Under a tape an op's output
requires a gradient if any operand does, and an op whose operands all
require none records no node.  Outside a tape nothing is recorded and no
output requires a gradient.

Node protocol: a node reads its output's gradient.  If none flowed into
the output it does nothing; otherwise it releases that gradient and calls
the op's backward closure as ``bw(g)``, which accumulates into the
operands that require a gradient and skips the others before computing
their term.  So after backward only leaves that require a gradient
(parameters, and tensors built with ``requires_grad=True``) hold one.
Tensors are treated as immutable once created: no operation writes to its
operands, so a tape can always be replayed against the values it
captured.

Shape contract: every op takes an optional leading batch axis, and the
unbatched shape is the same code with no leading dims.  Spatial ops take
(H, W, C) or (B, H, W, C) maps; ``conv2d`` also takes one kernel and bias
per sample.  ``matmul`` takes (..., M, K) against either a shared (K, N)
weight or a (..., K, N) operand with equal leading dims.

Broadcast semantics for ``add`` and ``mul`` follow numpy; gradients of
broadcast operands are sum-reduced back to their shape.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, NumericalError, PrecisionError

FLOAT_DTYPES = (np.float32, np.float64)

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed differentiable operations.

    Usable as a context manager; operations run inside the ``with`` block
    are recorded.  Replaying backward visits each recorded operation exactly
    once, newest first.
    """

    __slots__ = ("_nodes",)

    def __init__(self) -> None:
        self._nodes: list[Callable[[], None]] = []

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._nodes.append(backward_fn)

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False


def _record(out: "Tensor", backward_fn: Callable[[np.ndarray], None], *operands: "Tensor") -> None:
    """Record the tape node of the op that produced ``out`` from
    ``operands``; see the module docstring for the rule and the protocol."""
    if not _TAPE_STACK:
        return
    for t in operands:
        if t.requires_grad:
            break
    else:
        return
    out.requires_grad = True

    def node():
        g = out.grad
        if g is None:
            return
        out.grad = None
        backward_fn(g)

    _TAPE_STACK[-1].record(node)


class Tensor:
    """Dense n-dimensional array plus a gradient slot filled by backward for
    tensors that require a gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False) -> None:
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


class Parameter:
    """Named learnable tensor; names are unique within a model."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Tensor) -> None:
        self.name = name
        self.value = value
        value.requires_grad = True

    @property
    def gradient(self) -> np.ndarray:
        """Accumulated gradient, zeros if the parameter was unreachable."""
        if self.value.grad is None:
            return np.zeros_like(self.value.data)
        return self.value.grad

    def zero_grad(self) -> None:
        self.value.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every tensor reachable from loss
    that requires a gradient."""
    if loss.data.size != 1:
        raise DimensionError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for fn in reversed(tape._nodes):
        fn()


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    # Every grad is exclusively owned: a first arrival adopts g only if the
    # backward owns it (a fresh result, or a view of the g its node released).
    if t.grad is None:
        t.grad = g if owned and g.dtype == t.data.dtype else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcast gradient back down to the operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise PrecisionError(
            f"{op}: mixed precisions {a.data.dtype.name} and {b.data.dtype.name}"
        )


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "add")
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        # one g reaches both operands: the first copies it, the last adopts it
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape), owned=not b.requires_grad)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape), owned=True)

    _record(out, bw, a, b)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "mul")
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape), owned=True)

    _record(out, bw, a, b)
    return out


def mulc(a: Tensor, c: float) -> Tensor:
    c = a.data.dtype.type(c)
    out = Tensor(a.data * c)

    def bw(g):
        _accum(a, g * c, owned=True)

    _record(out, bw, a)
    return out


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0
    out = Tensor(np.maximum(a.data, 0))

    def bw(g):
        _accum(a, g * (a.data > 0).astype(g.dtype), owned=True)

    _record(out, bw, a)
    return out


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        _accum(a, g.reshape(a.shape), owned=True)

    _record(out, bw, a)
    return out


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes; by default swap the last two (a batched matrix
    transpose)."""
    ax = tuple(axes) if axes is not None else (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2)
    inv = tuple(sorted(range(len(ax)), key=ax.__getitem__))
    out = Tensor(a.data.transpose(ax))

    def bw(g):
        _accum(a, g.transpose(inv), owned=True)

    _record(out, bw, a)
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero tensors")
    for p in parts[1:]:
        _check_same_dtype(parts[0], p, "concat")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                _accum(p, g[tuple(idx)])

    _record(out, bw, *parts)
    return out


def _is_advanced_index(idx) -> bool:
    comps = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(c, (list, np.ndarray)) for c in comps)


def getitem(a: Tensor, idx) -> Tensor:
    """Numpy-style indexing; gradient scatter-adds back into the source."""
    out = Tensor(np.array(a.data[idx]))
    advanced = _is_advanced_index(idx)

    def bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if advanced:
            np.add.at(a.grad, idx, g)  # repeated indices accumulate
        else:
            a.grad[idx] += g

    _record(out, bw, a)
    return out


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # a C-order copy: _accum's np.array would keep the broadcast view's
        # layout, and sums and products over a gradient laid out otherwise
        # round differently
        _accum(a, np.broadcast_to(g, a.shape).copy(), owned=True)

    _record(out, bw, a)
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis]
    return mulc(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis, scale by ``gamma``, shift by ``beta``.
    The forward rounds as the chain of taped mean, subtract, square, mean
    and power ops does; the backward is analytic."""
    _check_same_dtype(x, gamma, "layer_norm")
    _check_same_dtype(x, beta, "layer_norm")
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise DimensionError(f"layer_norm: input {x.shape}, gamma {gamma.shape}, beta {beta.shape}")
    inv_n = x.data.dtype.type(1.0 / n)
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    inv = ((xc * xc).sum(axis=-1, keepdims=True) * inv_n + x.data.dtype.type(eps)) ** -0.5
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data)

    def bw(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).reshape(-1, n).sum(axis=0), owned=True)
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, n).sum(axis=0), owned=True)
        if x.requires_grad:
            gx = g * gamma.data
            mean_gx = gx.sum(axis=-1, keepdims=True) * inv_n
            _accum(x, inv * (gx - mean_gx - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) * inv_n)), owned=True)

    _record(out, bw, x, gamma, beta)
    return out


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise NumericalError("softmax: a slice is fully masked or non-finite")
    y = np.subtract(x, m)
    np.exp(y, out=y)
    np.divide(y, y.sum(axis=axis, keepdims=True), out=y)
    return y


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int) -> Tensor:
    """Numerically stabilized softmax; -inf entries map to exactly 0."""
    out = Tensor(_softmax(a.data, axis))

    def bw(g):
        _accum(a, _softmax_grad(out.data, g, axis), owned=True)

    _record(out, bw, a)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor, rows: int = 1) -> Tensor:
    """(..., M, K) @ (K, N), one weight shared across the leading dims; or
    (..., M, K) @ (..., K, N) with equal leading dims, which batches
    independent products with no broadcasting between them.

    The forward runs one GEMM per trailing (M, K) matrix, so a sample's rows
    round alike whatever the batch size.  ``rows`` counts the axes before K
    that form M: with a shared weight, an (..., H, W, K) map passes
    ``rows=2`` and is one (H*W, K) GEMM per sample."""
    _check_same_dtype(a, b, "matmul")
    shared = b.ndim == 2
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2] or not (shared or a.shape[:-2] == b.shape[:-2]):
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    k = a.shape[-1]
    x = a.data
    if shared and rows > 1:
        x = x.reshape(a.shape[: a.ndim - 1 - rows] + (-1, k))
    out = Tensor((x @ b.data).reshape(a.shape[:-1] + b.shape[-1:]))

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2), owned=True)
        if b.requires_grad:
            if shared:
                _accum(b, a.data.reshape(-1, k).T @ g.reshape(-1, b.shape[1]), owned=True)
            else:
                _accum(b, np.swapaxes(a.data, -1, -2) @ g, owned=True)

    _record(out, bw, a, b)
    return out


def attention(x, kv, wq, bq, wk, wv, bv, wo, bo, heads: int, key_bias=None):
    """``nn.MultiHeadAttention`` as one tape node; returns the output and the
    (..., heads, Tq, Tk) weights.  It makes the numpy calls of the chain of
    taped projections, head splits, scaling and softmax, in that chain's
    order, so every result is bitwise the chain's."""
    for t in (kv, wq, bq, wk, wv, bv, wo, bo):
        _check_same_dtype(x, t, "attention")
    lead, (tq, c), tk = x.shape[:-2], x.shape[-2:], kv.shape[-2]
    if kv.shape[:-2] != lead or kv.shape[-1] != c or wq.shape[0] != c:
        raise DimensionError(f"attention: rows {x.shape} and {kv.shape}, width {wq.shape[0]}")
    n, d = len(lead), c // heads
    split = (*range(n), n + 1, n, n + 2)  # swaps the T and heads axes: its own inverse
    scale = x.data.dtype.type(1.0 / math.sqrt(d))
    q, k, v = (
        y.reshape(y.shape[:-1] + (heads, d)).transpose(split)
        for y in (x.data @ wq.data + bq.data, kv.data @ wk.data, kv.data @ wv.data + bv.data)
    )
    logits = (q @ k.swapaxes(-1, -2)) * scale
    if key_bias is not None:
        logits = logits + np.asarray(key_bias, dtype=x.data.dtype).reshape(lead + (1, 1, tk))
    w = _softmax(logits, -1)
    o = (w @ v).transpose(split).reshape(lead + (tq, c))
    out = Tensor(o @ wo.data + bo.data)

    def bw(g):
        gh = (g @ wo.data.T).reshape(lead + (tq, heads, d)).transpose(split)
        gl = _softmax_grad(w, gh @ np.swapaxes(v, -1, -2), -1) * scale
        gk = (np.swapaxes(q, -1, -2) @ gl).swapaxes(-1, -2)
        # in the chain's reverse replay order: kv takes v's gradient before
        # k's, and x q's last; each projection's bias, input, then weight
        for inp, wt, bt, gy, into in (
            (o, wo, bo, g, None), (kv.data, wv, bv, np.swapaxes(w, -1, -2) @ gh, kv),
            (kv.data, wk, None, gk, kv), (x.data, wq, bq, gl @ k, x),
        ):
            gy = gy if into is None else gy.transpose(split).reshape(inp.shape)
            if bt is not None and bt.requires_grad:
                _accum(bt, _unbroadcast(gy, bt.shape), owned=True)
            if into is not None and into.requires_grad:
                _accum(into, gy @ wt.data.T, owned=True)
            if wt.requires_grad:
                _accum(wt, inp.reshape(-1, c).T @ gy.reshape(-1, c), owned=True)

    _record(out, bw, x, kv, wq, bq, wk, wv, bv, wo, bo)
    return out, w


# ---------------------------------------------------------------------------
# spatial operators (channels-last maps)


def _pad_spatial(x: np.ndarray, pad: int) -> np.ndarray:
    if not pad:
        return x
    *lead, h, w, c = x.shape
    xp = np.zeros((*lead, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[..., pad : pad + h, pad : pad + w, :] = x
    return xp


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(..., H, W, C) -> (..., H*W, k*k*C) patch matrix, stride 1, odd k,
    zero padding of (k-1)//2 so that the windows exactly cover the map."""
    *lead, h, w, c = x.shape
    xp = _pad_spatial(x, (k - 1) // 2)
    # One read-only strided view already in (..., H, W, k, k, C) order, so
    # the reshape makes the only copy (none for k=1 on a contiguous map).
    # sliding_window_view gives (..., H, W, C, k, k), which needs a
    # transpose, and its argument checks take about 20 us a call, as long as
    # the whole copy on an 8x8 map; im2col runs about 25 times a training step.
    *lead_st, sy, sx, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (*lead, h, w, k, k, c), (*lead_st, sy, sx, sy, sx, sc), writeable=False
    )
    return win.reshape(*lead, h * w, k * k * c)


CONV_F64_RUN = 65536  # product elements per multiply of the float64 conv; sizes its scratch array


def _conv_forward_f64(x: np.ndarray, k: np.ndarray, b, pad: int) -> np.ndarray:
    # The bias (or +0.0), then one product per tap row (dy, dx, ci) added in
    # that order: a scalar reference loop's sum, bit for bit.  One multiply
    # makes a run of rows' products (at most CONV_F64_RUN elements); only the
    # adds go row by row.  Channels-first (..., Cout, H*W) products keep the
    # multiply's inner loop along the map.  A per-sample kernel (B, k, k,
    # Cin, Cout) and bias (B, Cout) broadcast over H and W.
    *lead, h, w, cin = x.shape
    kk, cout = k.shape[-4], k.shape[-1]
    n = kk * kk * cin
    if k.ndim == 5:
        kv = np.moveaxis(k.reshape(k.shape[0], n, cout), 1, 0)[..., None]  # (n, B, Cout, 1)
    else:
        kv = k.reshape(n, *(1,) * len(lead), cout, 1)
    xp = _pad_spatial(x, pad)
    *lead_st, sy, sx, sc = xp.strides
    # one copy of the padded map: row (dy, dx, ci) is its (..., 1, H*W) window
    rows = np.lib.stride_tricks.as_strided(
        xp, (kk, kk, cin, *lead, 1, h, w), (sy, sx, sc, *lead_st, 0, sy, sx), writeable=False
    ).reshape(n, *lead, 1, h * w)
    shape = (*lead, cout, h * w)
    acc = np.zeros(shape, dtype=x.dtype)
    if b is not None:
        acc[...] = b[..., None]
    run = max(1, CONV_F64_RUN // max(acc.size, 1))
    prods = np.empty((min(run, n), *shape), dtype=x.dtype)
    for lo in range(0, n, run):
        part = prods[: min(run, n - lo)]
        np.multiply(rows[lo : lo + run], kv[lo : lo + run], out=part)
        for row in part:
            acc += row
    # channels-last and C-ordered: reductions downstream sum in memory order
    return np.ascontiguousarray(np.swapaxes(acc, -1, -2)).reshape(*lead, h, w, cout)


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Stride-1 2D convolution of an (H, W, Cin) or (B, H, W, Cin) map,
    spatial size preserved.

    ``kernel`` is (k, k, Cin, Cout) with odd k, shared by every sample, or
    (B, k, k, Cin, Cout) with one kernel per sample of a batched map; the
    bias is (Cout,) or (B, Cout) to match.  Zero padding of (k-1)//2.
    The dtype picks the forward.  In double precision it equals a naive
    per-pixel loop bit for bit: one multiply makes the products of a run of
    (dy, dx, cin) tap rows, and they are added into the bias one row at a
    time in that order, so every output is the loop's sum.  In single
    precision it is one float32 im2col GEMM, each output within the
    dot-product bound gamma_K * sum|x*k| (K = k*k*Cin + 1).  The backward
    frees the float32 forward's patch matrix once used, for the heap to
    reuse, and rebuilds one only after a float64 forward, which builds none.
    """
    per_sample = kernel.ndim == 5
    batch = kernel.shape[:1] if per_sample else ()
    if (
        x.ndim not in (3, 4)
        or kernel.ndim not in (4, 5)
        or (per_sample and x.shape[:-3] != batch)
        or kernel.shape[-4] != kernel.shape[-3]
    ):
        raise DimensionError(f"conv2d: input {x.shape}, kernel {kernel.shape}")
    k, cin, cout = kernel.shape[-3], kernel.shape[-2], kernel.shape[-1]
    if k % 2 != 1:
        raise DimensionError(f"conv2d: kernel size {k} must be odd")
    if cin != x.shape[-1]:
        raise DimensionError(
            f"conv2d: input channels {x.shape} do not match kernel {kernel.shape}"
        )
    _check_same_dtype(x, kernel, "conv2d")
    if bias is not None:
        _check_same_dtype(x, bias, "conv2d")
        if bias.shape != batch + (cout,):
            raise DimensionError(f"conv2d: bias {bias.shape} vs kernel {kernel.shape}")
    pad = (k - 1) // 2
    # shared kernel: every sample's rows form one GEMM; per-sample kernel:
    # one batched GEMM over a (B, rows, k*k*C) patch stack
    rows = batch + (-1,)

    bdata = None if bias is None else bias.data
    cols_cache = None
    if x.data.dtype == np.float64:
        ydata = _conv_forward_f64(x.data, kernel.data, bdata, pad)
    else:
        cols_cache = _im2col(x.data, k)
        ydata = cols_cache.reshape(rows + (k * k * cin,)) @ kernel.data.reshape(batch + (k * k * cin, cout))
        if bdata is not None:
            ydata += bdata[..., None, :]
        ydata = ydata.reshape(x.shape[:-1] + (cout,))
    out = Tensor(ydata)

    def bw(g):
        nonlocal cols_cache
        gmat = g.reshape(rows + (cout,))
        if kernel.requires_grad:
            cols = (cols_cache if cols_cache is not None else _im2col(x.data, k)).reshape(rows + (k * k * cin,))
            cols_cache = None
            _accum(kernel, (np.swapaxes(cols, -1, -2) @ gmat).reshape(kernel.shape), owned=True)
            del cols
        if bias is not None and bias.requires_grad:
            _accum(bias, gmat.sum(axis=-2), owned=True)
        if x.requires_grad:
            # dx: correlate the output gradient with the spatially flipped kernel,
            # swapping in/out channels; valid because stride is 1 and k is odd.
            kflip = np.swapaxes(kernel.data[..., ::-1, ::-1, :, :], -1, -2)
            gcols = _im2col(g, k).reshape(rows + (k * k * cout,))
            _accum(x, (gcols @ kflip.reshape(batch + (k * k * cout, cin))).reshape(x.shape), owned=True)

    _record(out, bw, x, kernel, *(() if bias is None else (bias,)))
    return out


def weighted_conv(x: Tensor, taps: Tensor, bias: Tensor, scores: Tensor) -> Tensor:
    """sum_n s_n * conv(x, K_n, b_n) over an (..., H, W, C) map, (..., N, 3, 3, C)
    kernels, (..., N) biases and scores -> (..., H, W): one float64 GEMM per
    sample with the kernels and biases merged by one float64 sum over the
    query axis (in query order), its 9 tap columns added shifted in (dy, dx)
    order, then the bias, rounded once."""
    for t in (taps, bias, scores):
        _check_same_dtype(x, t, "weighted_conv")
    lead, (h, w, c), n = x.shape[:-3], x.shape[-3:], scores.shape[-1]
    if taps.shape != lead + (n, 3, 3, c) or bias.shape != lead + (n,) or scores.shape != lead + (n,):
        raise DimensionError(f"weighted_conv: map {x.shape}, taps {taps.shape}, bias {bias.shape}, scores {scores.shape}")
    kb = np.concatenate([taps.data.reshape(lead + (n, 9 * c)), bias.data[..., None]], axis=-1)
    merged = (scores.data.astype(np.float64)[..., None] * kb).sum(axis=-2)
    kbar, bbar = merged[..., :-1].reshape(lead + (3, 3, c)), merged[..., -1]
    cols = x.data.astype(np.float64).reshape(lead + (h * w, c)) @ np.swapaxes(kbar.reshape(lead + (9, c)), -1, -2)
    cols = cols.reshape(lead + (h, w, 3, 3))
    acc = np.zeros(lead + (h + 2, w + 2))
    for dy, dx in np.ndindex(3, 3):
        acc[..., 2 - dy : 2 - dy + h, 2 - dx : 2 - dx + w] += cols[..., dy, dx]
    out = Tensor((acc[..., 1 : h + 1, 1 : w + 1] + bbar[..., None, None]).astype(x.data.dtype))

    def bw(g):
        gcols = _im2col(g[..., None], 3)  # (..., H*W, 9)
        gsum = g.sum(axis=(-2, -1))[..., None]
        if x.requires_grad:
            kflip = kbar[..., ::-1, ::-1, :].astype(x.data.dtype).reshape(lead + (9, c))
            _accum(x, (gcols @ kflip).reshape(x.shape), owned=True)
        gk = (np.swapaxes(x.data.reshape(lead + (h * w, c)), -1, -2) @ gcols)[..., ::-1]  # merged kernel grad
        gk = np.swapaxes(gk, -1, -2).reshape(lead + (9 * c, 1))
        if taps.requires_grad:
            _accum(taps, (scores.data[..., None, None] * gk[..., None, :, :]).reshape(taps.shape), owned=True)
        if bias.requires_grad:
            _accum(bias, scores.data * gsum, owned=True)
        if scores.requires_grad:
            _accum(scores, (taps.data.reshape(lead + (n, 9 * c)) @ gk)[..., 0] + bias.data * gsum, owned=True)

    _record(out, bw, x, taps, bias, scores)
    return out


@functools.lru_cache
def _resize_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row-stochastic bilinear interpolation matrix, corners not aligned.

    Output sample i reads source coordinate (i + 0.5) * n_in / n_out - 0.5
    with edge clamping, the standard convention for segmentation decoders.
    """
    m = np.zeros((n_out, n_in), dtype=dtype)
    for i in range(n_out):
        s = (i + 0.5) * n_in / n_out - 0.5
        i0 = math.floor(s)
        frac = s - i0
        lo = min(max(i0, 0), n_in - 1)
        hi = min(max(i0 + 1, 0), n_in - 1)
        m[i, lo] += 1.0 - frac
        m[i, hi] += frac
    return m


def _apply_separable(x: np.ndarray, mh: np.ndarray, mw: np.ndarray) -> np.ndarray:
    """Apply row/column interpolation matrices to an (..., H, W, C) map."""
    *lead, h, w, c = x.shape
    oh, ow = mh.shape[0], mw.shape[0]
    y = (mh @ x.reshape(*lead, h, w * c)).reshape(*lead, oh, w, c)
    y = np.swapaxes(y, -3, -2).reshape(*lead, w, oh * c)
    y = (mw @ y).reshape(*lead, ow, oh, c)
    return np.swapaxes(y, -3, -2)


def bilinear_resize_array(x: np.ndarray, out_hw: tuple) -> np.ndarray:
    """Non-differentiable bilinear resize of an (..., H, W, C) map, for
    metrics and dumps."""
    mh = _resize_matrix(x.shape[-3], out_hw[0], x.dtype)
    mw = _resize_matrix(x.shape[-2], out_hw[1], x.dtype)
    return _apply_separable(x, mh, mw)


def upsample2x(x: Tensor) -> Tensor:
    """Bilinear 2x upsampling of an (H, W, C) or (B, H, W, C) map."""
    if x.ndim not in (3, 4):
        raise DimensionError(f"upsample2x: expected (H, W, C) or (B, H, W, C), got {x.shape}")
    h, w = x.shape[-3:-1]
    mh = _resize_matrix(h, 2 * h, x.data.dtype)
    mw = _resize_matrix(w, 2 * w, x.data.dtype)
    out = Tensor(_apply_separable(x.data, mh, mw))

    def bw(g):
        _accum(x, _apply_separable(g, mh.T, mw.T), owned=True)

    _record(out, bw, x)
    return out


def avgpool2x(x: Tensor) -> Tensor:
    """Mean over non-overlapping 2x2 blocks of an (H, W, C) or (B, H, W, C)
    map.

    Each block sums as ``((x[0,0] + x[0,1]) + x[1,0]) + x[1,1]`` and is then
    divided by 4.  With more than one channel that is the order in which
    numpy's ``mean`` over the two block axes rounds, so the result is
    bitwise that mean's in either precision; for a one-channel map numpy
    would sum the pairs ``(x[0,0] + x[0,1]) + (x[1,0] + x[1,1])``."""
    if x.ndim not in (3, 4):
        raise DimensionError(f"avgpool2x: expected (H, W, C) or (B, H, W, C), got {x.shape}")
    *lead, h, w, c = x.shape
    if h % 2 or w % 2:
        raise DimensionError(f"avgpool2x: spatial dims must be even, got {x.shape}")
    q = x.data.reshape(*lead, h // 2, 2, w // 2, 2, c)
    y = q[..., 0, :, 0, :] + q[..., 0, :, 1, :]
    y += q[..., 1, :, 0, :]
    y += q[..., 1, :, 1, :]
    y /= 4
    out = Tensor(y)

    def bw(g):
        gx = np.empty((*lead, h // 2, 2, w // 2, 2, c), dtype=g.dtype)
        gx[...] = (g * g.dtype.type(0.25))[..., :, None, :, None, :]
        _accum(x, gx.reshape(x.shape), owned=True)

    _record(out, bw, x)
    return out


# ---------------------------------------------------------------------------
# loss


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on sigmoid(logits), log-sum-exp stabilized."""
    if logits.shape != targets.shape:
        raise DimensionError(f"bce: logits {logits.shape} vs targets {targets.shape}")
    x = logits.data
    t = targets.astype(x.dtype)
    per = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    out = Tensor(np.asarray(per.mean(), dtype=x.dtype))

    def bw(g):
        s = 1.0 / (1.0 + np.exp(-x))
        _accum(logits, (s - t) * (g / x.size), owned=True)

    _record(out, bw, logits)
    return out
