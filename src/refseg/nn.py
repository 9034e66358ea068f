"""Parameter management and the layers every model module builds on:
linear, conv, layer norm, attention and feed-forward."""

from __future__ import annotations

import math
import mmap
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError


def linear_init(fan_in: int) -> Callable:
    bound = 1.0 / math.sqrt(fan_in)

    def init(rng, shape, dtype):
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return init


def scaled_init(fan_in: int, gain: float = 1.0) -> Callable:
    """Uniform init with Var = gain/fan_in: preserves activation scale
    through a plain matrix (gain 1) or a matrix feeding ReLU (gain 2).
    Matters here because several projection paths have no normalization
    layer to rescue a shrinking signal."""
    bound = math.sqrt(3.0 * gain / fan_in)

    def init(rng, shape, dtype):
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return init


def normal_init(std: float) -> Callable:
    def init(rng, shape, dtype):
        return (rng.standard_normal(shape) * std).astype(dtype)

    return init


def conv_init(k: int, cin: int) -> Callable:
    return normal_init(math.sqrt(2.0 / (k * k * cin)))


def zeros_init(rng, shape, dtype):
    return np.zeros(shape, dtype=dtype)


def ones_init(rng, shape, dtype):
    return np.ones(shape, dtype=dtype)


ARENA_ALIGN = 16  # every arena slot starts at a multiple of this many elements
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def mapped_zeros(count: int, dtype: np.dtype) -> np.ndarray:
    """``count`` zeros in an anonymous memory mapping of their own: unlike a
    malloc'd array, it never sits in the heap among a train step's
    temporaries, its pages become resident only when written, and they go
    back to the OS when the last view of it is freed.  Allocated from the
    heap instead, the arenas fragmented it: peak RSS of the four-model trend
    workload rose 4% over per-tensor arrays, against 2% for the mapping."""
    return np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1), **_PRIVATE), dtype, count)


class ParamStore:
    """Creates and indexes uniquely named Parameters for one model.

    ``pack`` fixes the set: it moves the parameters, in creation order, into
    one flat ``arena`` with each slot at ``offsets[i]``, a multiple of
    ``ARENA_ALIGN``, and makes each ``value.data`` a view of its slot.
    ``seed=None`` draws nothing: every parameter starts at zero.
    """

    def __init__(self, dtype=np.float32, seed: Optional[int] = 0) -> None:
        self.dtype = np.dtype(dtype)
        self.rng = None if seed is None else np.random.default_rng(seed)
        self._params: dict[str, Parameter] = {}
        self.arena: Optional[np.ndarray] = None

    def parameter(self, name: str, shape, init: Callable) -> Parameter:
        if self.arena is not None:
            raise ConfigError(f"parameter {name!r} added after the store was packed")
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        data = np.zeros(shape, self.dtype) if self.rng is None else init(self.rng, tuple(shape), self.dtype)
        p = Parameter(name, Tensor(data))
        self._params[name] = p
        return p

    def pack(self) -> None:
        self.offsets, end = [], 0
        for p in self._params.values():
            self.offsets.append(end)
            end += -(-p.value.data.size // ARENA_ALIGN) * ARENA_ALIGN
        self.arena = mapped_zeros(end, self.dtype)
        for p, slot in zip(self._params.values(), self.slots(self.arena)):
            slot[...] = p.value.data
            p.value.data = slot

    def slots(self, flat: np.ndarray) -> list[np.ndarray]:
        """One view per parameter of ``flat``, an array laid out like the arena."""
        return [
            flat[off : off + p.value.data.size].reshape(p.value.shape)
            for p, off in zip(self._params.values(), self.offsets)
        ]

    def matrix(self, name: str, fan_in: int, fan_out: int, gain: float = 1.0) -> Parameter:
        return self.parameter(name, (fan_in, fan_out), scaled_init(fan_in, gain))

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def get(self, name: str) -> Parameter:
        return self._params[name]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()


def linear(x: Tensor, w: Parameter, b: Optional[Parameter] = None, *, rows: int = 1) -> Tensor:
    """x @ w (+ b); ``rows`` as in ``ad.matmul``."""
    y = ad.matmul(x, w.value, rows=rows)
    if b is not None:
        y = ad.add(y, b.value)
    return y


class Conv:
    """A learned k x k convolution: ``{name}.kernel`` (He init), then
    ``{name}.bias`` (zeros)."""

    def __init__(self, store: ParamStore, name: str, k: int, cin: int, cout: int) -> None:
        self.kernel = store.parameter(f"{name}.kernel", (k, k, cin, cout), conv_init(k, cin))
        self.bias = store.parameter(f"{name}.bias", (cout,), zeros_init)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.kernel.value, self.bias.value)


class LayerNorm:
    EPS = 1e-5

    def __init__(self, store: ParamStore, name: str, width: int) -> None:
        self.gamma = store.parameter(f"{name}.gamma", (width,), ones_init)
        self.beta = store.parameter(f"{name}.beta", (width,), zeros_init)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma.value, self.beta.value, self.EPS)


class MultiHeadAttention:
    """Multi-head attention with learned Q, K, V and output projections.

    Rows are (T, C) or, batched, (B, T, C).  Self-attention when ``kv`` is
    omitted; cross-attention otherwise.  There is no positional term inside
    the block, so it is equivariant to row permutations of ``x`` and
    invariant to row permutations of ``kv``.  ``key_bias`` (one value per
    key, 0 or -inf, per sample when batched) masks keys out.
    """

    def __init__(self, store: ParamStore, name: str, width: int, heads: int) -> None:
        if width % heads != 0:
            raise ConfigError(f"{name}: width {width} not divisible by {heads} heads")
        self.width = width
        self.heads = heads
        self.head_dim = width // heads
        ini = linear_init(width)
        self.wq = store.parameter(f"{name}.wq", (width, width), ini)
        self.bq = store.parameter(f"{name}.bq", (width,), zeros_init)
        # no key bias: a uniform shift of every key cancels inside softmax,
        # so the parameter would be unidentifiable
        self.wk = store.parameter(f"{name}.wk", (width, width), ini)
        self.wv = store.parameter(f"{name}.wv", (width, width), ini)
        self.bv = store.parameter(f"{name}.bv", (width,), zeros_init)
        self.wo = store.parameter(f"{name}.wo", (width, width), ini)
        self.bo = store.parameter(f"{name}.bo", (width,), zeros_init)

    def __call__(
        self,
        x: Tensor,
        kv: Optional[Tensor] = None,
        key_bias: Optional[np.ndarray] = None,
    ) -> Tensor:
        params = (self.wq, self.bq, self.wk, self.wv, self.bv, self.wo, self.bo)
        return ad.attention(x, x if kv is None else kv, *(p.value for p in params), self.heads, key_bias)[0]


class FeedForward:
    """Two-layer position-wise MLP with ReLU, hidden width 4x."""

    def __init__(self, store: ParamStore, name: str, width: int) -> None:
        hidden = 4 * width
        self.w1 = store.parameter(f"{name}.w1", (width, hidden), linear_init(width))
        self.b1 = store.parameter(f"{name}.b1", (hidden,), zeros_init)
        self.w2 = store.parameter(f"{name}.w2", (hidden, width), linear_init(hidden))
        self.b2 = store.parameter(f"{name}.b2", (width,), zeros_init)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(ad.relu(linear(x, self.w1, self.b1)), self.w2, self.b2)
