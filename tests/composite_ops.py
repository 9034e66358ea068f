"""Taped elementwise ops the model does not use, kept for tests that build
reference compositions (layer norm as a chain of primitive ops, a composite
gradient check).  They follow ``refseg.autodiff``'s node protocol."""

import numpy as np

from refseg import autodiff as ad
from refseg.autodiff import Tensor
from refseg.errors import DimensionError


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad._check_same_dtype(a, b, "sub")
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        if a.requires_grad:
            ad._accum(a, ad._unbroadcast(g, a.shape))
        if b.requires_grad:
            ad._accum(b, ad._unbroadcast(-g, b.shape))

    ad._record(out, bw, a, b)
    return out


def addc(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data + a.data.dtype.type(c))

    def bw(g):
        ad._accum(a, g)

    ad._record(out, bw, a)
    return out


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y)

    def bw(g):
        ad._accum(a, g * y)

    ad._record(out, bw, a)
    return out


def powc(a: Tensor, p: float) -> Tensor:
    """Elementwise power with a constant exponent (data must support it)."""
    out = Tensor(a.data**p)

    def bw(g):
        ad._accum(a, g * p * a.data ** (p - 1))

    ad._record(out, bw, a)
    return out
