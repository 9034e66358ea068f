import contextlib
import dataclasses

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.data import GrammarConfig, vocabulary_for
from refseg.gradsuite import tiny_config


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_cfg():
    """Smallest full-pipeline config: 16x16 image, C=8, 2 queries."""
    return tiny_config()


@pytest.fixture
def tiny_grammar():
    return GrammarConfig(image_size=16, max_shapes=3, size_frac_min=0.12, size_frac_max=0.2)


@pytest.fixture
def vocab():
    return vocabulary_for(GrammarConfig())


@contextlib.contextmanager
def _permuted_queries(model, perm):
    """Inside the block ``model``'s query generator hands on its query rows
    in ``perm`` order (``None`` leaves them as they are), so the decoder, the
    kernels and the scores all see the permuted queries."""
    real = model.query_gen
    if perm is not None:
        index = (Ellipsis, np.asarray(perm, dtype=np.int64), slice(None))

        def permuted(*args, **kwargs):
            queries = real(*args, **kwargs)
            return dataclasses.replace(queries, f_q=ad.getitem(queries.f_q, index))

        model.query_gen = permuted
    try:
        yield
    finally:
        model.query_gen = real


@pytest.fixture
def permuted_queries():
    return _permuted_queries


@pytest.fixture
def attention_weights(monkeypatch):
    """The (..., heads, Tq, Tk) weights of every ``ad.attention`` call the
    test makes, in call order."""
    calls = []
    real = ad.attention

    def recording(*args, **kwargs):
        out, weights = real(*args, **kwargs)
        calls.append(weights)
        return out, weights

    monkeypatch.setattr(ad, "attention", recording)
    return calls
