"""Bit-identity digest of evaluation and the mask read-out in every mode.

Builds a default-config model (seed 0) and a generated 16-sample split, then
for each of the four modes hashes the JSON of the ``evaluate`` report and,
for the first 4 samples, one unbatched forward's ``y``, ``scores``,
``attention`` and every ``MaskBundle.masks`` map (each by name, dtype and
shape, then its bytes).  It prints one SHA-256 over all of it.  A change that
alters no evaluation or read-out result must print the same line as its
parent commit, so run it on both and compare:

    PYTHONPATH=src python tools/eval_digest.py

It covers what ``tools/train_digest.py`` never reads: the chunked scoring in
``evaluate`` and the lazily made per-query masks.  It uses only the public
model and metrics API, so it runs unchanged on older commits.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from refseg.autodiff import Tensor
from refseg.config import TRAIN_MODES, ModelConfig
from refseg.data import GrammarConfig, generate_split, vocabulary_for
from refseg.metrics import evaluate
from refseg.model import Model

SPLIT_SEED = 5
SAMPLES = 16
READ_OUT = 4


def eval_digest() -> str:
    cfg = ModelConfig()
    grammar = GrammarConfig(image_size=cfg.image_size)
    model = Model(cfg, vocabulary_for(grammar), seed=0)
    samples = generate_split(SPLIT_SEED, SAMPLES, grammar)
    h = hashlib.sha256()

    def put(name: str, arr: np.ndarray) -> None:
        h.update(f"{name}|{arr.dtype.name}|{arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())

    for mode in TRAIN_MODES:
        h.update(f"mode {mode}\n".encode())
        h.update(json.dumps(evaluate(model, samples, mode=mode).to_dict(), sort_keys=True).encode() + b"\n")
        for i, s in enumerate(samples[:READ_OUT]):
            image = Tensor(np.asarray(s.image, dtype=model.dtype))
            bundle = model.forward(image, model.tokenize(s.expression), mode=mode)
            for field in ("y", "scores", "attention"):
                put(f"{i} {field}", getattr(bundle, field).data)
            for n, mask in enumerate(bundle.masks):
                put(f"{i} mask{n}", mask.data)
    return h.hexdigest()


if __name__ == "__main__":
    print(eval_digest())
