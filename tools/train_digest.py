"""Bit-identity digest of a short training run in every mode.

Trains ``--steps`` steps at the default model config in each of the four
modes, saves the state to a checkpoint and loads it back, then takes one
more step on both the live and the loaded state.  It prints one SHA-256 over
every parameter, ``Parameter.gradient``, ``opt.m``, ``opt.v`` (each by name,
dtype and shape) of both states and all the log lines, then a second SHA-256
over the bytes of the four checkpoint files.  A change that alters no float
result, and keeps checkpoints bit-exact, must print the same two lines as its
parent commit, so run it on both and compare:

    PYTHONPATH=src python tools/train_digest.py --steps 3 --batch 4 --precision single

A change confined to float32 rounding (a different sum order or accumulation
dtype in a single-precision op) moves the ``--precision single`` digest but
must still print its parent's ``--precision double`` digest.  A change to the
checkpoint header or layout moves only the second line.

It uses only the public training API, so it runs unchanged on older commits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from refseg.config import TRAIN_MODES, ModelConfig, TrainConfig
from refseg.data import GrammarConfig, generate_split, vocabulary_for
from refseg.train import init_state, load_checkpoint, save_checkpoint, train

SPLIT_SEED = 11


def train_runs(model_cfg: ModelConfig, steps: int, batch: int, work) -> list:
    """Train ``steps`` steps in each mode from the same seed and data, round
    the state through a checkpoint ``<work>/<mode>.eavc`` and step both
    copies once; returns one (mode, (live state, loaded state), log lines)
    per mode."""
    grammar = GrammarConfig(image_size=model_cfg.image_size)
    vocab = vocabulary_for(grammar)
    samples = generate_split(SPLIT_SEED, 4 * batch, grammar)
    runs = []
    for mode in TRAIN_MODES:
        cfg = TrainConfig(model=model_cfg, steps=steps + 1, batch_size=batch, mode=mode, seed=0)
        state = init_state(cfg, vocab)
        lines: list = []
        train(cfg, state, samples, log=lines.append, max_step=steps)
        path = Path(work) / f"{mode}.eavc"
        save_checkpoint(path, cfg, state)
        loaded_cfg, loaded, _ = load_checkpoint(path)
        train(cfg, state, samples, log=lines.append)
        train(loaded_cfg, loaded, samples, log=lines.append)
        runs.append((mode, (state, loaded), lines))
    return runs


def digest(runs: list) -> str:
    h = hashlib.sha256()

    def put(name: str, arr: np.ndarray) -> None:
        h.update(f"{name}|{arr.dtype.name}|{arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())

    for mode, states, lines in runs:
        h.update(f"mode {mode}\n".encode())
        for line in lines:
            h.update(line.encode() + b"\n")
        for which, state in zip(("live", "loaded"), states):
            opt = state.optimizer
            for p in sorted(state.model.parameters(), key=lambda p: p.name):
                put(f"{which} param {p.name}", p.value.data)
                put(f"{which} grad {p.name}", p.gradient)
                put(f"{which} m {p.name}", opt.m[p.name])
                put(f"{which} v {p.name}", opt.v[p.name])
    return h.hexdigest()


def checkpoint_digest(work) -> str:
    """One SHA-256 over the bytes of the checkpoints ``train_runs`` wrote."""
    h = hashlib.sha256()
    for mode in TRAIN_MODES:
        h.update((Path(work) / f"{mode}.eavc").read_bytes())
    return h.hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--batch", type=int, default=4)
    ap.add_argument("--precision", choices=("single", "double"), default="single")
    args = ap.parse_args(argv)
    model_cfg = dataclasses.replace(ModelConfig(), precision=args.precision)
    with tempfile.TemporaryDirectory() as work:
        print(digest(train_runs(model_cfg, args.steps, args.batch, work)))
        print(checkpoint_digest(work))


if __name__ == "__main__":
    main()
