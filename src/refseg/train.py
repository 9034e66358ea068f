"""Adam training loop with polynomial learning-rate decay, deterministic
batching, structured metric logs, and bit-exact checkpointing.

Batches come from a seeded shuffle that is a pure function of (seed, step),
so a resumed run consumes exactly the data order the original would have.
A step stacks its samples into one batch, runs one forward pass over it on
one tape, and differentiates one mean binary cross-entropy over every
sample's mask logits, which is the mean of the per-sample losses.
"""

from __future__ import annotations

import functools
import json
import os
import struct
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .autodiff import Tape, Tensor, backward
from .config import TrainConfig, train_config_from_dict, train_config_to_dict
from .encoders import TokenSequence, Vocabulary
from .errors import CheckpointError, ConfigError, NumericalError
from .metrics import bce_loss, downsample_mask_nearest, evaluate
from .model import Model
from .nn import ParamStore, mapped_zeros
from .tensor_io import write_tensor

CHECKPOINT_MAGIC = b"EAVC"
CHECKPOINT_VERSION = 5


def polynomial_lr(base_lr: float, step: int, total_steps: int, power: float) -> float:
    """base_lr * (1 - step/total)^power, clamped to 0 at the horizon."""
    frac = min(max(step, 0), total_steps) / total_steps
    return base_lr * (1.0 - frac) ** power


ADAM_CHUNK = 16384  # elements per pass of the in-place update; sizes its two scratch arrays


class Adam:
    """Adam over a packed ParamStore's arena.

    The moments live in two buffers laid out like the arena, ``flat_m`` and
    ``flat_v``, mapped together with the update's scratch; ``m[name]`` and
    ``v[name]`` are views of a parameter's slots.

    ``step`` updates the three in place, in chunks of ``ADAM_CHUNK``
    elements, with two chunk-sized scratch arrays and no allocation.  Each
    chunk first gathers the gradients of the slots it covers (a ``None``
    gradient reads as zeros), then runs ``m = m*b1 + (1-b1)*g``,
    ``v = v*b2 + ((1-b2)*g)*g`` and
    ``p -= lr * ((m/bc1) / (sqrt(v/bc2) + eps))`` in that op order, so the
    result is bit-identical to the same numpy expression per tensor.
    Hyperparameters are Python floats, so every op runs in the arena's dtype.
    Gradients stay per-parameter arrays that backward allocates: with them
    in the arena, a train step allocated nothing long-lived, and glibc then
    returned the step's freed heap to the OS and faulted it back in on
    every step (about 2700 page faults a default-config step).
    """

    def __init__(self, store: ParamStore, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        if store.arena is None:
            raise ConfigError("Adam needs a packed ParamStore")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.store = store
        params, end = store.parameters(), store.arena.size
        # per chunk, the gradient runs it gathers: (parameter index, first, stop, offset in chunk)
        self._runs = [[] for _ in range(0, end, ADAM_CHUNK)]
        for i, (p, off) in enumerate(zip(params, store.offsets)):
            lo, hi = off, off + p.value.data.size
            while lo < hi:
                c, at = divmod(lo, ADAM_CHUNK)
                stop = min(hi, (c + 1) * ADAM_CHUNK)
                self._runs[c].append((i, lo - off, stop - off, at))
                lo = stop
        chunk = min(end, ADAM_CHUNK)
        flat = mapped_zeros(2 * end + 2 * chunk, store.dtype)
        self.flat_m, self.flat_v = flat[: 2 * end].reshape(2, end)
        self._scratch = flat[2 * end :].reshape(2, chunk)
        names = [p.name for p in params]
        self.m = dict(zip(names, store.slots(self.flat_m)))
        self.v = dict(zip(names, store.slots(self.flat_v)))

    def step(self, lr: float) -> None:
        grads = [p.value.grad for p in self.store.parameters()]
        self.t += 1
        b1, b2, eps, lr = self.beta1, self.beta2, self.eps, float(lr)
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        g_buf, a_buf = self._scratch
        flats = (self.store.arena, self.flat_m, self.flat_v)
        for lo, runs in zip(range(0, self.flat_m.size, ADAM_CHUNK), self._runs):
            p, m, v = (f[lo : lo + ADAM_CHUNK] for f in flats)
            g, a = g_buf[: p.size], a_buf[: p.size]
            g.fill(0)
            for i, first, stop, at in runs:
                if grads[i] is not None:
                    g[at : at + stop - first] = grads[i].reshape(-1)[first:stop]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            d = g  # the gradient is spent: its buffer takes the denominator
            np.divide(v, bc2, out=d)
            np.sqrt(d, out=d)
            np.add(d, eps, out=d)
            np.divide(m, bc1, out=a)
            np.divide(a, d, out=a)
            np.multiply(a, lr, out=a)
            np.subtract(p, a, out=p)


@dataclass
class TrainState:
    model: Model
    optimizer: Adam
    step: int


def init_state(cfg: TrainConfig, vocab: Vocabulary) -> TrainState:
    model = Model(cfg.model, vocab, seed=cfg.seed)
    opt = Adam(model.store, cfg.beta1, cfg.beta2, cfg.adam_eps)
    return TrainState(model=model, optimizer=opt, step=0)


@functools.lru_cache(maxsize=256)
def _epoch_permutation(seed: int, n: int, epoch: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence((seed, 7919, epoch))).permutation(n)


def batch_indices(seed: int, n: int, batch_size: int, step: int) -> list:
    """Sample indices for one step of the seeded shuffled stream."""
    out = []
    for pos in range(step * batch_size, (step + 1) * batch_size):
        epoch, offset = divmod(pos, n)
        out.append(int(_epoch_permutation(seed, n, epoch)[offset]))
    return out


def _dump_batch(dump_dir, samples, indices, loss_value: float) -> None:
    dump_dir = Path(dump_dir)
    dump_dir.mkdir(parents=True, exist_ok=True)
    for j, i in enumerate(indices):
        write_tensor(dump_dir / f"batch{j}_image.eavt", samples[i].image.astype(np.float32))
        write_tensor(dump_dir / f"batch{j}_gt.eavt", samples[i].gt_mask.astype(np.float32))
    (dump_dir / "batch.json").write_text(
        json.dumps({"indices": indices, "loss": loss_value}, sort_keys=True)
    )


def train(
    cfg: TrainConfig,
    state: TrainState,
    train_samples: list,
    val_samples: Optional[list] = None,
    log: Optional[Callable[[str], None]] = None,
    max_step: Optional[int] = None,
    dump_dir: Optional[str] = None,
) -> TrainState:
    """Advance ``state`` to ``max_step`` (default cfg.steps), logging one
    JSON line per step and a periodic evaluation report."""
    if not train_samples:
        raise ConfigError("train: empty training set")
    model = state.model
    n = len(train_samples)
    target = cfg.steps if max_step is None else min(max_step, cfg.steps)

    while state.step < target:
        step = state.step
        lr = polynomial_lr(cfg.lr, step, cfg.total_steps, cfg.decay_power)
        indices = batch_indices(cfg.seed, n, cfg.batch_size, step)
        images = Tensor(np.stack([np.asarray(train_samples[i].image, dtype=model.dtype) for i in indices]))
        tokens = TokenSequence.stack([model.tokenize(train_samples[i].expression) for i in indices])
        with Tape() as tape:
            bundle = model.forward(images, tokens, mode=cfg.mode)
            mask_hw = bundle.y.shape[-2:]
            gt = downsample_mask_nearest(np.stack([train_samples[i].gt_mask for i in indices]), mask_hw)
            loss = bce_loss(bundle.y, gt)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            if dump_dir is not None:
                _dump_batch(dump_dir, train_samples, indices, loss_value)
            raise NumericalError(f"non-finite loss {loss_value} at step {step + 1}")
        model.zero_grad()
        backward(tape, loss)
        state.optimizer.step(lr)
        state.step = step + 1
        if log is not None:
            log(json.dumps({"loss": loss_value, "lr": lr, "step": state.step}, sort_keys=True))
        if cfg.eval_every and (state.step % cfg.eval_every == 0 or state.step == cfg.steps):
            held_out = val_samples if val_samples else train_samples
            report = evaluate(model, held_out, mode=cfg.mode)
            if log is not None:
                record = {"step": state.step, "split": "val" if val_samples else "train"}
                record.update(report.to_dict())
                log(json.dumps(record, sort_keys=True))
    return state


# ---------------------------------------------------------------------------
# checkpoints: json header, then the parameter, m and v arenas as raw payloads


def _param_table(model: Model) -> list:
    """[name, shape] of every parameter, in arena order."""
    return [[p.name, list(p.value.shape)] for p in model.parameters()]


def save_checkpoint(path, cfg: TrainConfig, state: TrainState) -> None:
    """Write the checkpoint atomically: to a temporary file in the same
    directory, synced, then renamed onto ``path``, so a save that fails
    part-way leaves the previous file as it was."""
    opt = state.optimizer
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": train_config_to_dict(cfg),
        "vocab": list(state.model.vocab.words),
        "step": state.step,
        "adam_t": opt.t,
        "params": _param_table(state.model),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)))
            f.write(blob)
            for arena in (state.model.store.arena, opt.flat_m, opt.flat_v):
                f.write(memoryview(arena))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Rebuild (cfg, state, vocab) from a checkpoint file, bit-exactly.

    The model is built with nothing drawn (``seed=None``); once the
    header's parameter table and the file size match it, each arena is read
    in place."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read {path} ({type(e).__name__})") from e
    with f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if len(head) < 16 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        version, header_len = struct.unpack_from("<IQ", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
            )
        if size < 16 + header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(f.read(header_len))
            config, words, step, adam_t, params = (
                header[k] for k in ("config", "vocab", "step", "adam_t", "params")
            )
            cfg = train_config_from_dict(dict(config))
            vocab = Vocabulary(tuple(words))
        except (ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: malformed header ({type(e).__name__}: {e})")
        for key, count in (("step", step), ("adam_t", adam_t)):
            if type(count) is not int or count < 0:
                raise CheckpointError(f"{path}: header {key} must be a non-negative int, got {count!r}")

        model = Model(cfg.model, vocab, seed=None)
        expected = _param_table(model)
        if params != expected:
            listed = params if isinstance(params, list) else [params]
            got, want = next(
                (a, b) for a, b in zip_longest(listed, expected, fillvalue="nothing") if a != b
            )
            raise CheckpointError(f"{path}: parameter table lists {got}, this model has {want}")
        opt = Adam(model.store, cfg.beta1, cfg.beta2, cfg.adam_eps)
        opt.t = adam_t
        arenas = (model.store.arena, opt.flat_m, opt.flat_v)
        want_size = 16 + header_len + sum(a.nbytes for a in arenas)
        if size != want_size:
            raise CheckpointError(f"{path}: {size} bytes, expected {want_size}")
        for arena in arenas:
            f.readinto(memoryview(arena))
    return cfg, TrainState(model=model, optimizer=opt, step=step), vocab
