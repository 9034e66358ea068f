"""Adam training loop with polynomial learning-rate decay, deterministic
batching, structured metric logs, and bit-exact checkpointing.

Batches come from a seeded shuffle that is a pure function of (seed, step),
so a resumed run consumes exactly the data order the original would have.
A step stacks its samples into one batch, runs one forward pass over it on
one tape, and differentiates one mean binary cross-entropy over every
sample's mask logits, which is the mean of the per-sample losses.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .autodiff import Tape, Tensor, backward
from .config import TrainConfig, train_config_from_dict, train_config_to_dict
from .encoders import TokenSequence, Vocabulary
from .errors import CheckpointError, NumericalError, PrecisionError
from .metrics import bce_loss, downsample_mask_nearest, evaluate
from .model import Model
from .tensor_io import tensor_from_bytes, tensor_to_bytes, write_tensor

CHECKPOINT_MAGIC = b"EAVC"
CHECKPOINT_VERSION = 4


def polynomial_lr(base_lr: float, step: int, total_steps: int, power: float) -> float:
    """base_lr * (1 - step/total)^power, clamped to 0 at the horizon."""
    frac = min(max(step, 0), total_steps) / total_steps
    return base_lr * (1.0 - frac) ** power


class Adam:
    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value.data) for p in params}
        self.v = {p.name: np.zeros_like(p.value.data) for p in params}

    def step(self, params, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p in params:
            g = p.gradient
            m = self.m[p.name]
            v = self.v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.value.data -= np.asarray(lr * update, dtype=p.value.data.dtype)


@dataclass
class TrainState:
    model: Model
    optimizer: Adam
    step: int


def init_state(cfg: TrainConfig, vocab: Vocabulary) -> TrainState:
    model = Model(cfg.model, vocab, seed=cfg.seed)
    opt = Adam(model.parameters(), cfg.beta1, cfg.beta2, cfg.adam_eps)
    return TrainState(model=model, optimizer=opt, step=0)


_PERM_CACHE: dict = {}


def _epoch_permutation(seed: int, n: int, epoch: int) -> np.ndarray:
    key = (seed, n, epoch)
    perm = _PERM_CACHE.get(key)
    if perm is None:
        perm = np.random.default_rng(np.random.SeedSequence((seed, 7919, epoch))).permutation(n)
        if len(_PERM_CACHE) > 256:
            _PERM_CACHE.clear()
        _PERM_CACHE[key] = perm
    return perm


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
    model = state.model
    n = len(train_samples)
    target = cfg.steps if max_step is None else min(max_step, cfg.steps)
    tokens_cache = [model.tokenize(s.expression) for s in train_samples]

    while state.step < target:
        step = state.step
        lr = polynomial_lr(cfg.lr, step, cfg.total_steps, cfg.decay_power)
        indices = batch_indices(cfg.seed, n, cfg.batch_size, step)
        images = Tensor(np.stack([np.asarray(train_samples[i].image, dtype=model.dtype) for i in indices]))
        tokens = TokenSequence.stack([tokens_cache[i] for i in indices])
        with Tape() as tape:
            bundle = model.forward(images, tokens, mode=cfg.mode)
            mask_hw = bundle.y.shape[-2:]
            gt = np.stack([downsample_mask_nearest(train_samples[i].gt_mask, mask_hw) for i in indices])
            loss = bce_loss(bundle.y, gt)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            if dump_dir is not None:
                _dump_batch(dump_dir, train_samples, indices, loss_value)
            raise NumericalError(f"non-finite loss {loss_value} at step {step + 1}")
        model.zero_grad()
        backward(tape, loss)
        state.optimizer.step(model.parameters(), lr)
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
# checkpoints: json header plus named EAVT blobs


def _checkpoint_arrays(state: TrainState) -> dict:
    """Name -> array of everything a checkpoint holds besides its header:
    the parameters, then ``opt.m.*``, then ``opt.v.*``, each by name."""
    params = {p.name: p.value.data for p in state.model.parameters()}
    names = sorted(params)
    table = {n: params[n] for n in names}
    table.update({f"opt.m.{n}": state.optimizer.m[n] for n in names})
    table.update({f"opt.v.{n}": state.optimizer.v[n] for n in names})
    return table


def save_checkpoint(path, cfg: TrainConfig, state: TrainState) -> None:
    table = _checkpoint_arrays(state)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": train_config_to_dict(cfg),
        "vocab": list(state.model.vocab.words),
        "step": state.step,
        "adam_t": state.optimizer.t,
        "tensors": list(table),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for arr in table.values():
            payload = tensor_to_bytes(arr)
            f.write(struct.pack("<Q", len(payload)))
            f.write(payload)


def load_checkpoint(path, expect_precision: Optional[str] = None):
    """Rebuild (cfg, state, vocab) from a checkpoint file, bit-exactly."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}"
        )
    offset = 16
    if len(raw) < offset + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset : offset + header_len])
        config, words, step, adam_t, names = (
            header[k] for k in ("config", "vocab", "step", "adam_t", "tensors")
        )
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed header ({type(e).__name__}: {e})")
    offset += header_len

    cfg = train_config_from_dict(config)
    if expect_precision is not None and cfg.model.precision != expect_precision:
        raise PrecisionError(
            f"{path}: checkpoint precision {cfg.model.precision!r}, "
            f"requested {expect_precision!r}"
        )
    vocab = Vocabulary(tuple(words))
    state = init_state(cfg, vocab)
    state.step = step
    state.optimizer.t = adam_t

    stored = {}
    for tname in names:
        if len(raw) < offset + 8:
            raise CheckpointError(f"{path}: truncated before tensor {tname!r}")
        (blob_len,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
        if len(raw) < offset + blob_len:
            raise CheckpointError(f"{path}: truncated tensor {tname!r}")
        stored[tname] = tensor_from_bytes(raw[offset : offset + blob_len])
        offset += blob_len

    table = _checkpoint_arrays(state)
    if stored.keys() != table.keys():
        raise CheckpointError(
            f"{path}: entry set mismatch (missing {sorted(table.keys() - stored.keys())[:3]}, "
            f"unexpected {sorted(stored.keys() - table.keys())[:3]})"
        )
    for name, dst in table.items():
        arr = stored[name]
        if arr.shape != dst.shape:
            raise CheckpointError(f"{path}: {name} shape {arr.shape} vs {dst.shape}")
        if arr.dtype != dst.dtype:
            raise PrecisionError(
                f"{path}: {name} stored as {arr.dtype.name}, model expects {dst.dtype.name}"
            )
        dst[...] = arr
    return cfg, state, vocab
