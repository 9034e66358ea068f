"""Model and training configuration, plus the flat key=value file format.

Config files are diff-friendly text: one ``section.key=value`` per line,
``#`` comments and blank lines ignored.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .errors import ConfigError

TRAIN_MODES = ("full", "fixed_kernel", "no_estimator", "no_fvg")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    ``fusion_width`` is the shared vision-language width C; Cp = C/2 is the
    per-query kernel channel count.  The backbone downsamples by 2 per stage,
    so stages 2..4 sit at 1/4, 1/8 and 1/16 of the input resolution and the
    fused feature grid at 1/8 (one 2x upsample above stage 4).
    """

    image_size: int = 64
    fusion_width: int = 64          # C
    text_global_width: int = 64     # C'
    num_queries: int = 8            # N_q
    max_tokens: int = 17            # L_max, [SOS] and [EOS] included
    heads: int = 4
    text_layers: int = 2
    decoder_layers: int = 2
    backbone_channels: tuple = (16, 32, 64, 64)
    precision: str = "single"       # "single" | "double"

    def __post_init__(self):
        self.backbone_channels = tuple(int(c) for c in self.backbone_channels)
        sizes = (self.image_size, self.fusion_width, self.text_global_width, self.heads)
        if min(sizes + self.backbone_channels) < 1:
            raise ConfigError(
                f"image_size, widths, heads and backbone_channels must be positive, "
                f"got {sizes} and {self.backbone_channels}"
            )
        if self.fusion_width % 2 != 0:
            raise ConfigError(f"fusion_width {self.fusion_width} must be even")
        if self.image_size % 16 != 0:
            raise ConfigError(f"image_size {self.image_size} must be divisible by 16")
        if self.fusion_width % self.heads != 0:
            raise ConfigError(
                f"fusion_width {self.fusion_width} not divisible by heads {self.heads}"
            )
        if len(self.backbone_channels) != 4:
            raise ConfigError("backbone_channels needs exactly 4 stages")
        if self.backbone_channels[3] % self.heads != 0:
            raise ConfigError(
                f"stage-4 channels {self.backbone_channels[3]} not divisible by heads"
            )
        if self.num_queries < 1:
            raise ConfigError("num_queries must be >= 1")
        if self.max_tokens < 2:
            raise ConfigError("max_tokens must fit [SOS] and [EOS]")
        if self.precision not in ("single", "double"):
            raise ConfigError(f"precision {self.precision!r} must be single or double")

    @property
    def kernel_channels(self) -> int:
        return self.fusion_width // 2  # Cp

    @property
    def grid_size(self) -> int:
        """Side length of the fused feature grid (and of F_v3)."""
        return self.image_size // 8

    @property
    def mask_size(self) -> int:
        """Side length of predicted mask logits: 4x the fused grid."""
        return 4 * self.grid_size

    @property
    def num_tokens(self) -> int:
        """Visual token count N entering the decoder."""
        return self.grid_size * self.grid_size


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    decay_power: float = 0.9
    total_steps: Optional[int] = None  # schedule horizon; defaults to steps
    steps: int = 1000
    batch_size: int = 4
    seed: int = 0
    mode: str = "full"
    eval_every: int = 0  # 0 disables periodic evaluation
    data_root: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.steps <= 0:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.decay_power >= 0:  # NaN included
            raise ConfigError(f"decay_power must be non-negative, got {self.decay_power}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:  # NaN included
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ConfigError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be non-negative, got {self.eval_every}")
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode {self.mode!r} not one of {TRAIN_MODES}")
        if self.total_steps is None:
            self.total_steps = self.steps
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")


# ---------------------------------------------------------------------------
# flat key=value files


def parse_kv_text(text: str) -> dict:
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        out[key] = value
    return out


def read_text(path) -> str:
    """A user-given text file's contents; a missing, unreadable or
    non-UTF-8 file raises ``ConfigError`` naming the path."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path} ({type(e).__name__})") from e


def read_kv_file(path) -> dict:
    return parse_kv_text(read_text(path))


def write_kv_file(path, pairs: dict) -> None:
    lines = [f"{k}={v}" for k, v in pairs.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def _cast(default):
    """The reader for a field with this default: a tuple is a comma list of
    its items' type, and ``None`` (``total_steps``) is an int."""
    if isinstance(default, tuple):
        item = _cast(default[0])
        return lambda v: tuple(item(c) for c in v.split(","))
    return int if default is None else type(default)


def field_casts(cls) -> dict:
    """{name: reader} for each field of the dataclass ``cls`` that has a
    plain default; a nested config (a ``default_factory``) is its own section."""
    return {f.name: _cast(f.default) for f in fields(cls) if f.default is not MISSING}


def field_pairs(obj, prefix: str) -> dict:
    """{prefix + name: text} for each field ``field_casts`` reads, in field
    order; a tuple is written as a comma list."""
    out = {}
    for k in field_casts(type(obj)):
        v = getattr(obj, k)
        out[prefix + k] = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
    return out


def section_kwargs(pairs: dict, prefix: str, keys: dict) -> dict:
    """{k: cast(pairs[prefix + k])} for each ``k: cast`` in ``keys`` whose
    key is present; a value the cast refuses is a ConfigError naming the key."""
    out = {}
    for k, cast in keys.items():
        key = prefix + k
        if key in pairs:
            try:
                out[k] = cast(pairs[key])
            except (AttributeError, TypeError, ValueError):
                raise ConfigError(f"{key}: cannot read value {pairs[key]!r}") from None
    return out


def train_config_from_dict(pairs: dict) -> TrainConfig:
    """Build a TrainConfig from ``model.*`` and ``train.*`` pairs.  A key
    that is not read, such as a misspelt one, is an error rather than a
    silent default."""
    model_keys, train_keys = field_casts(ModelConfig), field_casts(TrainConfig)
    known = {f"model.{k}" for k in model_keys} | {f"train.{k}" for k in train_keys}
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    model = ModelConfig(**section_kwargs(pairs, "model.", model_keys))
    return TrainConfig(model=model, **section_kwargs(pairs, "train.", train_keys))


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return {**field_pairs(cfg.model, "model."), **field_pairs(cfg, "train.")}


def load_train_config(path) -> TrainConfig:
    return train_config_from_dict(read_kv_file(path))
