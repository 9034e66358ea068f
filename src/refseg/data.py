"""Deterministic synthetic referring-segmentation scenes.

A scene is 2-5 non-overlapping flat-colored shapes on a mid-gray background,
paired with an expression drawn from a small grammar that resolves to exactly
one shape.  Everything is a pure function of (seed, grammar), so any split
regenerates bit-identically from its MANIFEST.

Expression templates:
  attribute        "<color> <shape>"
  attribute_side   "<color> <shape> on the <side>"
  relation         "<shape> <side> of <color> <shape>"
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import field_casts, field_pairs, read_text, section_kwargs, write_kv_file
from .encoders import Vocabulary
from .errors import CheckpointError, ConfigError, GenerationError
from .tensor_io import read_pgm, read_ppm, write_pgm, write_ppm

COLOR_TABLE = {
    "red": (0.90, 0.10, 0.10),
    "green": (0.10, 0.75, 0.15),
    "blue": (0.15, 0.25, 0.90),
    "yellow": (0.95, 0.90, 0.10),
    "purple": (0.60, 0.20, 0.80),
    "orange": (0.95, 0.55, 0.10),
}

SHAPE_KINDS = ("circle", "square", "triangle")
SIDES = ("left", "right", "top", "bottom")
FUNCTION_WORDS = ("on", "the", "of")
BACKGROUND = 0.5

TEMPLATES = ("attribute", "attribute_side", "relation")


@dataclass(frozen=True)
class GrammarConfig:
    image_size: int = 64
    colors: tuple = tuple(COLOR_TABLE)
    shapes: tuple = SHAPE_KINDS
    min_shapes: int = 2
    max_shapes: int = 5
    size_frac_min: float = 0.09
    size_frac_max: float = 0.16
    templates: tuple = TEMPLATES

    def __post_init__(self):
        if self.image_size < 1:
            raise ConfigError(f"image_size must be positive, got {self.image_size}")
        for name in ("colors", "shapes", "templates"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        for c in self.colors:
            if c not in COLOR_TABLE:
                raise ConfigError(f"unknown color {c!r}")
        for s in self.shapes:
            if s not in SHAPE_KINDS:
                raise ConfigError(f"unknown shape kind {s!r}")
        for t in self.templates:
            if t not in TEMPLATES:
                raise ConfigError(f"unknown template {t!r}")
        if not (0 < self.size_frac_min <= self.size_frac_max < 0.5):
            raise ConfigError("size fractions must satisfy 0 < min <= max < 0.5")
        if self.min_shapes < 1 or self.max_shapes < self.min_shapes:
            raise ConfigError("invalid shape count range")


@dataclass(frozen=True)
class ShapeSpec:
    kind: str
    color: str
    cx: float
    cy: float
    size: float

    def to_dict(self) -> dict:
        return {"kind": self.kind, "color": self.color, "cx": self.cx, "cy": self.cy, "size": self.size}

    @classmethod
    def from_dict(cls, d: dict) -> "ShapeSpec":
        if d["kind"] not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {d['kind']!r}")
        if d["color"] not in COLOR_TABLE:
            raise ValueError(f"unknown color {d['color']!r}")
        return cls(d["kind"], d["color"], float(d["cx"]), float(d["cy"]), float(d["size"]))


@dataclass
class Sample:
    image: np.ndarray          # (H, W, 3) float32 in [0, 1]
    expression: str
    gt_mask: np.ndarray        # (H, W) uint8 in {0, 1}
    shapes: list               # scene descriptor
    target_index: int
    expression_struct: tuple
    seed: int


# ---------------------------------------------------------------------------
# rasterization (pixel centers at +0.5)


def rasterize(shape: ShapeSpec, h: int, w: int) -> np.ndarray:
    xs = np.arange(w, dtype=np.float64) + 0.5
    ys = np.arange(h, dtype=np.float64) + 0.5
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    if shape.kind == "circle":
        return ((gx - shape.cx) ** 2 + (gy - shape.cy) ** 2) <= shape.size**2
    if shape.kind == "square":
        return (np.abs(gx - shape.cx) <= shape.size) & (np.abs(gy - shape.cy) <= shape.size)
    if shape.kind == "triangle":
        ax, ay = shape.cx, shape.cy - shape.size
        bx, by = shape.cx - shape.size, shape.cy + shape.size
        cx_, cy_ = shape.cx + shape.size, shape.cy + shape.size
        s1 = (gx - ax) * (by - ay) - (gy - ay) * (bx - ax)
        s2 = (gx - bx) * (cy_ - by) - (gy - by) * (cx_ - bx)
        s3 = (gx - cx_) * (ay - cy_) - (gy - cy_) * (ax - cx_)
        return ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))
    raise ConfigError(f"unknown shape kind {shape.kind!r}")


def shape_area(shape: ShapeSpec) -> float:
    """Analytic area in pixels, for rasterization sanity checks."""
    if shape.kind == "circle":
        return float(np.pi * shape.size**2)
    if shape.kind == "square":
        return float(4.0 * shape.size**2)
    return float(2.0 * shape.size**2)  # base 2s, height 2s


def render_image(shapes: Sequence[ShapeSpec], h: int, w: int) -> np.ndarray:
    image = np.full((h, w, 3), BACKGROUND, dtype=np.float32)
    for s in shapes:
        image[rasterize(s, h, w)] = COLOR_TABLE[s.color]
    return image


# ---------------------------------------------------------------------------
# expressions


def render_expression(struct: tuple) -> str:
    if struct[0] == "attribute":
        return f"{struct[1]} {struct[2]}"
    if struct[0] == "attribute_side":
        return f"{struct[1]} {struct[2]} on the {struct[3]}"
    if struct[0] == "relation":
        return f"{struct[1]} {struct[2]} of {struct[3]} {struct[4]}"
    raise ConfigError(f"unknown template {struct[0]!r}")


def parse_expression(expression: str) -> tuple:
    words = expression.lower().split()
    if len(words) == 2:
        return ("attribute", words[0], words[1])
    if len(words) == 5 and words[2] == "on" and words[3] == "the":
        return ("attribute_side", words[0], words[1], words[4])
    if len(words) == 5 and words[2] == "of":
        return ("relation", words[0], words[1], words[3], words[4])
    raise ConfigError(f"unparseable expression {expression!r}")


def _beyond(s: ShapeSpec, x: float, y: float, side: str) -> bool:
    """Whether ``s``'s centre lies on ``side`` of the point (x, y): the
    image centre, or a reference shape's centre."""
    if side == "left":
        return s.cx < x
    if side == "right":
        return s.cx > x
    if side == "top":
        return s.cy < y
    return s.cy > y


def resolve(struct: tuple, shapes: Sequence[ShapeSpec], h: int, w: int) -> list:
    """Indices of scene shapes matching the expression; unique iff length 1."""
    if struct[0] == "attribute":
        _, color, kind = struct
        return [i for i, s in enumerate(shapes) if s.color == color and s.kind == kind]
    if struct[0] == "attribute_side":
        _, color, kind, side = struct
        return [
            i
            for i, s in enumerate(shapes)
            if s.color == color and s.kind == kind and _beyond(s, w / 2, h / 2, side)
        ]
    if struct[0] == "relation":
        _, kind, side, ref_color, ref_kind = struct
        refs = [i for i, s in enumerate(shapes) if s.color == ref_color and s.kind == ref_kind]
        if len(refs) != 1:
            return []
        ref = shapes[refs[0]]
        return [
            i
            for i, s in enumerate(shapes)
            if i != refs[0] and s.kind == kind and _beyond(s, ref.cx, ref.cy, side)
        ]
    raise ConfigError(f"unknown template {struct[0]!r}")


# ---------------------------------------------------------------------------
# scene generation


def _pick(rng: np.random.Generator, seq: Sequence):
    """``rng.choice(seq)``'s draw, without converting ``seq`` to an array."""
    return seq[int(rng.integers(len(seq)))]


def _place_shapes(rng: np.random.Generator, grammar: GrammarConfig) -> Optional[list]:
    # Each ``rng.uniform(a, b)`` is drawn as ``a + (b - a) * rng.random()``:
    # the same single draw and the same rounding, without its call overhead.
    n = int(rng.integers(grammar.min_shapes, grammar.max_shapes + 1))
    size = grammar.image_size
    frac_lo = grammar.size_frac_min
    frac_span = grammar.size_frac_max - frac_lo
    placed: list[ShapeSpec] = []
    radii: list[float] = []
    for _ in range(n):
        for _ in range(60):
            s = (frac_lo + frac_span * rng.random()) * size
            kind = _pick(rng, grammar.shapes)
            color = _pick(rng, grammar.colors)
            # circle: size is the radius; square/triangle vertices reach size*sqrt(2)
            radius = s * math.sqrt(2.0) if kind != "circle" else s
            margin = radius + 1.0
            if 2 * margin >= size:
                continue
            span = (size - margin) - margin
            cx = margin + span * rng.random()
            cy = margin + span * rng.random()
            if all(
                np.hypot(cx - p.cx, cy - p.cy) > radius + r + 1.0
                for p, r in zip(placed, radii)
            ):
                placed.append(ShapeSpec(kind, color, cx, cy, s))
                radii.append(radius)
                break
        else:
            return None
    return placed


def _candidate_expression(
    rng: np.random.Generator,
    template: str,
    target: int,
    shapes: Sequence[ShapeSpec],
    grammar: GrammarConfig,
) -> Optional[tuple]:
    t = shapes[target]
    size = grammar.image_size
    if template == "attribute":
        return ("attribute", t.color, t.kind)
    if template == "attribute_side":
        sides = [s for s in SIDES if _beyond(t, size / 2, size / 2, s)]
        if not sides:
            return None
        return ("attribute_side", t.color, t.kind, _pick(rng, sides))
    others = [i for i in range(len(shapes)) if i != target]
    if not others:
        return None
    ref = shapes[_pick(rng, others)]
    sides = [s for s in SIDES if _beyond(t, ref.cx, ref.cy, s)]
    if not sides:
        return None
    return ("relation", t.kind, _pick(rng, sides), ref.color, ref.kind)


def generate_scene(seed: int, grammar: GrammarConfig) -> Sample:
    """Build one sample; raises GenerationError after 100 failed attempts."""
    rng = np.random.default_rng(seed)
    size = grammar.image_size
    for _ in range(100):
        shapes = _place_shapes(rng, grammar)
        if shapes is None:
            continue
        for _ in range(12):
            template = _pick(rng, grammar.templates)
            target = int(rng.integers(len(shapes)))
            struct = _candidate_expression(rng, template, target, shapes, grammar)
            if struct is None:
                continue
            if resolve(struct, shapes, size, size) == [target]:
                gt = rasterize(shapes[target], size, size).astype(np.uint8)
                return Sample(
                    image=render_image(shapes, size, size),
                    expression=render_expression(struct),
                    gt_mask=gt,
                    shapes=list(shapes),
                    target_index=target,
                    expression_struct=struct,
                    seed=seed,
                )
    raise GenerationError(f"no unique scene after 100 attempts (seed {seed})")


def sample_seed(split_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((split_seed, index)).generate_state(1)[0])


def generate_split(split_seed: int, count: int, grammar: GrammarConfig) -> list:
    return [generate_scene(sample_seed(split_seed, i), grammar) for i in range(count)]


def vocabulary_for(grammar: GrammarConfig) -> Vocabulary:
    words = tuple(grammar.colors) + tuple(grammar.shapes) + SIDES + FUNCTION_WORDS
    return Vocabulary.from_words(words)


# ---------------------------------------------------------------------------
# on-disk format


def grammar_to_pairs(grammar: GrammarConfig) -> dict:
    """Manifest pairs for ``grammar``: ``image_size`` is unprefixed, every
    other field is ``grammar.<name>``."""
    pairs = field_pairs(grammar, "grammar.")
    return {"format": "1", "image_size": pairs.pop("grammar.image_size"), **pairs}


def grammar_from_pairs(pairs: dict) -> GrammarConfig:
    keys = field_casts(GrammarConfig)
    kwargs = section_kwargs(pairs, "", {"image_size": keys.pop("image_size")})
    kwargs.update(section_kwargs(pairs, "grammar.", keys))
    return GrammarConfig(**kwargs)


def split_specs_from_pairs(pairs: dict) -> dict:
    """{split_name: (seed, count)} from manifest pairs: every
    ``split.<name>.seed`` and ``split.<name>.count`` key, each with its pair."""
    specs = {}
    for key in pairs:
        match = re.fullmatch(r"split\.(.+)\.(seed|count)", key)
        if match is None or match[1] in specs:
            continue
        prefix = f"split.{match[1]}."
        spec = section_kwargs(pairs, prefix, {"seed": int, "count": int})
        for k in ("seed", "count"):
            if k not in spec:
                raise ConfigError(f"manifest has {key} but no {prefix}{k}")
        if min(spec.values()) < 0:
            raise ConfigError(f"{prefix}seed and {prefix}count must be non-negative, got {spec}")
        specs[match[1]] = (spec["seed"], spec["count"])
    if not specs:
        raise ConfigError("manifest declares no splits")
    return specs


def generate_from_manifest(pairs: dict) -> tuple:
    """(splits dict, grammar, vocabulary) regenerated from manifest pairs.
    As in config files, a key that nothing reads is an error, and so is a
    ``format`` other than 1."""
    if pairs.get("format") != "1":
        raise ConfigError(f"format: this build reads manifest format 1, got {pairs.get('format')!r}")
    specs = split_specs_from_pairs(pairs)
    known = {"format", "image_size", *(f"grammar.{k}" for k in field_casts(GrammarConfig))}
    known.update(f"split.{name}.{k}" for name in specs for k in ("seed", "count"))
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise ConfigError(f"unknown manifest keys: {', '.join(unknown)}")
    grammar = grammar_from_pairs(pairs)
    splits = {name: generate_split(seed, count, grammar) for name, (seed, count) in sorted(specs.items())}
    return splits, grammar, vocabulary_for(grammar)


def save_dataset(root, splits: dict, grammar: GrammarConfig, manifest: dict) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    write_kv_file(root / "MANIFEST", manifest)
    vocabulary_for(grammar).save(root / "vocab.txt")
    for name, samples in splits.items():
        sdir = root / name
        (sdir / "images").mkdir(parents=True, exist_ok=True)
        (sdir / "masks").mkdir(parents=True, exist_ok=True)
        with open(sdir / "samples.jsonl", "w") as f:
            for i, s in enumerate(samples):
                write_ppm(sdir / "images" / f"{i:05d}.ppm", s.image)
                write_pgm(sdir / "masks" / f"{i:05d}.pgm", (s.gt_mask * 255).astype(np.uint8))
                record = {
                    "index": i,
                    "seed": s.seed,
                    "expression": s.expression,
                    "template": s.expression_struct[0],
                    "target": s.target_index,
                    "shapes": [sp.to_dict() for sp in s.shapes],
                }
                f.write(json.dumps(record, sort_keys=True) + "\n")


_RECORD_TYPES = {"index": int, "seed": int, "expression": str, "template": str, "target": int, "shapes": list}


def load_split(root, name: str) -> list:
    """A split's samples.  A malformed record (an unparseable expression, a
    template the expression does not have, a target that is not one of the
    shapes, a shape kind or color outside the grammar), a missing, truncated
    or malformed image or mask file, or a mask of another size than its
    image raises ``ConfigError`` naming the record's line."""
    sdir = Path(root) / name
    path = sdir / "samples.jsonl"
    samples = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        where = f"{path} line {lineno}"
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.keys() != _RECORD_TYPES.keys() or any(
                type(rec[k]) is not t for k, t in _RECORD_TYPES.items()
            ):
                raise TypeError("fields must be " + ", ".join(f"{k} ({t.__name__})" for k, t in _RECORD_TYPES.items()))
            if rec["index"] < 0:
                raise ValueError(f"negative index {rec['index']}")
            shapes = [ShapeSpec.from_dict(d) for d in rec["shapes"]]
            struct = parse_expression(rec["expression"])
            if struct[0] != rec["template"]:
                raise ValueError(f"template {rec['template']!r} for a {struct[0]} expression")
            if not 0 <= rec["target"] < len(shapes):
                raise ValueError(f"target {rec['target']} of {len(shapes)} shapes")
        except (ConfigError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{where}: malformed record: {type(e).__name__}: {e}") from None
        i = rec["index"]
        try:
            image = read_ppm(sdir / "images" / f"{i:05d}.ppm")
            gt = (read_pgm(sdir / "masks" / f"{i:05d}.pgm") > 127).astype(np.uint8)
        except (OSError, CheckpointError) as e:  # the netpbm reader's error type
            raise ConfigError(f"{where}: {e}") from None
        if gt.shape != image.shape[:2]:
            raise ConfigError(f"{where}: {gt.shape[1]}x{gt.shape[0]} mask for a {image.shape[1]}x{image.shape[0]} image")
        samples.append(
            Sample(
                image=image,
                expression=rec["expression"],
                gt_mask=gt,
                shapes=shapes,
                target_index=rec["target"],
                expression_struct=struct,
                seed=rec["seed"],
            )
        )
    return samples


def default_manifest(image_size: int = 64) -> dict:
    pairs = grammar_to_pairs(GrammarConfig(image_size=image_size))
    pairs.update(
        {
            "split.train.seed": "1000",
            "split.train.count": "64",
            "split.val.seed": "2000",
            "split.val.count": "32",
        }
    )
    return pairs
