"""Synthetic scenes: rasterization, uniqueness, determinism, disk format."""

import hashlib
import json

import numpy as np
import pytest

from refseg.data import (
    COLOR_TABLE,
    GrammarConfig,
    Sample,
    ShapeSpec,
    default_manifest,
    generate_from_manifest,
    generate_scene,
    generate_split,
    grammar_to_pairs,
    load_split,
    parse_expression,
    rasterize,
    render_expression,
    resolve,
    sample_seed,
    save_dataset,
    shape_area,
    vocabulary_for,
)
from refseg.encoders import tokenize
from refseg.errors import ConfigError, GenerationError
from refseg.tensor_io import write_pgm


# ---------------------------------------------------------------------------
# independent rasterizer: scalar loops, barycentric triangle test


def rasterize_reference(shape: ShapeSpec, h: int, w: int) -> np.ndarray:
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            x, y = j + 0.5, i + 0.5
            if shape.kind == "circle":
                out[i, j] = (x - shape.cx) ** 2 + (y - shape.cy) ** 2 <= shape.size**2
            elif shape.kind == "square":
                out[i, j] = abs(x - shape.cx) <= shape.size and abs(y - shape.cy) <= shape.size
            else:
                ax, ay = shape.cx, shape.cy - shape.size
                bx, by = shape.cx - shape.size, shape.cy + shape.size
                cx, cy = shape.cx + shape.size, shape.cy + shape.size
                det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
                l1 = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / det
                l2 = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / det
                l3 = 1.0 - l1 - l2
                eps = 1e-12
                out[i, j] = l1 >= -eps and l2 >= -eps and l3 >= -eps
    return out


@pytest.mark.parametrize("kind", ["circle", "square", "triangle"])
def test_rasterizers_agree_per_pixel(kind, rng):
    for _ in range(8):
        shape = ShapeSpec(
            kind=kind,
            color="red",
            cx=float(rng.uniform(8, 24)),
            cy=float(rng.uniform(8, 24)),
            size=float(rng.uniform(3, 7)),
        )
        fast = rasterize(shape, 32, 32)
        slow = rasterize_reference(shape, 32, 32)
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("kind", ["circle", "square", "triangle"])
def test_pixel_count_near_analytic_area(kind, rng):
    for _ in range(8):
        size = float(rng.uniform(4, 9))
        shape = ShapeSpec(kind, "blue", float(rng.uniform(16, 48)), float(rng.uniform(16, 48)), size)
        count = int(rasterize(shape, 64, 64).sum())
        area = shape_area(shape)
        perimeter = {"circle": 2 * np.pi * size, "square": 8 * size, "triangle": 6.5 * size}[kind]
        assert abs(count - area) <= perimeter + 4


def test_generate_scene_deterministic(tiny_grammar):
    a = generate_scene(99, tiny_grammar)
    b = generate_scene(99, tiny_grammar)
    assert a.expression == b.expression
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.gt_mask, b.gt_mask)
    assert a.shapes == b.shapes


def test_scene_structure(tiny_grammar):
    s = generate_scene(7, tiny_grammar)
    assert s.image.shape == (16, 16, 3)
    assert s.image.min() >= 0.0 and s.image.max() <= 1.0
    assert s.gt_mask.dtype == np.uint8
    assert set(np.unique(s.gt_mask)) <= {0, 1}
    assert tiny_grammar.min_shapes <= len(s.shapes) <= tiny_grammar.max_shapes


def test_gt_mask_is_target_shape(tiny_grammar):
    s = generate_scene(11, tiny_grammar)
    expected = rasterize(s.shapes[s.target_index], 16, 16).astype(np.uint8)
    assert np.array_equal(s.gt_mask, expected)


def test_every_expression_resolves_uniquely():
    grammar = GrammarConfig(image_size=64)
    for i in range(40):
        s = generate_scene(sample_seed(400, i), grammar)
        struct = parse_expression(s.expression)
        matches = resolve(struct, s.shapes, 64, 64)
        assert matches == [s.target_index]


def test_expressions_fit_vocabulary_and_length():
    grammar = GrammarConfig(image_size=64)
    vocab = vocabulary_for(grammar)
    for i in range(30):
        s = generate_scene(sample_seed(500, i), grammar)
        seq = tokenize(s.expression, vocab, 17)
        assert seq.eos_position < 17


def test_expression_render_parse_round_trip():
    for struct in [
        ("attribute", "red", "circle"),
        ("attribute_side", "blue", "square", "left"),
        ("relation", "triangle", "top", "green", "circle"),
    ]:
        assert parse_expression(render_expression(struct)) == struct


def test_shapes_do_not_overlap(tiny_grammar):
    s = generate_scene(13, GrammarConfig(image_size=64))
    masks = [rasterize(sp, 64, 64) for sp in s.shapes]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert not np.any(masks[i] & masks[j])


def test_generation_error_when_unsatisfiable():
    # shapes too large to ever place without overlap
    grammar = GrammarConfig(
        image_size=16, min_shapes=5, max_shapes=5, size_frac_min=0.4, size_frac_max=0.45
    )
    with pytest.raises(GenerationError):
        generate_scene(1, grammar)


def test_split_seeds_independent():
    grammar = GrammarConfig(image_size=16, max_shapes=3)
    split = generate_split(800, 6, grammar)
    assert len({s.expression for s in split} | {s.seed for s in split}) > 1


def test_dataset_round_trip(tmp_path):
    grammar = GrammarConfig(image_size=16, max_shapes=3)
    splits = {"train": generate_split(10, 4, grammar), "val": generate_split(20, 2, grammar)}
    manifest = grammar_to_pairs(grammar)
    manifest.update({"split.train.seed": "10", "split.train.count": "4",
                     "split.val.seed": "20", "split.val.count": "2"})
    save_dataset(tmp_path, splits, grammar, manifest)

    assert (tmp_path / "MANIFEST").exists()
    assert (tmp_path / "vocab.txt").exists()
    back = load_split(tmp_path, "train")
    assert len(back) == 4
    for orig, loaded in zip(splits["train"], back):
        assert loaded.expression == orig.expression
        assert np.array_equal(loaded.gt_mask, orig.gt_mask)
        assert np.abs(loaded.image - orig.image).max() <= 0.5 / 255 + 1e-6
        assert loaded.target_index == orig.target_index
        assert loaded.shapes == orig.shapes


def _saved_train_split(root):
    grammar = GrammarConfig(image_size=16, max_shapes=3)
    save_dataset(root, {"train": generate_split(10, 3, grammar)}, grammar, grammar_to_pairs(grammar))
    return root / "train"


def _damage_record(rec: dict, how: str) -> str:
    if how == "no_shapes":
        del rec["shapes"]
    elif how == "string_index":
        rec["index"] = str(rec["index"])
    else:
        return "{not json"
    return json.dumps(rec)


@pytest.mark.parametrize("how", ["no_shapes", "string_index", "not_json"])
def test_malformed_samples_record_names_file_and_line(tmp_path, how):
    path = _saved_train_split(tmp_path) / "samples.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = _damage_record(json.loads(lines[1]), how)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"samples\.jsonl line 2: "):
        load_split(tmp_path, "train")


def test_missing_image_names_file_and_line(tmp_path):
    sdir = _saved_train_split(tmp_path)
    (sdir / "images" / "00001.ppm").unlink()
    with pytest.raises(ConfigError, match=r"samples\.jsonl line 2: .*00001\.ppm"):
        load_split(tmp_path, "train")


def test_truncated_image_names_file_and_line(tmp_path):
    sdir = _saved_train_split(tmp_path)
    path = sdir / "images" / "00001.ppm"
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ConfigError, match=r"samples\.jsonl line 2: .*00001\.ppm: truncated"):
        load_split(tmp_path, "train")


def test_mask_of_another_size_than_its_image_names_file_and_line(tmp_path):
    sdir = _saved_train_split(tmp_path)
    write_pgm(sdir / "masks" / "00002.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ConfigError, match=r"samples\.jsonl line 3: 4x4 mask for a 16x16 image"):
        load_split(tmp_path, "train")


def test_manifest_regeneration_bit_identical():
    manifest = default_manifest(image_size=16)
    manifest["split.train.count"] = "3"
    manifest["split.val.count"] = "2"
    a, _, _ = generate_from_manifest(manifest)
    b, _, _ = generate_from_manifest(manifest)
    for sa, sb in zip(a["train"], b["train"]):
        assert sa.expression == sb.expression
        assert np.array_equal(sa.image, sb.image)


@pytest.mark.parametrize("size", ["0", "-16"])
def test_manifest_with_nonpositive_image_size_names_the_key(size):
    manifest = default_manifest(image_size=16)
    manifest["image_size"] = size
    with pytest.raises(ConfigError, match="image_size"):
        generate_from_manifest(manifest)


def test_vocabulary_covers_grammar():
    grammar = GrammarConfig()
    vocab = vocabulary_for(grammar)
    for w in list(grammar.colors) + list(grammar.shapes) + ["left", "right", "top", "bottom", "on", "the", "of"]:
        vocab.id_of(w)


def test_colors_render_flat_fill():
    s = generate_scene(3, GrammarConfig(image_size=32, max_shapes=2))
    target = s.shapes[s.target_index]
    inside = s.image[s.gt_mask.astype(bool)]
    assert np.allclose(inside, COLOR_TABLE[target.color])


def _split_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(np.ascontiguousarray(s.image).tobytes())
        h.update(np.ascontiguousarray(s.gt_mask).tobytes())
        h.update(s.expression.encode())
    return h.hexdigest()


def test_generated_splits_match_recorded_digests():
    """The trend-fixture split and a default split hash to recorded digests:
    the acceptance gates train and score on these draws, so a change to the
    generator must not move a single one."""
    from test_acceptance import BENCH_GRAMMAR

    trend = generate_split(3000, 64, BENCH_GRAMMAR)
    default = generate_split(1, 32, GrammarConfig())
    assert _split_digest(trend) == "2e292a8a80666665ba87d1585a577b7ce8e78969e61c00881574c73ba9bb7b12"
    assert _split_digest(default) == "2ef75abe6c7b6ece3dd401f923f0481aac961f583ef0c0814d1383c1622e5c8b"
