"""The key=value codec of ModelConfig, TrainConfig and GrammarConfig."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refseg.config import (
    TRAIN_MODES,
    ModelConfig,
    TrainConfig,
    load_train_config,
    parse_kv_text,
    read_kv_file,
    train_config_from_dict,
    train_config_to_dict,
    write_kv_file,
)
from refseg.data import (
    COLOR_TABLE,
    SHAPE_KINDS,
    TEMPLATES,
    GrammarConfig,
    default_manifest,
    grammar_from_pairs,
    grammar_to_pairs,
)
from refseg.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def _names(pool):
    return st.lists(st.sampled_from(pool), min_size=1, unique=True).map(tuple)


beta = st.floats(min_value=0, max_value=1, exclude_max=True)
positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@st.composite
def model_configs(draw):
    heads = draw(st.integers(1, 4))
    return ModelConfig(
        image_size=16 * draw(st.integers(1, 8)),
        fusion_width=2 * heads * draw(st.integers(1, 8)),
        text_global_width=draw(st.integers(1, 128)),
        num_queries=draw(st.integers(1, 16)),
        max_tokens=draw(st.integers(2, 40)),
        heads=heads,
        text_layers=draw(st.integers(0, 4)),
        decoder_layers=draw(st.integers(0, 4)),
        backbone_channels=tuple(draw(st.integers(1, 64)) for _ in range(3))
        + (heads * draw(st.integers(1, 16)),),
        precision=draw(st.sampled_from(("single", "double"))),
    )


@st.composite
def train_configs(draw):
    return TrainConfig(
        model=draw(model_configs()),
        lr=draw(positive),
        beta1=draw(beta),
        beta2=draw(beta),
        adam_eps=draw(positive),
        decay_power=draw(st.floats(min_value=0, allow_infinity=False)),
        total_steps=draw(st.none() | st.integers(1, 10**6)),
        steps=draw(st.integers(1, 10**6)),
        batch_size=draw(st.integers(1, 64)),
        seed=draw(st.integers(0, 2**63)),
        mode=draw(st.sampled_from(TRAIN_MODES)),
        eval_every=draw(st.integers(0, 10**4)),
        data_root=draw(st.text()),
        out_dir=draw(st.text()),
    )


@st.composite
def grammars(draw):
    frac_min = draw(st.floats(min_value=0, max_value=0.5, exclude_min=True, exclude_max=True))
    min_shapes = draw(st.integers(1, 6))
    return GrammarConfig(
        image_size=draw(st.integers(1, 512)),
        colors=draw(_names(tuple(COLOR_TABLE))),
        shapes=draw(_names(SHAPE_KINDS)),
        min_shapes=min_shapes,
        max_shapes=draw(st.integers(min_shapes, 8)),
        size_frac_min=frac_min,
        size_frac_max=draw(st.floats(min_value=frac_min, max_value=0.5, exclude_max=True)),
        templates=draw(_names(TEMPLATES)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=train_configs(), grammar=grammars())
def test_codec_round_trip(cfg, grammar):
    pairs = train_config_to_dict(cfg)
    assert all(isinstance(v, str) for v in pairs.values())
    assert train_config_from_dict(pairs) == cfg
    assert grammar_from_pairs(grammar_to_pairs(grammar)) == grammar


def test_codec_bytes_pinned(tmp_path):
    # checkpoint headers and MANIFEST files written before the codec was
    # derived from the dataclass fields must keep reading as they did
    header = json.dumps(train_config_to_dict(TrainConfig()), sort_keys=True).encode()
    assert (
        hashlib.sha256(header).hexdigest()
        == "9afd3beced605c95b9dba0a26e64bd06c8d0afcb82efd634507528efde731d9e"
    )
    write_kv_file(tmp_path / "MANIFEST", default_manifest())
    assert (
        hashlib.sha256((tmp_path / "MANIFEST").read_bytes()).hexdigest()
        == "a4ed7811ff8c881b4633387580a80e7012e4aa28359f0c7150b34908631a5dac"
    )


@pytest.mark.parametrize(
    "key, value",
    [
        ("train.total_steps", "0"),
        ("train.decay_power", "-1"),
        ("train.decay_power", "nan"),
        ("train.seed", "-1"),
        ("train.lr", "nan"),
        ("train.lr", "inf"),
        ("train.beta1", "1.0"),
        ("train.beta1", "-0.1"),
        ("train.beta2", "nan"),
        ("train.adam_eps", "-1"),
        ("train.adam_eps", "0"),
        ("train.adam_eps", "inf"),
        ("train.eval_every", "-1"),
    ],
)
def test_train_value_out_of_range_rejected(key, value):
    # each would pass the constructor and fail later: a ZeroDivisionError in
    # the schedule, numpy's seed error, a non-finite softmax or Adam update,
    # or (eval_every=-1) an evaluation after every step
    with pytest.raises(ConfigError) as e:
        train_config_from_dict({key: value})
    assert key.split(".")[1] in str(e.value)


@pytest.mark.parametrize("name", ["colors", "shapes", "templates"])
def test_empty_grammar_word_list_rejected(name):
    # an empty list would only fail later, inside the scene generator's draw
    with pytest.raises(ConfigError, match=name):
        GrammarConfig(**{name: ()})


def test_repeated_key_rejected():
    with pytest.raises(ConfigError) as e:
        parse_kv_text("train.steps=5\n# comment\ntrain.steps=7\n")
    message = str(e.value)
    assert "train.steps" in message and "line 1" in message and "line 3" in message


def test_readme_config_example_loads(tmp_path):
    section = README.read_text().split("### Config files", 1)[1]
    path = tmp_path / "config.txt"
    path.write_text(section.split("```", 2)[1])
    cfg = load_train_config(path)
    assert read_kv_file(path).keys() == train_config_to_dict(cfg).keys()  # every key listed
