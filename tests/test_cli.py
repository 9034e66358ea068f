"""Command-line surface: subcommands, file outputs, exit codes."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from refseg.cli import _COMMANDS, _build_parser, main
from refseg.config import load_train_config, read_kv_file, train_config_from_dict, write_kv_file
from refseg.errors import ConfigError
from refseg.data import default_manifest, grammar_to_pairs, GrammarConfig
from refseg.autodiff import Tensor
from refseg.data import load_split
from refseg.tensor_io import read_tensor
from refseg.train import load_checkpoint


README = Path(__file__).resolve().parents[1] / "README.md"


def tiny_manifest(tmp_path, train_count=4, val_count=2):
    pairs = grammar_to_pairs(GrammarConfig(image_size=16, max_shapes=3))
    pairs.update(
        {
            "split.train.seed": "10",
            "split.train.count": str(train_count),
            "split.val.seed": "20",
            "split.val.count": str(val_count),
        }
    )
    path = tmp_path / "manifest.txt"
    write_kv_file(path, pairs)
    return path


def tiny_config_file(tmp_path, data_root, out_dir, **over):
    pairs = {
        "model.image_size": "16",
        "model.fusion_width": "8",
        "model.text_global_width": "8",
        "model.num_queries": "2",
        "model.max_tokens": "9",
        "model.heads": "2",
        "model.text_layers": "1",
        "model.decoder_layers": "1",
        "model.backbone_channels": "4,8,8,8",
        "train.lr": "3e-4",
        "train.steps": "3",
        "train.batch_size": "2",
        "train.seed": "0",
        "train.data_root": str(data_root),
        "train.out_dir": str(out_dir),
    }
    for k, v in over.items():
        pairs[k] = str(v)
    path = tmp_path / "config.txt"
    write_kv_file(path, pairs)
    return path


@pytest.fixture
def dataset(tmp_path):
    manifest = tiny_manifest(tmp_path)
    root = tmp_path / "data"
    assert main(["gen-data", "--out", str(root), "--manifest", str(manifest)]) == 0
    return root


def test_gen_data_layout(dataset):
    assert (dataset / "MANIFEST").exists()
    assert (dataset / "vocab.txt").exists()
    assert (dataset / "train" / "samples.jsonl").exists()
    assert (dataset / "train" / "images" / "00000.ppm").exists()
    assert (dataset / "train" / "masks" / "00000.pgm").exists()
    assert (dataset / "val" / "samples.jsonl").exists()


def test_train_eval_cycle(tmp_path, dataset, capsys):
    out = tmp_path / "run"
    cfg = tiny_config_file(tmp_path, dataset, out)
    assert main(["train", "--config", str(cfg)]) == 0
    assert (out / "checkpoint.eavc").exists()
    log_lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(log_lines) == 3
    capsys.readouterr()

    code = main(["eval", "--checkpoint", str(out / "checkpoint.eavc"), "--data", str(dataset), "--split", "val"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"overall_iou", "mean_iou", "precision_at", "sample_count"}
    assert report["sample_count"] == 2


def test_train_resume_continues(tmp_path, dataset):
    out = tmp_path / "run"
    cfg = tiny_config_file(tmp_path, dataset, out, **{"train.steps": "4"})
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = out / "checkpoint.eavc"
    _, state, _ = load_checkpoint(ckpt)
    assert state.step == 4
    assert main(["train", "--resume", str(ckpt), "--out", str(out)]) == 0  # already done: no-op
    _, state2, _ = load_checkpoint(ckpt)
    assert state2.step == 4


def test_dump_masks_writes_the_bytes_of_apply_dynamic_kernel(tmp_path, dataset):
    """The forward that makes y runs no mask stack; dump-masks' per-query
    maps are still each kernel's map as ``apply_dynamic_kernel`` makes it
    from the checkpoint's model, byte for byte."""
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file(tmp_path, dataset, out))]) == 0
    ckpt = out / "checkpoint.eavc"
    mask_dir = tmp_path / "masks"
    assert main(["dump-masks", "--checkpoint", str(ckpt), "--data", str(dataset),
                 "--split", "val", "--sample", "1", "--out", str(mask_dir)]) == 0
    _, state, _ = load_checkpoint(ckpt)
    model, sample = state.model, load_split(dataset, "val")[1]
    tokens = model.tokenize(sample.expression)
    text = model.text_encoder(tokens)
    feats = model.image_encoder(Tensor(np.asarray(sample.image, dtype=model.dtype)))
    f_q = model.query_gen(feats, text, tokens, use_fvg=True).f_q
    f_p = model.mask_gen.project_fp(model.decoder(model.neck(feats, text.f_tg), f_q))
    stack = model.mask_gen.apply_dynamic_kernel(f_p, *model.mask_gen.kernel_from_query(f_q)).data
    assert stack.dtype == np.float32 and len(stack) == 2
    for n, ref in enumerate(stack):
        assert read_tensor(mask_dir / f"mask{n}.eavt").tobytes() == ref.tobytes(), n


def test_dump_masks_and_attention(tmp_path, dataset, capsys):
    out = tmp_path / "run"
    cfg = tiny_config_file(tmp_path, dataset, out)
    main(["train", "--config", str(cfg)])
    ckpt = str(out / "checkpoint.eavc")
    capsys.readouterr()

    mask_dir = tmp_path / "masks"
    assert main(["dump-masks", "--checkpoint", ckpt, "--data", str(dataset),
                 "--split", "val", "--sample", "0", "--out", str(mask_dir)]) == 0
    assert (mask_dir / "mask0.pgm").exists()
    assert (mask_dir / "mask1.eavt").exists()
    assert (mask_dir / "y.pgm").exists()
    assert (mask_dir / "scores.json").exists()
    y = read_tensor(mask_dir / "y.eavt")
    assert y.shape == (8, 8)
    scores = json.loads((mask_dir / "scores.json").read_text())["scores"]
    assert abs(sum(scores) - 1.0) < 1e-6

    attn_dir = tmp_path / "attn"
    assert main(["dump-attention", "--checkpoint", ckpt, "--data", str(dataset),
                 "--split", "val", "--sample", "1", "--out", str(attn_dir)]) == 0
    a = read_tensor(attn_dir / "attention.eavt")
    assert a.shape == (2, 9)
    assert np.abs(a.sum(axis=1) - 1).max() < 1e-6
    assert (attn_dir / "attention.tsv").exists()


def test_dump_attention_follows_checkpoint_mode(tmp_path, dataset, capsys):
    """A no_fvg model's queries never see the vision gate, so its dumped
    attention is the ungated map."""
    out = tmp_path / "run"
    cfg = tiny_config_file(tmp_path, dataset, out, **{"train.mode": "no_fvg", "train.steps": "2"})
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = out / "checkpoint.eavc"
    attn_dir = tmp_path / "attn"
    assert main(["dump-attention", "--checkpoint", str(ckpt), "--data", str(dataset),
                 "--split", "val", "--sample", "1", "--out", str(attn_dir)]) == 0
    dumped = read_tensor(attn_dir / "attention.eavt")

    train_cfg, state, _ = load_checkpoint(ckpt)
    assert train_cfg.mode == "no_fvg"
    model = state.model
    sample = load_split(dataset, "val")[1]
    tokens = model.tokenize(sample.expression)
    feats = model.image_encoder(Tensor(np.asarray(sample.image, dtype=model.dtype)))
    text = model.text_encoder(tokens)
    ungated = model.query_gen(feats, text, tokens, use_fvg=False).a.data
    gated = model.query_gen(feats, text, tokens, use_fvg=True).a.data
    assert dumped.tobytes() == ungated.tobytes()
    assert not np.array_equal(dumped, gated)


def test_ablate_command(tmp_path, dataset, capsys):
    out = tmp_path / "run"
    cfg = tiny_config_file(tmp_path, dataset, out, **{"train.steps": "2"})
    records = tmp_path / "ablation.jsonl"
    code = main(["ablate", "--config", str(cfg), "--variants", "full,fixed_kernel",
                 "--seeds", "0", "--out", str(records)])
    assert code == 0
    table = capsys.readouterr().out
    assert "full" in table and "fixed_kernel" in table
    lines = [json.loads(l) for l in records.read_text().splitlines()]
    assert any("median_mean_iou" in l for l in lines)
    # one record per (variant, seed), then one median record per variant
    assert sorted((l["variant"], l["seed"]) for l in lines if "seed" in l) == [("fixed_kernel", 0), ("full", 0)]


def test_usage_error_exit_code_1(capsys):
    assert main(["train"]) == 1  # no --config/--resume
    assert main(["no-such-command"]) == 1
    assert main(["eval", "--checkpoint", "/nonexistent", "--data", "/nonexistent"]) == 1


def test_missing_input_paths_exit_1_naming_the_path(tmp_path, dataset, capsys):
    """Each command given a missing (or non-UTF-8) file exits 1 with a
    typed error that names the path; ``main`` catches nothing but
    ``RefsegError``."""
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file(tmp_path, dataset, out))]) == 0
    ckpt = str(out / "checkpoint.eavc")
    empty = tmp_path / "empty"
    empty.mkdir()
    missing = str(tmp_path / "missing")
    no_vocab = str(tiny_config_file(tmp_path, empty, out))
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"train.steps=\xff\xfe\n")
    cases = [
        (["train", "--config", missing], missing),
        (["gen-data", "--out", str(tmp_path / "g"), "--manifest", str(binary)], str(binary)),
        (["train", "--config", no_vocab], str(empty / "vocab.txt")),
        (["train", "--resume", missing], missing),
        (["eval", "--checkpoint", missing, "--data", str(dataset)], missing),
        (["eval", "--checkpoint", ckpt, "--data", missing], missing),
        (["dump-masks", "--checkpoint", missing, "--data", str(dataset), "--out", str(tmp_path / "d")], missing),
        (["dump-masks", "--checkpoint", ckpt, "--data", missing, "--out", str(tmp_path / "d")], missing),
    ]
    capsys.readouterr()
    for argv, path in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err, (argv, err)


def test_untyped_exception_is_not_caught(monkeypatch):
    """Any exception other than ``RefsegError`` is a bug: it propagates."""

    def untyped(args):
        raise FileNotFoundError("untyped")

    monkeypatch.setitem(_COMMANDS, "gradcheck", untyped)
    with pytest.raises(FileNotFoundError):
        main(["gradcheck"])


def test_ablate_bad_int_list_is_a_usage_error(capsys):
    assert main(["ablate", "--config", "c.txt", "--seeds", "0,x"]) == 1
    assert "--seeds" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    # a misspelt key would otherwise train the default 1000 steps
    cfg = tiny_config_file(tmp_path, tmp_path / "data", tmp_path / "run", **{"train.setps": "5"})
    with pytest.raises(ConfigError) as e:
        load_train_config(cfg)
    assert "train.setps" in str(e.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("train.steps", "abc"),
        ("train.lr", "fast"),
        ("train.total_steps", "None"),
        ("model.backbone_channels", "8,x"),
    ],
)
def test_unreadable_config_value_rejected(key, value):
    with pytest.raises(ConfigError) as e:
        train_config_from_dict({key: value})
    assert key in str(e.value) and repr(value) in str(e.value)


@pytest.mark.parametrize(
    "key, value",
    [("model.heads", "0"), ("model.fusion_width", "0"), ("model.backbone_channels", "4,8,0,8")],
)
def test_nonpositive_model_size_rejected(key, value):
    # one flipped bit in a checkpoint's config can write these; the model
    # would otherwise divide by zero while it is built
    with pytest.raises(ConfigError) as e:
        train_config_from_dict({key: value})
    assert "positive" in str(e.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("split.train.count", None),
        ("split.val.seed", "-2"),
        ("grammar.min_shapes", "abc"),
        ("grammar.size_frac_max", "big"),
        ("image_size", "6x"),
        ("grammar.colour", "red"),
        ("split.test.count", "5"),
        ("format", "2"),
    ],
)
def test_gen_data_names_the_bad_manifest_key(tmp_path, capsys, key, value):
    # None drops the key
    path = tiny_manifest(tmp_path)
    pairs = read_kv_file(path)
    if value is None:
        del pairs[key]
    else:
        pairs[key] = value
    write_kv_file(path, pairs)
    assert main(["gen-data", "--out", str(tmp_path / "data"), "--manifest", str(path)]) == 1
    assert key in capsys.readouterr().err


def test_train_with_unknown_config_key_exits_1(tmp_path, dataset, capsys):
    out = tmp_path / "run"
    cfg = tiny_config_file(tmp_path, dataset, out, **{"model.kernel_activation": "identity"})
    assert main(["train", "--config", str(cfg)]) == 1
    assert "model.kernel_activation" in capsys.readouterr().err
    assert not (out / "checkpoint.eavc").exists()


def test_numerical_failure_exit_code_2(tmp_path, dataset):
    out = tmp_path / "run"
    cfg = tiny_config_file(tmp_path, dataset, out, **{"train.steps": "2"})
    assert main(["train", "--config", str(cfg)]) == 0
    # corrupt a parameter so the next loss is NaN, then resume
    ckpt = out / "checkpoint.eavc"
    cfg_obj, state, _ = load_checkpoint(ckpt)
    cfg_obj.steps = 4
    state.model.store.get("aligner.w_p").value.data[:] = np.nan
    from refseg.train import save_checkpoint

    save_checkpoint(ckpt, cfg_obj, state)
    assert main(["train", "--resume", str(ckpt), "--out", str(out)]) == 2


def test_gradcheck_stub_blocks_pass():
    # the full suite is exercised by the acceptance tests; spot-check its
    # matmul checks here, drawn from the suite's own generator
    from refseg.gradcheck import grad_check
    from refseg.gradsuite import _op_checks

    checks = [c for c in _op_checks(np.random.default_rng(42)) if c[0].startswith("op.matmul")]
    assert checks and all(grad_check(f, params) < 1e-6 for _, f, params in checks)


def test_readme_command_lines_parse():
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    words = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [w[1:] for w in words if w[:1] == ["refseg"]]
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a line that does not parse exits with status 1
    assert {argv[0] for argv in commands} == set(_COMMANDS)
