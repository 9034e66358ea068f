"""Command-line interface.

Subcommands: gen-data, train, eval, gradcheck, ablate, dump-masks,
dump-attention.  Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 threshold failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .ablation import run_ablation
from .autodiff import Tensor
from .config import ConfigError, load_train_config, read_kv_file
from .data import default_manifest, generate_from_manifest, load_split, save_dataset
from .encoders import Vocabulary
from .errors import NumericalError, RefsegError
from .gradsuite import THRESHOLD, run_gradient_suite
from .metrics import evaluate, predict_binary_mask
from .model import Model
from .tensor_io import write_pgm, write_tensor
from .train import init_state, load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_THRESHOLD = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_list(text: str) -> list:
    """A comma list of ints; argparse reports a bad item as a usage error."""
    return [int(s) for s in text.split(",")]


def _positive_int(text: str) -> int:
    """An int of at least 1; argparse reports anything else as a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="refseg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset from a manifest")
    p.add_argument("--out", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--manifest", help="manifest file; a default is used when omitted")
    source.add_argument("--image-size", type=int, help="image size of the default manifest (64 when omitted)")

    p = sub.add_parser("train", help="train a model from a key=value config")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--out", help="overrides train.out_dir")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--mode")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--sample-per-param", type=_positive_int, default=2)

    p = sub.add_parser("ablate", help="train and compare model variants")
    p.add_argument("--config", required=True)
    p.add_argument("--variants", default="full,fixed_kernel")
    p.add_argument("--queries", type=_int_list, default=[], help="comma list of query counts to sweep")
    p.add_argument("--seeds", type=_int_list, default="0,1,2")
    p.add_argument("--out", help="write per-seed records as JSON lines")

    p = sub.add_parser("dump-masks", help="write per-query masks for one sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--mode")

    p = sub.add_parser("dump-attention", help="write the word-attention map for one sample")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen_data(args) -> int:
    if args.manifest:
        manifest = read_kv_file(args.manifest)
    else:
        manifest = default_manifest() if args.image_size is None else default_manifest(args.image_size)
    splits, grammar, _ = generate_from_manifest(manifest)
    save_dataset(args.out, splits, grammar, manifest)
    sizes = {name: len(samples) for name, samples in splits.items()}
    print(json.dumps({"out": args.out, "splits": sizes}, sort_keys=True))
    return EXIT_OK


def _load_data_for_training(cfg):
    root = Path(cfg.data_root)
    if not root.exists():
        raise ConfigError(f"data root {root} does not exist; run gen-data first")
    vocab = Vocabulary.load(root / "vocab.txt")
    train_samples = load_split(root, "train")
    val_samples = load_split(root, "val") if (root / "val").exists() else None
    return vocab, train_samples, val_samples


def _cmd_train(args) -> int:
    cfg, state, vocab = load_checkpoint(args.resume) if args.resume else (load_train_config(args.config), None, None)
    out_dir = Path(args.out or cfg.out_dir or "run")
    out_dir.mkdir(parents=True, exist_ok=True)

    data_vocab, train_samples, val_samples = _load_data_for_training(cfg)
    if vocab is None:
        vocab = data_vocab
    if state is None:
        state = init_state(cfg, vocab)

    log_path = out_dir / "metrics.jsonl"
    mode = "a" if args.resume else "w"
    with open(log_path, mode) as f:
        train(
            cfg,
            state,
            train_samples,
            val_samples,
            log=lambda line: f.write(line + "\n"),
            dump_dir=out_dir / "diagnostics",
        )
    ckpt_path = out_dir / "checkpoint.eavc"
    save_checkpoint(ckpt_path, cfg, state)
    print(json.dumps({"checkpoint": str(ckpt_path), "log": str(log_path), "step": state.step}))
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg, state, _ = load_checkpoint(args.checkpoint)
    samples = load_split(args.data, args.split)
    report = evaluate(state.model, samples, mode=args.mode or cfg.mode)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results, zero_names = run_gradient_suite(e2e_sample_per_param=args.sample_per_param)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_rel_err={r.max_rel_err:.3e} ({r.seconds:.2f}s)")
        failed = failed or not r.passed
    for name in zero_names:
        print(f"WARN zero gradient: {name}")
    if failed:
        print(f"threshold {THRESHOLD} exceeded", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = load_train_config(args.config)
    vocab, train_samples, val_samples = _load_data_for_training(cfg)
    variants = [{"mode": m} for m in args.variants.split(",") if m]
    variants += [{"num_queries": q} for q in args.queries]
    report = run_ablation(cfg, variants, args.seeds, vocab, train_samples, eval_samples=val_samples)
    print(report.to_text_table())
    if args.out:
        Path(args.out).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in report.to_records()))
    return EXIT_OK


def _sample_forward(args):
    """Both dumps' prelude: load the checkpoint, pick the sample and run one
    forward, in ``--mode`` (dump-masks) or else the checkpoint's mode."""
    cfg, state, _ = load_checkpoint(args.checkpoint)
    samples = load_split(args.data, args.split)
    if not 0 <= args.sample < len(samples):
        raise ConfigError(f"sample index {args.sample} out of range (0..{len(samples) - 1})")
    model, sample = state.model, samples[args.sample]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tokens = model.tokenize(sample.expression)
    image = Tensor(np.asarray(sample.image, dtype=model.dtype))
    bundle = model.forward(image, tokens, mode=getattr(args, "mode", None) or cfg.mode)
    return model, sample, tokens, bundle, out


def _cmd_dump_masks(args) -> int:
    _, sample, _, bundle, out = _sample_forward(args)
    logits = {f"mask{n}": mask.data for n, mask in enumerate(bundle.masks)}
    logits["y"] = bundle.y.data
    for name, z in logits.items():
        write_pgm(out / f"{name}.pgm", 1.0 / (1.0 + np.exp(-z.astype(np.float64))))
        write_tensor(out / f"{name}.eavt", z)
    pred = predict_binary_mask(bundle.y.data, sample.gt_mask.shape)
    write_pgm(out / "pred_binary.pgm", pred.astype(np.float64))
    (out / "scores.json").write_text(
        json.dumps({"expression": sample.expression, "scores": bundle.scores.data.tolist()}, sort_keys=True)
    )
    print(json.dumps({"out": str(out), "masks": len(bundle.masks)}))
    return EXIT_OK


def _cmd_dump_attention(args) -> int:
    model, sample, tokens, bundle, out = _sample_forward(args)
    a = bundle.attention.data
    write_tensor(out / "attention.eavt", a)
    words = [model.vocab.words[i] for i in tokens.ids]
    lines = ["\t".join(["query"] + words)]
    for n in range(a.shape[0]):
        lines.append("\t".join([str(n)] + [f"{v:.4f}" for v in a[n]]))
    (out / "attention.tsv").write_text("\n".join(lines) + "\n")
    print(json.dumps({"out": str(out), "expression": sample.expression}))
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "ablate": _cmd_ablate,
    "dump-masks": _cmd_dump_masks,
    "dump-attention": _cmd_dump_attention,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RefsegError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
