"""Command-line surface: train, eval, predict, generate, ablate.

Exit codes: 0 success, 2 usage or data error, 3 numerical failure during
training. Configuration precedence, lowest to highest: built-in dataclass
defaults, --preset, --config JSON file, individual flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
from dataclasses import asdict

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    IGNORE_LABEL,
    build_label_vocab,
    build_token_vocab,
    parse_conll,
    parse_predict_input,
    serialize_conll,
)
from .errors import (ConfigError, GraphFuseError, ParseError,
                     TrainingDivergedError, VocabMismatchError)
from .evaluation import evaluate, predict_corpus, thread_count, truncation
from .model import VARIANTS, ModelConfig, TokenClassifier, build_config
from .presets import get_preset
from .rng import RngState
from .synth import KINDS, copy_spec, generate, relational_spec, window_spec
from .training import TrainConfig, train

_SPEC_FACTORIES = {
    "copy": copy_spec,
    "window": window_spec,
    "relational-match": relational_spec,
}


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``. A byte that is not UTF-8 raises ParseError
    naming the file and the 1-based line the byte is on."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is its bytes;
        # count lines as text mode splits them: at \n, \r\n and a lone \r
        head = exc.object[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path} is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                         f"({exc.reason})", line=line) from None


def _load_corpus(path: str, parse=parse_conll):
    """``parse`` of the text of ``path``; a ParseError names the file."""
    text = _read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _note_truncation(corpus, max_len: int, fate: str) -> None:
    """Say on stderr how many sentences exceed max_len and lose their tail."""
    sentences, tokens = truncation(corpus, max_len)
    if sentences:
        print(f"note: {sentences} of {len(corpus)} sentences exceed max_len "
              f"{max_len}; their {tokens} tail tokens {fate}",
              file=sys.stderr)


def _layered_config(args) -> tuple[dict, dict]:
    """Merge preset -> config file -> flags into model/train override dicts."""
    layers = [get_preset(args.preset)] if args.preset else []
    if args.config:
        blob = json.loads(_read_text(args.config))
        if not isinstance(blob, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
        unknown = sorted(set(blob) - {"model", "train"})
        if unknown:
            raise ConfigError(f"{args.config}: unknown key(s) {unknown}; "
                              "only \"model\" and \"train\" are allowed")
        layers.append(blob)
    flag_model = {
        "max_len": args.max_len,
        "d": args.hidden, "d_emb": args.hidden, "gat_hidden": args.hidden,
        "gat_heads": args.heads, "enc_heads": args.heads,
        "dec_heads": args.heads, "variant": getattr(args, "variant", None),
    }
    flag_train = {
        "learning_rate": args.lr, "epochs": args.epochs,
        "batch_size": args.batch_size, "max_len": args.max_len,
        "seed": args.seed,
    }
    model: dict = {}
    train_: dict = {}
    for layer in layers:
        for name, merged in (("model", model), ("train", train_)):
            section = layer.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{name} must be an object, got {section!r}")
            merged.update(section)
    model.update({k: v for k, v in flag_model.items() if v is not None})
    train_.update({k: v for k, v in flag_train.items() if v is not None})
    return model, train_


def cmd_train(args) -> int:
    model_over, train_over = _layered_config(args)
    train_config = build_config(TrainConfig, train_over, "train")
    train_corpus = _load_corpus(args.train)
    valid_corpus = _load_corpus(args.valid)
    if not train_corpus:
        raise ConfigError(f"{args.train}: no sentences found")
    if not valid_corpus:
        raise ConfigError(f"{args.valid}: no sentences found")

    token_vocab = build_token_vocab(train_corpus)
    label_vocab = build_label_vocab(train_corpus)
    model_config = build_config(ModelConfig, model_over, "model",
                                vocab_size=len(token_vocab),
                                n_labels=len(label_vocab))
    model = TokenClassifier(model_config, token_vocab, label_vocab,
                            RngState(train_config.seed))
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before training
    result = train(model, {"train": train_corpus, "valid": valid_corpus},
                   train_config)

    save_checkpoint(os.path.join(args.out, "checkpoint.npz"), model)
    with open(os.path.join(args.out, "history.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(result.history_jsonl())
    with open(os.path.join(args.out, "config.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"model": asdict(model_config),
                   "train": asdict(train_config)}, fh, indent=2)
        fh.write("\n")
    for row in result.history:
        print(f"epoch {row['epoch']:3d}  loss {row['train_loss']:.4f}  "
              f"valid micro-F1 {row['micro_f1']:.4f}")
    print(f"best micro-F1 {result.best_micro:.4f} at epoch "
          f"{result.best_epoch} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    test_corpus = _load_corpus(args.test)
    if not test_corpus:
        raise ConfigError(f"{args.test}: no sentences found")
    known = set(model.label_vocab.label_to_id)
    for sent in test_corpus:
        for lab in sent.labels:
            if lab != IGNORE_LABEL and lab not in known:
                raise VocabMismatchError(
                    f"test label {lab!r} is not in the checkpoint's "
                    f"label vocabulary")
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before scoring
    report = evaluate(model, test_corpus,
                      batch_size=args.batch_size,
                      max_len=model.config.max_len)
    with open(os.path.join(args.out, "report.json"), "w",
              encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    with open(os.path.join(args.out, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report.to_text())
    print(report.to_text(), end="")
    _note_truncation(test_corpus, model.config.max_len, "are not scored")
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    sentences = _load_corpus(args.input, parse_predict_input)
    # opened first, so a bad --output fails before predicting
    with (contextlib.nullcontext(sys.stdout) if args.output == "-"
          else open(args.output, "w", encoding="utf-8")) as fh:
        predictions = predict_corpus(model, sentences,
                                     batch_size=args.batch_size,
                                     max_len=model.config.max_len)
        lines = []
        for sent, labels in zip(sentences, predictions):
            # sentences longer than the model's max_len keep their tail
            # tokens, labeled O, so output line count equals input token count
            padded = list(labels) + ["O"] * (len(sent.tokens) - len(labels))
            lines.extend(f"{tok} {lab}" for tok, lab in zip(sent.tokens, padded))
            lines.append("")
        fh.write("\n".join(lines[:-1]) + "\n" if lines else "")
    _note_truncation(sentences, model.config.max_len, "are labelled O")
    return 0


def cmd_generate(args) -> int:
    spec = _SPEC_FACTORIES[args.task](seed=args.seed)
    splits = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    for name in ("train", "valid", "test"):
        path = os.path.join(args.out, f"{name}.conll")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_conll(splits[name]))
        print(f"wrote {len(splits[name]):4d} sentences -> {path}")
    return 0


def cmd_ablate(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    except ValueError as exc:  # the message names the bad entry
        raise ConfigError(f"--seeds: {exc}") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    model_over, train_over = _layered_config(args)
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before training

    splits = generate(relational_spec(seed=args.data_seed))
    token_vocab = build_token_vocab(splits["train"])
    label_vocab = build_label_vocab(splits["train"])
    corpora = {"train": splits["train"], "valid": splits["valid"]}

    rows = []
    for variant in VARIANTS:
        for seed in seeds:
            train_config = build_config(TrainConfig, train_over, "train",
                                        seed=seed)
            model_config = build_config(
                ModelConfig, model_over, "model", variant=variant,
                vocab_size=len(token_vocab), n_labels=len(label_vocab))
            model = TokenClassifier(model_config, token_vocab, label_vocab,
                                    RngState(seed))
            train(model, corpora, train_config)
            report = evaluate(model, splits["test"],
                              batch_size=train_config.batch_size,
                              max_len=model_config.max_len)
            rows.append((variant, seed, report.micro["f1"],
                         report.macro["f1"]))
            print(f"{variant:8s} seed {seed}: micro-F1 "
                  f"{report.micro['f1']:.4f}", flush=True)

    csv_path = os.path.join(args.out, "ablation.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("variant,seed,micro_f1,macro_f1\n")
        for variant, seed, micro, macro in rows:
            fh.write(f"{variant},{seed},{micro:.6f},{macro:.6f}\n")

    summary_lines = []
    for variant in VARIANTS:
        micros = [r[2] for r in rows if r[0] == variant]
        mean = statistics.mean(micros)
        std = statistics.stdev(micros) if len(micros) > 1 else 0.0
        summary_lines.append(f"{variant:8s} micro-F1 {mean:.4f} +/- {std:.4f}")
    summary = "\n".join(summary_lines) + "\n"
    with open(os.path.join(args.out, "summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, with_variant=True) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help="named preset (see presets module)")
    if with_variant:
        p.add_argument("--variant", choices=VARIANTS,
                       help="which modules are active")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--heads", type=int, default=None,
                   help="attention heads for all attention modules")
    p.add_argument("--hidden", type=int, default=None,
                   help="model width d (also embedding and GAT hidden size)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfuse",
        description="Token classification with a GAT-refined encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on CoNLL data")
    p.add_argument("--train", required=True, help="training CoNLL file")
    p.add_argument("--valid", required=True, help="validation CoNLL file")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="labeled CoNLL file")
    p.add_argument("--out", default=".", help="report directory")
    p.add_argument("--batch-size", type=int, default=16)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="label raw tokens with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="token-per-line file; existing labels are ignored")
    p.add_argument("--output", default="-", help="output path or - (stdout)")
    p.add_argument("--batch-size", type=int, default=16)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("generate", help="write a synthetic task to disk")
    p.add_argument("--task", choices=KINDS, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ablate",
                       help="run all variants on relational-match")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="comma-separated training seeds")
    p.add_argument("--data-seed", type=int, default=0,
                   help="seed for the generated task data")
    _add_config_flags(p, with_variant=False)
    p.set_defaults(func=cmd_ablate, preset="relational")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "generate":  # the others evaluate a model
            thread_count()  # so a bad GRAPHFUSE_THREADS fails before any work
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (GraphFuseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
