"""Command-line entry point wiring the pipeline into subcommands.

Every stochastic subcommand requires an explicit --seed; every run writes a
manifest (`manifest.write_manifest`) next to its outputs before producing
them. Every JSON-lines output goes through `corpus.write_jsonl`, except that
`finetune` appends its one metrics line to its metrics.jsonl itself. Exit
codes: 0 success, 1 usage/config/serialization errors, 2 training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .align import aligned_to_json
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import build_vocab, check_json_fields, generate_synthetic_corpus, load_corpus, write_jsonl
from .examples import generate_pretrain_examples, write_examples
from .finetune import TASKS, FinetuneConfig, FinetuneError, check_records
from .manifest import manifest_path_for, write_manifest
from .optim import DivergenceError
from .pretrain import ConfigError, TrainConfig, build_aligned, run_pretraining
from .tasks import make_task_sets, read_task_data

# Every error class of the package, and json.JSONDecodeError, is a ValueError.
USER_ERRORS = (OSError, ValueError)


BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def cmd_synth_corpus(args) -> int:
    corpus, truth = generate_synthetic_corpus(args.seed, args.entities)
    truth_path = args.out.rsplit(".jsonl", 1)[0] + ".truth.jsonl" if args.out.endswith(".jsonl") else args.out + ".truth.jsonl"
    outputs = [args.out, truth_path]
    # Task -> its (train, eval) examples, built before anything is written
    # so that an error in them leaves no output behind, and its two paths.
    sets, task_paths = {}, {}
    if args.tasks_out:
        sets = make_task_sets(corpus, truth, build_vocab(corpus), args.seed)
        os.makedirs(args.tasks_out, exist_ok=True)
        task_paths = {task: [os.path.join(args.tasks_out, f"{task}-{split}.jsonl") for split in ("train", "eval")]
                      for task in sets}
        outputs += [path for pair in task_paths.values() for path in pair]
    write_manifest(
        manifest_path_for(args.out), "synth-corpus",
        {"entities": args.entities, "tasks_out": args.tasks_out},
        [], outputs, seed=args.seed,
    )
    write_jsonl(args.out, (doc.to_json() for doc in corpus))
    write_jsonl(truth_path, truth)
    for task, splits in sets.items():
        for path, examples in zip(task_paths[task], splits):
            write_jsonl(path, (ex.to_json() for ex in examples))
    return 0


def _train_config(args, mode=None, steps=None) -> TrainConfig:
    """TrainConfig from --config (every field optional, defaults fill the
    rest) with --seed and any given flag on top: flags beat the config file,
    and the config is checked once they have."""
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                values = check_json_fields(TrainConfig, json.load(fh), ConfigError)
        except ValueError as exc:  # the file's own errors; an OSError names it already
            raise ConfigError(f"{args.config}: {exc}") from exc
    flags = {"seed": args.seed, "mode": mode, "steps": steps}
    return TrainConfig(**values | {name: value for name, value in flags.items() if value is not None})


def _config_inputs(args) -> list:
    return [args.corpus] + ([args.config] if args.config else [])


def _aligned_training_split(args, outputs, mode=None):
    """The prologue of `align` and `gen-examples`: loads the corpus, builds the
    config and vocab, writes the manifest of args.out, which lists `outputs`,
    and aligns the training split. Returns (corpus, config, vocab, the
    training split's aligned fragments)."""
    corpus = load_corpus(args.corpus)
    config = _train_config(args, mode)
    vocab = build_vocab(corpus)
    write_manifest(manifest_path_for(args.out), args.subcommand, config.to_json(), _config_inputs(args),
                   outputs, seed=args.seed, extra={"vocab_hash": vocab.hash_hex()})
    train_aligned, _ = build_aligned(config, corpus, vocab)
    return corpus, config, vocab, train_aligned


def cmd_align(args) -> int:
    _, _, _, train_aligned = _aligned_training_split(args, [args.out])
    write_jsonl(args.out, map(aligned_to_json, train_aligned))
    return 0


def cmd_gen_examples(args) -> int:
    sidecar = args.out + ".debug.jsonl"
    outputs = [args.out, sidecar] if args.debug_sidecar else [args.out]
    corpus, config, vocab, train_aligned = _aligned_training_split(args, outputs, args.mode)
    examples, stats = generate_pretrain_examples(
        corpus, train_aligned, vocab, config.sampler_config(), keep_debug=args.debug_sidecar
    )
    write_examples(examples, args.out, vocab.hash_hex())
    if args.debug_sidecar:
        write_jsonl(sidecar, (ex.debug or {} for ex in examples))
    print(json.dumps({"examples": len(examples), "tc_skips": stats.tc_skips,
                      "tmt_skips": stats.tmt_skips}))
    return 0


def cmd_pretrain(args) -> int:
    corpus = load_corpus(args.corpus)
    config = _train_config(args, args.mode, args.steps)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    vocab_path = os.path.join(args.out, "vocab.json")
    # A multithreaded BLAS may sum in another order, so the checkpoint bytes
    # depend on these; null means unset.
    blas_env = {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
    write_manifest(os.path.join(args.out, "manifest.json"), "pretrain", config.to_json(), _config_inputs(args),
                   [ckpt_path, metrics_path, vocab_path], seed=args.seed, extra={"blas_thread_env": blas_env})
    result = run_pretraining(config, corpus)
    write_jsonl(vocab_path, [result.vocab.to_json()])
    save_checkpoint(ckpt_path, result.params, result.model_config, result.vocab.hash_hex())
    write_jsonl(metrics_path, (rec.to_json() for rec in result.metrics))
    if result.metrics:
        last = result.metrics[-1]
        print(json.dumps(last.to_json()))
    return 0


def cmd_finetune(args) -> int:
    params, model_cfg, vocab_hash, _opt = load_checkpoint(args.checkpoint)
    task = TASKS[args.task]
    train = read_task_data(args.train)
    evals = read_task_data(args.eval)
    for flag, path, records in (("--train", args.train, train), ("--eval", args.eval, evals)):
        try:
            check_records(records, task.variant, model_cfg)
        except FinetuneError as exc:
            raise FinetuneError(f"{flag} file {path}: {exc}") from exc
    cfg = FinetuneConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    inputs = [args.checkpoint, args.train, args.eval]
    write_manifest(
        os.path.join(args.out, "manifest.json"), "finetune",
        {"task": args.task, "epochs": args.epochs, "batch_size": args.batch_size, "lr": args.lr},
        inputs, [metrics_path], seed=args.seed, extra={"vocab_hash": vocab_hash},
    )

    metrics = task.evaluate(*(fn(params, model_cfg, train, cfg) for fn in task.train), evals)
    line = json.dumps({"task": args.task, **metrics})
    print(line)
    with open(metrics_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="hklm", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    sc = sub.add_parser("synth-corpus", help="generate a deterministic synthetic corpus")
    sc.add_argument("--seed", type=int, required=True)
    sc.add_argument("--entities", type=int, required=True)
    sc.add_argument("--out", required=True)
    sc.add_argument("--tasks-out", default=None, dest="tasks_out",
                    help="also emit the five synthetic task sets into this directory")
    sc.set_defaults(fn=cmd_synth_corpus)

    # The options of the subcommands that read a corpus under a TrainConfig.
    prep = argparse.ArgumentParser(add_help=False)
    prep.add_argument("--corpus", required=True)
    prep.add_argument("--seed", type=int, required=True)
    prep.add_argument("--config", default=None, help="JSON file mirroring TrainConfig fields")

    al = sub.add_parser("align", parents=[prep], help="write the aligned fragments of pretraining's training split")
    al.add_argument("--out", required=True)
    al.set_defaults(fn=cmd_align)

    ge = sub.add_parser("gen-examples", parents=[prep], help="write the examples of pretraining's first epoch")
    ge.add_argument("--mode", choices=("plain", "hklm"), default=None)
    ge.add_argument("--debug-sidecar", action="store_true", dest="debug_sidecar")
    ge.add_argument("--out", required=True)
    ge.set_defaults(fn=cmd_gen_examples)

    pt = sub.add_parser("pretrain", parents=[prep], help="run the pretraining pipeline end to end")
    pt.add_argument("--out", required=True)
    pt.add_argument("--steps", type=int, default=None)
    pt.add_argument("--mode", choices=("plain", "hklm"), default=None)
    pt.set_defaults(fn=cmd_pretrain)

    ft = sub.add_parser("finetune", help="fine-tune a task adapter and score it on --eval")
    ft.add_argument("--checkpoint", required=True)
    ft.add_argument("--task", choices=tuple(TASKS), required=True)
    ft.add_argument("--train", required=True)
    ft.add_argument("--eval", required=True)
    ft.add_argument("--out", required=True)
    ft.add_argument("--seed", type=int, required=True)
    ft.add_argument("--epochs", type=int, default=FinetuneConfig.epochs)
    ft.add_argument("--batch-size", type=int, default=FinetuneConfig.batch_size, dest="batch_size")
    ft.add_argument("--lr", type=float, default=FinetuneConfig.lr)
    ft.set_defaults(fn=cmd_finetune)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Training stops at the first non-finite loss or gradient with exit 2;
        # numpy's overflow warnings on the way there add nothing to that line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
