"""Command-line entry point wiring the pipeline into subcommands.

Every stochastic subcommand requires an explicit --seed; every run writes a
RunManifest next to its outputs before producing them. Exit codes: 0 success,
1 usage/config/serialization errors, 2 training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .align import align_corpus, fragment_corpus, unaligned_corpus, write_aligned
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import (
    Corpus,
    CorpusError,
    SynthParams,
    Vocab,
    build_vocab,
    generate_synthetic_corpus,
    load_corpus,
    load_truth,
    write_corpus,
    write_truth,
)
from .examples import ExampleError, generate_pretrain_examples, write_examples
from .finetune import (
    FinetuneConfig,
    FinetuneError,
    evaluate_et,
    evaluate_ner,
    evaluate_oie,
    evaluate_rank,
    finetune_entity_typing,
    finetune_ranker,
    finetune_span_stage1,
    finetune_span_stage2,
    finetune_token_classifier,
)
from .manifest import RunManifest, manifest_path_for, sha256_file
from .metrics import MetricsError
from .pretrain import (
    ConfigError,
    DivergenceError,
    TrainConfig,
    run_pretraining,
    write_metrics,
)
from .tasks import (
    TaskError,
    make_et_data,
    make_ner_data,
    make_oie_data,
    make_rank_data,
    read_task_data,
    write_task_data,
)

USER_ERRORS = (
    CorpusError,
    ConfigError,
    ExampleError,
    FinetuneError,
    TaskError,
    MetricsError,
    CheckpointError,
    OSError,
    json.JSONDecodeError,
    ValueError,
)


BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _load_vocab(path) -> Vocab:
    with open(path, encoding="utf-8") as fh:
        return Vocab.from_json(json.load(fh))


def _write_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vocab.to_json(), fh, ensure_ascii=False)
        fh.write("\n")


def _manifest(args, subcommand, config, inputs, outputs, seed=None, extra=None):
    man = RunManifest(
        subcommand=subcommand,
        config=config,
        inputs={str(p): sha256_file(p) for p in inputs},
        outputs=[str(p) for p in outputs],
        seed=seed,
        extra=extra or {},
    )
    return man


def cmd_synth_corpus(args) -> int:
    params = SynthParams(
        mention_fraction=args.mention_fraction,
        marker_density=args.marker_density,
    )
    corpus, truth = generate_synthetic_corpus(args.seed, args.entities, params)
    truth_path = args.out.rsplit(".jsonl", 1)[0] + ".truth.jsonl" if args.out.endswith(".jsonl") else args.out + ".truth.jsonl"
    outputs = [args.out, truth_path]
    task_files = []
    if args.tasks_out:
        os.makedirs(args.tasks_out, exist_ok=True)
        task_files = [
            os.path.join(args.tasks_out, f"{task}-{split}.jsonl")
            for task in ("ner", "et", "oie", "qa", "dialog")
            for split in ("train", "eval")
        ]
        outputs += task_files
    man = _manifest(
        args, "synth-corpus",
        {"entities": args.entities, "mention_fraction": args.mention_fraction,
         "marker_density": args.marker_density, "tasks_out": args.tasks_out},
        [], outputs, seed=args.seed,
    )
    man.write(manifest_path_for(args.out))
    write_corpus(corpus, args.out)
    write_truth(truth, truth_path)
    if args.tasks_out:
        vocab = build_vocab(corpus, 1)
        sets = {
            "ner": make_ner_data(truth, vocab, args.seed),
            "et": make_et_data(truth, vocab, args.seed),
            "oie": make_oie_data(truth, vocab, args.seed),
            "qa": make_rank_data(corpus, truth, vocab, args.seed),
            "dialog": make_rank_data(corpus, truth, vocab, args.seed, dialog=True),
        }
        for task, (train, evals) in sets.items():
            write_task_data(train, os.path.join(args.tasks_out, f"{task}-train.jsonl"))
            write_task_data(evals, os.path.join(args.tasks_out, f"{task}-eval.jsonl"))
    return 0


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.corpus)
    vocab = build_vocab(corpus, args.min_freq)
    man = _manifest(
        args, "ingest", {"min_freq": args.min_freq}, [args.corpus], [args.out],
        extra={"documents": len(corpus), "vocab_size": len(vocab), "vocab_hash": vocab.hash_hex()},
    )
    man.write(manifest_path_for(args.out))
    _write_vocab(vocab, args.out)
    return 0


def cmd_align(args) -> int:
    corpus = load_corpus(args.corpus)
    vocab = _load_vocab(args.vocab)
    man = _manifest(
        args, "align",
        {"tau": args.tau, "k_max": args.k_max, "max_fragment_len": args.max_fragment_len},
        [args.corpus, args.vocab], [args.out],
        extra={"vocab_hash": vocab.hash_hex()},
    )
    man.write(manifest_path_for(args.out))
    aligned = align_corpus(corpus, vocab, args.tau, args.k_max, args.max_fragment_len)
    write_aligned(aligned, args.out)
    return 0


def cmd_gen_examples(args) -> int:
    corpus = load_corpus(args.corpus)
    vocab = _load_vocab(args.vocab)
    cfg = TrainConfig(
        mode=args.mode, seed=args.seed, tau=args.tau, k_max=args.k_max,
        max_fragment_len=args.max_fragment_len, max_seq_len=args.max_seq_len,
        mask_prob=args.mask_prob, p_neg_tc=args.p_neg_tc, p_neg_tmt=args.p_neg_tmt,
        drop_headings=args.drop_headings, drop_triples=args.drop_triples,
        triple_keep_fraction=args.triple_keep_fraction, value_noise=args.value_noise,
    )
    cfg.validate()
    man = _manifest(
        args, "gen-examples", cfg.to_json(), [args.corpus, args.vocab], [args.out],
        seed=args.seed, extra={"vocab_hash": vocab.hash_hex()},
    )
    man.write(manifest_path_for(args.out))
    if cfg.mode == "hklm" and not cfg.ablation().drop_triples:
        aligned = align_corpus(corpus, vocab, cfg.tau, cfg.k_max, cfg.max_fragment_len)
    else:
        aligned = unaligned_corpus(corpus, fragment_corpus(corpus, vocab, cfg.max_fragment_len))
    examples, stats = generate_pretrain_examples(
        corpus, aligned, vocab, cfg.sampler_config(), cfg.ablation()
    )
    write_examples(examples, args.out, vocab.hash_hex(), debug_sidecar=args.debug_sidecar)
    print(json.dumps({"examples": stats.n_examples, "tc_skips": stats.tc_skips,
                      "tmt_skips": stats.tmt_skips}))
    return 0


def cmd_pretrain(args) -> int:
    corpus = load_corpus(args.corpus)
    cfg_obj = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg_obj = json.load(fh)
    config = TrainConfig.from_json(cfg_obj)
    config.seed = args.seed  # flags beat the config file
    if args.steps is not None:
        config.steps = args.steps
    if args.mode is not None:
        config.mode = args.mode
    config.validate()
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    vocab_path = os.path.join(args.out, "vocab.json")
    inputs = [args.corpus] + ([args.config] if args.config else [])
    # A multithreaded BLAS may sum in another order, so the checkpoint bytes
    # depend on these; null means unset.
    blas_env = {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
    man = _manifest(args, "pretrain", config.to_json(), inputs,
                    [ckpt_path, metrics_path, vocab_path], seed=args.seed,
                    extra={"blas_thread_env": blas_env})
    man.write(os.path.join(args.out, "manifest.json"))
    result = run_pretraining(config, corpus)
    _write_vocab(result.vocab, vocab_path)
    save_checkpoint(ckpt_path, result.params, result.model_config, result.vocab.hash_hex())
    write_metrics(result.metrics, metrics_path)
    if result.metrics:
        last = result.metrics[-1]
        print(json.dumps(last.to_json()))
    return 0


_TASKS = ("ner", "et", "oie", "qa", "dialog")


def cmd_finetune(args) -> int:
    params, model_cfg, vocab_hash, _opt = load_checkpoint(args.checkpoint)
    train = read_task_data(args.train)
    evals = read_task_data(args.eval)
    if not evals:
        raise FinetuneError(f"no examples in --eval file {args.eval}")
    cfg = FinetuneConfig(epochs=args.epochs, batch_size=args.batch_size,
                         lr=args.lr, seed=args.seed, max_seq_len=model_cfg.max_seq_len)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.jsonl")
    inputs = [args.checkpoint, args.train, args.eval]
    man = _manifest(
        args, "finetune",
        {"task": args.task, "epochs": args.epochs, "batch_size": args.batch_size, "lr": args.lr},
        inputs, [metrics_path], seed=args.seed, extra={"vocab_hash": vocab_hash},
    )
    man.write(os.path.join(args.out, "manifest.json"))

    if args.task == "ner":
        model = finetune_token_classifier(params, model_cfg, train, cfg)
        metrics = evaluate_ner(model, evals)
    elif args.task == "et":
        model = finetune_entity_typing(params, model_cfg, train, cfg)
        metrics = evaluate_et(model, evals)
    elif args.task == "oie":
        stage1 = finetune_span_stage1(params, model_cfg, train, cfg)
        stage2 = finetune_span_stage2(params, model_cfg, train, cfg)
        metrics = evaluate_oie(stage1, stage2, evals)
    elif args.task in ("qa", "dialog"):
        model = finetune_ranker(params, model_cfg, train, cfg)
        metrics = evaluate_rank(model, evals, dialog=args.task == "dialog")
    else:
        raise FinetuneError(f"unknown task {args.task!r}")

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
    sc.add_argument("--mention-fraction", type=float, default=0.8, dest="mention_fraction")
    sc.add_argument("--marker-density", type=float, default=0.35, dest="marker_density")
    sc.add_argument("--tasks-out", default=None, dest="tasks_out",
                    help="also emit the five synthetic task sets into this directory")
    sc.set_defaults(fn=cmd_synth_corpus)

    ing = sub.add_parser("ingest", help="validate a corpus and build its vocabulary")
    ing.add_argument("--corpus", required=True)
    ing.add_argument("--min-freq", type=int, default=1, dest="min_freq")
    ing.add_argument("--out", required=True)
    ing.set_defaults(fn=cmd_ingest)

    al = sub.add_parser("align", help="fragment documents and retrieve triples per fragment")
    al.add_argument("--corpus", required=True)
    al.add_argument("--vocab", required=True)
    al.add_argument("--out", required=True)
    al.add_argument("--tau", type=float, default=0.05)
    al.add_argument("--k-max", type=int, default=8, dest="k_max")
    al.add_argument("--max-fragment-len", type=int, default=400, dest="max_fragment_len")
    al.set_defaults(fn=cmd_align)

    ge = sub.add_parser("gen-examples", help="assemble corrupted pretraining examples")
    ge.add_argument("--corpus", required=True)
    ge.add_argument("--vocab", required=True)
    ge.add_argument("--out", required=True)
    ge.add_argument("--seed", type=int, required=True)
    ge.add_argument("--mode", choices=("plain", "hklm"), default="hklm")
    ge.add_argument("--tau", type=float, default=0.05)
    ge.add_argument("--k-max", type=int, default=8, dest="k_max")
    ge.add_argument("--max-fragment-len", type=int, default=400, dest="max_fragment_len")
    ge.add_argument("--max-seq-len", type=int, default=512, dest="max_seq_len")
    ge.add_argument("--mask-prob", type=float, default=0.15, dest="mask_prob")
    ge.add_argument("--p-neg-tc", type=float, default=0.5, dest="p_neg_tc")
    ge.add_argument("--p-neg-tmt", type=float, default=0.5, dest="p_neg_tmt")
    ge.add_argument("--drop-headings", action="store_true", dest="drop_headings")
    ge.add_argument("--drop-triples", action="store_true", dest="drop_triples")
    ge.add_argument("--triple-keep-fraction", type=float, default=1.0, dest="triple_keep_fraction")
    ge.add_argument("--value-noise", action="store_true", dest="value_noise")
    ge.add_argument("--debug-sidecar", action="store_true", dest="debug_sidecar")
    ge.set_defaults(fn=cmd_gen_examples)

    pt = sub.add_parser("pretrain", help="run the pretraining pipeline end to end")
    pt.add_argument("--corpus", required=True)
    pt.add_argument("--out", required=True)
    pt.add_argument("--seed", type=int, required=True)
    pt.add_argument("--config", default=None, help="JSON file mirroring TrainConfig fields")
    pt.add_argument("--steps", type=int, default=None)
    pt.add_argument("--mode", choices=("plain", "hklm"), default=None)
    pt.set_defaults(fn=cmd_pretrain)

    ft = sub.add_parser("finetune", help="fine-tune a task adapter and score it on --eval")
    ft.add_argument("--checkpoint", required=True)
    ft.add_argument("--task", choices=_TASKS, required=True)
    ft.add_argument("--train", required=True)
    ft.add_argument("--eval", required=True)
    ft.add_argument("--out", required=True)
    ft.add_argument("--seed", type=int, required=True)
    ft.add_argument("--epochs", type=int, default=3)
    ft.add_argument("--batch-size", type=int, default=16, dest="batch_size")
    ft.add_argument("--lr", type=float, default=3e-4)
    ft.set_defaults(fn=cmd_finetune)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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
