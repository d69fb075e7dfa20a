#!/usr/bin/env python3
"""End-to-end pipeline smoke run through the CLI.

Writes one training config, generates a small synthetic corpus with its five
task sets, writes the aligned fragments and first-epoch examples that
pretraining under that config trains on, pretrains briefly in joint mode,
and fine-tunes + evaluates the NER adapter. All stages are seeded, so
re-running reproduces every output byte for byte.
"""

import pathlib
import subprocess
import sys

WORK = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "pipeline-out")
SEED = "42"


def run(*args):
    cmd = [sys.executable, "-m", "hklm.cli", *args]
    print("+", " ".join(cmd[2:]))
    subprocess.run(cmd, check=True)


def main():
    WORK.mkdir(parents=True, exist_ok=True)
    corpus = WORK / "corpus.jsonl"
    cfg = WORK / "train.json"
    cfg.write_text(
        '{"d_model": 64, "n_layers": 2, "n_heads": 4, "steps": 300,\n'
        ' "eval_every": 100, "max_fragment_len": 48, "triples_per_example": 1,\n'
        ' "heldout_fraction": 0.1}\n'
    )
    prep = ["--corpus", str(corpus), "--seed", SEED, "--config", str(cfg)]
    run("synth-corpus", "--seed", SEED, "--entities", "40",
        "--out", str(corpus), "--tasks-out", str(WORK / "tasks"))
    run("align", *prep, "--out", str(WORK / "aligned.jsonl"))
    run("gen-examples", *prep, "--out", str(WORK / "examples.jsonl"))
    run("pretrain", *prep, "--out", str(WORK / "run"))
    run("finetune", "--checkpoint", str(WORK / "run" / "model.ckpt"),
        "--task", "ner",
        "--train", str(WORK / "tasks" / "ner-train.jsonl"),
        "--eval", str(WORK / "tasks" / "ner-eval.jsonl"),
        "--out", str(WORK / "ft-ner"), "--seed", "1", "--epochs", "4")
    print(f"\npipeline artifacts under {WORK}/")


if __name__ == "__main__":
    main()
