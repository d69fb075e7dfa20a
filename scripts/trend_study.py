#!/usr/bin/env python3
"""Joint-pretraining vs plain-text trend study on the synthetic corpus.

Pretrains four checkpoints of equal steps — joint mode with the full KG,
plain MLM-only, joint with half the triples randomly dropped, and joint with
attribute values noised to [UNK] — then fine-tunes the alias NER probe from
each with three seeds and reports median F1.

What the rows measure is mostly span finding, not entity knowledge. The
alias surfaces occur only in infobox triples, never in free text, so only
the KG can teach that alias words form a class. ROADMAP item 11 split the
probe's F1 at the --small config (2,000 steps): the hklm - plain gain is
mostly span F1 (+0.099), while typing accuracy (of the predicted spans with
a gold span's bounds, the share given the right entity group) sat at
0.24-0.27 in every pretrained arm.

Desk-scale by default (~10 min per pretraining arm on one CPU core); pass
--small for a quick low-fidelity variant.
"""

import argparse
import json
import time

from hklm.corpus import build_vocab, generate_synthetic_corpus
from hklm.finetune import FinetuneConfig, evaluate_ner, finetune_token_classifier
from hklm.pretrain import TrainConfig, run_pretraining
from hklm.tasks import make_ner_data


def median(xs):
    return sorted(xs)[len(xs) // 2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--entities", type=int, default=200)
    ap.add_argument("--corpus-seed", type=int, default=42)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--small", action="store_true", help="64-dim 2-layer quick variant")
    args = ap.parse_args()

    t0 = time.time()
    corpus, truth = generate_synthetic_corpus(args.corpus_seed, args.entities)
    vocab = build_vocab(corpus)
    train, evals = make_ner_data(truth, vocab, seed=5, n_train=300, n_eval=150, surface="alias")

    model_kw = dict(d_model=64, n_layers=2, n_heads=4) if args.small else {}
    arms = {
        "hklm": dict(mode="hklm", triples_per_example=1),
        "plain": dict(mode="plain"),
        "half-kg": dict(mode="hklm", triples_per_example=1, triple_keep_fraction=0.5),
        "noisy-kg": dict(mode="hklm", triples_per_example=1, value_noise=True),
    }
    medians = {}
    for name, kw in arms.items():
        cfg = TrainConfig(steps=args.steps, eval_every=args.steps, seed=args.seed,
                          batch_size=32, max_fragment_len=48, **model_kw, **kw)
        res = run_pretraining(cfg, corpus)
        f1s = []
        for s in (1, 2, 3):
            model = finetune_token_classifier(
                res.params, res.model_config, train,
                FinetuneConfig(epochs=8, lr=1e-3, seed=s, batch_size=16),
            )
            f1s.append(evaluate_ner(model, evals)["f1"])
        medians[name] = median(f1s)
        print(f"[{name}] alias-NER F1 per seed {[round(x, 3) for x in f1s]} "
              f"median {medians[name]:.3f} ({time.time() - t0:.0f}s)", flush=True)

    print(json.dumps(medians, indent=2))
    print("joint beats plain:", medians["hklm"] > medians["plain"])
    print("degraded KG does not beat full KG:",
          medians["half-kg"] <= medians["hklm"] and medians["noisy-kg"] <= medians["hklm"])


if __name__ == "__main__":
    main()
