#!/usr/bin/env python3
"""SHA-256 of every weight set a small seeded pretraining and fine-tuning run
produces, and of what the fine-tuned adapters score, as one JSON line.

On the seed-3, 30-entity synthetic corpus it pretrains five times at d=32,
2 layers, 30 steps of 16 examples (past an epoch boundary): joint (hklm)
mode, plain mode, and three KG-degraded joint arms (half the retrieved
triples kept, objects noised, headings dropped). Each run's checkpoint file
(header and tensors), its `metrics.jsonl` and its trained tensors alone
(`params`, hashed like the adapters below) are hashed: a change to the
checkpoint header alone moves `checkpoint` but not `params`.
From the joint run it then fine-tunes every adapter of each task in
`finetune.TASKS` for one epoch (NER, entity typing, both open-IE stages, QA
and dialogue ranking) and hashes each adapter's tensors in order
(`finetune_<task>`, or `finetune_oie1` and `finetune_oie2` for open IE's two
stages). It then scores each task's eval split and hashes what the adapters
predict (tags, label sets, triples or candidate scores) with the metric dict
(`score_<task>`).
The BLAS thread variables are printed beside the digests: a multithreaded
BLAS may sum GEMMs in another order, so compare lines taken under the same
settings. Two versions of the code that print the same line train the same
weights, and score the same outputs with them, byte for byte:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/weights_digest.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from hklm import finetune, tasks
from hklm.checkpoint import save_checkpoint
from hklm.cli import BLAS_THREAD_ENV
from hklm.corpus import Corpus, generate_synthetic_corpus, write_jsonl
from hklm.manifest import sha256_file
from hklm.pretrain import TrainConfig, run_pretraining

SEED = 3
ENTITIES = 30
PRETRAIN = {
    "joint": dict(mode="hklm"),
    "plain": dict(mode="plain"),
    "half_kg": dict(mode="hklm", triple_keep_fraction=0.5),
    "noisy_kg": dict(mode="hklm", value_noise=True),
    "drop_headings": dict(mode="hklm", drop_headings=True),
}


def rank_scores(ranker, examples) -> list[list[float]]:
    return [ranker.score(ex.tokens, ex.candidates) for ex in examples]


# task -> what its trained adapters predict on an eval split
PREDICT = {
    "ner": lambda ner, ev: ner.predict(ev),
    "et": lambda et, ev: [sorted(labels) for labels in et.predict(ev)],
    "oie": lambda stage1, stage2, ev: finetune.extract_open_triples(stage1, stage2, [ex.tokens for ex in ev]),
    "qa": rank_scores,
    "dialog": rank_scores,
}


def sha256_params(params) -> str:
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(f"{name} {arr.dtype} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def main():
    corpus, truth = generate_synthetic_corpus(SEED, ENTITIES)
    out = {"blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, kw in PRETRAIN.items():
            cfg = TrainConfig(steps=30, eval_every=10, batch_size=16, max_fragment_len=48,
                              triples_per_example=1, seed=SEED, d_model=32, n_heads=2,
                              n_layers=2, **kw)
            res = run_pretraining(cfg, corpus)
            ckpt, metrics = Path(tmp, name + ".ckpt"), Path(tmp, name + ".jsonl")
            save_checkpoint(ckpt, res.params, res.model_config, res.vocab.hash_hex())
            write_jsonl(metrics, (rec.to_json() for rec in res.metrics))
            out[name] = {"checkpoint": sha256_file(ckpt), "metrics": sha256_file(metrics),
                         "params": sha256_params(res.params)}
            if name == "joint":
                joint = res

    vocab, sub_corpus, sub_truth = joint.vocab, Corpus(documents=corpus.documents[:10]), truth[:10]
    sets = {  # task -> (train, eval)
        "ner": tasks.make_ner_data(sub_truth, vocab, SEED, n_train=16, n_eval=4),
        "et": tasks.make_et_data(sub_truth, vocab, SEED, n_train=16, n_eval=4),
        "oie": tasks.make_oie_data(sub_truth, vocab, SEED, n_train=8, n_eval=4),
        "qa": tasks.make_rank_data(sub_corpus, sub_truth, vocab, SEED, n_train=6, n_eval=2,
                                   n_candidates=6),
        "dialog": tasks.make_rank_data(sub_corpus, sub_truth, vocab, SEED, n_train=6, n_eval=2,
                                       n_candidates=6, dialog=True),
    }
    ft = finetune.FinetuneConfig(epochs=1, batch_size=4, seed=SEED)
    for task, spec in finetune.TASKS.items():
        train, ev = sets[task]
        models = [adapt(joint.params, joint.model_config, train, ft) for adapt in spec.train]
        for stage, model in enumerate(models, start=1):
            out[f"finetune_{task}{stage if len(models) > 1 else ''}"] = sha256_params(model.params)
        out["score_" + task] = sha256_json((PREDICT[task](*models, ev), spec.evaluate(*models, ev)))
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
