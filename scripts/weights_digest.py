#!/usr/bin/env python3
"""SHA-256 of every weight set a small seeded pretraining and fine-tuning run
produces, as one JSON line.

On the seed-3, 30-entity synthetic corpus it pretrains six times at d=32,
2 layers, 30 steps of 16 examples (past an epoch boundary): joint (hklm)
mode at `grad_accum` 1 and 2, plain mode, and three KG-degraded joint arms
(half the retrieved triples kept, objects noised, headings dropped). Each
run's checkpoint file (header and tensors), its `metrics.jsonl` and its
trained tensors alone (`params`, hashed like the adapters below) are hashed:
a change to the checkpoint header alone moves `checkpoint` but not `params`.
From the first joint run it then fine-tunes every adapter for one
epoch (NER, entity typing, both open-IE stages, QA and dialogue ranking) and
hashes each adapter's tensors in order. The BLAS thread variables are printed
beside the digests: a multithreaded BLAS may sum GEMMs in another order, so
compare lines taken under the same settings. Two versions of the code that
print the same line train the same weights byte for byte:

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
    "joint_accum2": dict(mode="hklm", grad_accum=2),
    "plain": dict(mode="plain"),
    "half_kg": dict(mode="hklm", triple_keep_fraction=0.5),
    "noisy_kg": dict(mode="hklm", value_noise=True),
    "drop_headings": dict(mode="hklm", drop_headings=True),
}


def sha256_params(params) -> str:
    h = hashlib.sha256()
    for name, arr in params.items():
        h.update(f"{name} {arr.dtype} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def main():
    corpus, truth = generate_synthetic_corpus(SEED, ENTITIES)
    out = {"blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV}}
    joint = None
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
            joint = joint or res

    vocab, sub_corpus, sub_truth = joint.vocab, Corpus(documents=corpus.documents[:10]), truth[:10]
    sets = {
        "ner": tasks.make_ner_data(sub_truth, vocab, SEED, n_train=16, n_eval=4)[0],
        "et": tasks.make_et_data(sub_truth, vocab, SEED, n_train=16, n_eval=4)[0],
        "oie": tasks.make_oie_data(sub_truth, vocab, SEED, n_train=8, n_eval=4)[0],
        "qa": tasks.make_rank_data(sub_corpus, sub_truth, vocab, SEED, n_train=6, n_eval=2,
                                   n_candidates=6)[0],
        "dialog": tasks.make_rank_data(sub_corpus, sub_truth, vocab, SEED, n_train=6, n_eval=2,
                                       n_candidates=6, dialog=True)[0],
    }
    ft = finetune.FinetuneConfig(epochs=1, batch_size=4, seed=SEED)
    adapters = {
        "ner": (finetune.finetune_token_classifier, "ner"),
        "et": (finetune.finetune_entity_typing, "et"),
        "oie1": (finetune.finetune_span_stage1, "oie"),
        "oie2": (finetune.finetune_span_stage2, "oie"),
        "qa": (finetune.finetune_ranker, "qa"),
        "dialog": (finetune.finetune_ranker, "dialog"),
    }
    for name, (adapt, task) in adapters.items():
        model = adapt(joint.params, joint.model_config, sets[task], ft)
        out["finetune_" + name] = sha256_params(model.params)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
