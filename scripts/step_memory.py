#!/usr/bin/env python3
"""Where a pretraining step's memory goes, traced with tracemalloc.

Runs a few joint pretraining steps on the seed-7, 200-entity synthetic corpus
at the trend-study shape (d=128, 4 layers, 4 heads, batch 32, one triple per
example) and prints one JSON line per training step:

- `batch`: its shape, batch × tokens;
- `rows` and `row_fraction`: R, the distinct token rows the MLM, TC and TMT
  heads read (the rows the last block runs at), and R ÷ (batch × tokens);
- `live_mb`: traced memory when its forward starts (corpus, examples,
  its batch, parameters, AdamW moments, and whatever the previous step
  left);
- `cache_mb`: what its forward added (the activation cache and the logits);
- `peak_mb`: the peak from the start of its forward to the end of its
  backward;
- `transient_mb`: `peak_mb` minus `live_mb` and `cache_mb`, what the backward
  (loss included) holds above the forward's cache at its peak;
- `faults`: the process's minor page faults over the same span (memory the
  allocator had returned to the OS and had to take back).

Each held-out evaluation of the pretraining heads (`evaluate_pretrain_heads`,
at the end of the run) gets a line too: its `examples`, its largest `batch`,
the `live_mb` when it starts and its `peak_mb`.

A last line sums it up: the parameters plus AdamW moments, the largest
`peak_mb` of a step and of an evaluation (`eval_peak_mb`), the largest
`cache_mb` plus `transient_mb` of one step (`max_step_mb`), `left_mb`, the
largest `live_mb` minus that of the first forward (what one step keeps alive
into the next), and `cache_by_entry_mb`, the activation cache of the step with
the largest `cache_mb` by entry (see `cache_by_entry`). Run it from the repository root against any checkout's `src/`
to compare two versions:

    PYTHONPATH=src python3 scripts/step_memory.py --steps 6
    PYTHONPATH=src python3 scripts/step_memory.py --steps 3 --max-fragment-len 400
"""

import argparse
import json
import resource
import tracemalloc

import numpy as np

from hklm import pretrain
from hklm.corpus import generate_synthetic_corpus

MB = 1e6


def cache_by_entry(cache):
    """MB per entry of a `forward_batch` activation cache: each block entry
    summed over the blocks (`layers.q`), the embedding's and the MLM head's
    entries under their prefix (`emb.ln`, `mlm.pre`), the head rows and head
    inputs whole. An array held under two entries counts at the first
    (`mlm.g` is `head_in`'s MLM rows)."""
    sizes, seen = {}, set()

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list, dict)):
            for item in obj.values() if isinstance(obj, dict) else obj:
                yield from arrays(item)

    def add(name, obj):
        for a in arrays(obj):
            sizes[name] = sizes.get(name, 0) + (0 if id(a) in seen else a.nbytes)
            seen.add(id(a))

    for key, value in cache.items():
        if key == "layers":
            for layer in value:
                for sub, item in layer.items():
                    add(f"layers.{sub}", item)
        elif key in ("emb", "mlm"):
            for sub, item in value.items():
                add(f"{key}.{sub}", item)
        else:
            add(key, value)
    return {name: round(n / MB, 2) for name, n in sizes.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--max-fragment-len", type=int, default=48)
    args = ap.parse_args()

    corpus, _ = generate_synthetic_corpus(7, 200)
    config = pretrain.TrainConfig(
        mode="hklm", steps=args.steps, eval_every=args.steps, batch_size=32,
        max_fragment_len=args.max_fragment_len, triples_per_example=1, seed=1,
        d_model=128, n_layers=4, n_heads=4,
    )

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    records, evals, by_entry = [], [], []
    forward, backward = pretrain.forward_batch, pretrain.backward_batch
    evaluate = pretrain.evaluate_pretrain_heads

    def traced_forward(params, model_cfg, batch, want_cache=False):
        if not want_cache:  # held-out evaluation
            evals[-1]["batch"] = max(evals[-1]["batch"], batch.ids.shape, key=lambda s: s[0] * s[1])
            return forward(params, model_cfg, batch, want_cache)
        faults = minor_faults()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = forward(params, model_cfg, batch, want_cache)
        records.append({
            "batch": "x".join(map(str, batch.ids.shape)),
            "rows": len(res.hidden),
            "row_fraction": round(len(res.hidden) / batch.ids.size, 3),
            "live_mb": round(live / MB, 1),
            "cache_mb": round((tracemalloc.get_traced_memory()[0] - live) / MB, 1),
            "faults": faults,
        })
        by_entry.append(cache_by_entry(res.cache))
        return res

    def traced_backward(*args, **kwargs):
        out = backward(*args, **kwargs)
        rec = records[-1]
        rec["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / MB, 1)
        rec["transient_mb"] = round(rec["peak_mb"] - rec["live_mb"] - rec["cache_mb"], 1)
        rec["faults"] = minor_faults() - rec["faults"]
        print(json.dumps(rec), flush=True)
        return out

    def traced_evaluate(params, model_cfg, examples):
        evals.append({"eval": "heads", "examples": len(examples), "batch": (0, 0),
                      "live_mb": round(tracemalloc.get_traced_memory()[0] / MB, 1)})
        tracemalloc.reset_peak()
        out = evaluate(params, model_cfg, examples)
        evals[-1]["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / MB, 1)
        evals[-1]["batch"] = "x".join(map(str, evals[-1]["batch"]))
        print(json.dumps(evals[-1]), flush=True)
        return out

    patched = {"forward_batch": traced_forward, "backward_batch": traced_backward,
               "evaluate_pretrain_heads": traced_evaluate}
    saved = {name: getattr(pretrain, name) for name in patched}
    for name, fn in patched.items():
        setattr(pretrain, name, fn)
    tracemalloc.start()
    try:
        result = pretrain.run_pretraining(config, corpus)
    finally:
        tracemalloc.stop()
        for name, fn in saved.items():
            setattr(pretrain, name, fn)

    params_mb = sum(p.nbytes for p in result.params.values()) / MB
    print(json.dumps({
        "params_and_moments_mb": round(3 * params_mb, 1),
        "max_peak_mb": max(r["peak_mb"] for r in records),
        "eval_peak_mb": max((e["peak_mb"] for e in evals), default=None),
        "max_step_mb": max(round(r["cache_mb"] + r["transient_mb"], 1) for r in records),
        "left_mb": round(max(r["live_mb"] for r in records) - records[0]["live_mb"], 1),
        "cache_by_entry_mb": by_entry[max(range(len(records)), key=lambda k: records[k]["cache_mb"])],
    }))


if __name__ == "__main__":
    main()
