#!/usr/bin/env python3
"""Where a pretraining step's memory goes, traced with tracemalloc.

Runs a few joint pretraining steps on the seed-7, 200-entity synthetic corpus
at the trend-study shape (d=128, 4 layers, 4 heads, batch 32, one triple per
example) and prints one JSON line per training micro-batch:

- `batch`: its shape, batch × tokens;
- `rows` and `row_fraction`: R, the distinct token rows the MLM, TC and TMT
  heads read (the rows the last block runs at), and R ÷ (batch × tokens);
- `live_mb`: traced memory when its forward starts (corpus, examples,
  batches, parameters, AdamW moments, and whatever the previous step left);
- `cache_mb`: what its forward added (the activation cache and the logits);
- `peak_mb`: the peak from the start of its forward to the end of its
  backward;
- `faults`: the process's minor page faults over the same span (memory the
  allocator had returned to the OS and had to take back).

A last line sums it up: the parameters plus AdamW moments, the largest
`peak_mb`, and `left_mb`, the largest `live_mb` minus that of the first
forward: what one step keeps alive into the next. Run it from the repository
root against any checkout's `src/` to compare two versions:

    PYTHONPATH=src python3 scripts/step_memory.py --steps 6
    PYTHONPATH=src python3 scripts/step_memory.py --steps 3 --max-fragment-len 400
"""

import argparse
import json
import resource
import tracemalloc

from hklm import pretrain
from hklm.corpus import generate_synthetic_corpus

MB = 1e6


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

    records = []
    forward, backward = pretrain.forward_batch, pretrain.backward_batch

    def traced_forward(params, model_cfg, batch, want_cache=False):
        if not want_cache:  # held-out evaluation
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
        return res

    def traced_backward(*args, **kwargs):
        out = backward(*args, **kwargs)
        records[-1]["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / MB, 1)
        records[-1]["faults"] = minor_faults() - records[-1]["faults"]
        print(json.dumps(records[-1]), flush=True)
        return out

    pretrain.forward_batch, pretrain.backward_batch = traced_forward, traced_backward
    tracemalloc.start()
    try:
        result = pretrain.run_pretraining(config, corpus)
    finally:
        tracemalloc.stop()
        pretrain.forward_batch, pretrain.backward_batch = forward, backward

    params_mb = sum(p.nbytes for p in result.params.values()) / MB
    print(json.dumps({
        "params_and_moments_mb": round(3 * params_mb, 1),
        "max_peak_mb": max(r["peak_mb"] for r in records),
        "left_mb": round(max(r["live_mb"] for r in records) - records[0]["live_mb"], 1),
    }))


if __name__ == "__main__":
    main()
