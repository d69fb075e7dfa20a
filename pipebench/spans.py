"""In-memory span tracer installed from outside the program.

Each traced function is replaced, on the module that calls it, by a wrapper
that records a span (name, start, end, parent). Spans stay in memory until the
run ends; `per_layer_metrics` turns them into counts and times per module.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter

# (module, attribute) pairs to wrap. A function is wrapped on the module whose
# global namespace the caller looks it up in: `hklm.pretrain` imported
# `forward_batch` by name, so its calls go through `hklm.pretrain.forward_batch`.
TRACED = [
    ("hklm.corpus", "tokenize_text"),
    ("hklm.pretrain", "build_vocab"),
    ("hklm.pretrain", "build_aligned"),
    ("hklm.pretrain", "fragment_corpus"),
    ("hklm.align", "fragment_corpus"),
    ("hklm.pretrain", "build_tfidf_index"),
    ("hklm.align", "retrieve_triples"),
    ("hklm.pretrain", "generate_pretrain_examples"),
    ("hklm.pretrain", "make_batch"),
    ("hklm.pretrain", "forward_batch"),
    ("hklm.pretrain", "backward_batch"),
    ("hklm.encoder", "encode"),
    ("hklm.encoder", "encoder_backward"),
    ("hklm.encoder", "gelu_forward"),
    ("hklm.encoder", "gelu_grad"),
    ("hklm.encoder", "layer_norm"),
    ("hklm.encoder", "layer_norm_backward"),
    ("hklm.encoder", "softmax"),
    ("hklm.pretrain", "adamw_step"),
    ("hklm.finetune", "adamw_step"),
    ("hklm.pretrain", "evaluate_pretrain_heads"),
    ("hklm.checkpoint", "save_checkpoint"),
    ("hklm.checkpoint", "load_checkpoint"),
    ("hklm.finetune", "encode"),
    ("hklm.finetune", "finetune_token_classifier"),
    ("hklm.finetune", "finetune_entity_typing"),
    ("hklm.finetune", "finetune_span_stage1"),
    ("hklm.finetune", "finetune_span_stage2"),
    ("hklm.finetune", "finetune_ranker"),
    ("hklm.finetune", "evaluate_ner"),
    ("hklm.finetune", "evaluate_et"),
    ("hklm.finetune", "evaluate_oie"),
    ("hklm.finetune", "evaluate_rank"),
]

FINETUNE_TRAIN = {
    "hklm.finetune.finetune_token_classifier",
    "hklm.finetune.finetune_entity_typing",
    "hklm.finetune.finetune_span_stage1",
    "hklm.finetune.finetune_span_stage2",
    "hklm.finetune.finetune_ranker",
}
FINETUNE_SCORE = {
    "hklm.finetune.evaluate_ner",
    "hklm.finetune.evaluate_et",
    "hklm.finetune.evaluate_oie",
    "hklm.finetune.evaluate_rank",
}
PRETRAIN_STEP = {"hklm.pretrain.forward_batch", "hklm.pretrain.backward_batch"}
PRETRAIN_EVAL = "hklm.pretrain.evaluate_pretrain_heads"

# Metric name -> (unit, better). The order is the order of the README table.
PER_LAYER = {
    "corpus.tokenize_calls": ("count", "lower"),
    "corpus.tokenize_s": ("s", "lower"),
    "corpus.tokenize_useful_ratio": ("ratio", "higher"),
    "corpus.build_vocab_s": ("s", "lower"),
    "align.fragment_calls": ("count", "lower"),
    "align.fragment_s": ("s", "lower"),
    "align.index_s": ("s", "lower"),
    "align.retrieve_calls": ("count", "lower"),
    "align.retrieve_s": ("s", "lower"),
    "align.fragments": ("count", "higher"),
    "examples.generate_calls": ("count", "lower"),
    "examples.generate_s": ("s", "lower"),
    "examples.count": ("count", "higher"),
    "encoder.make_batch_s": ("s", "lower"),
    "encoder.forward_ms": ("ms", "lower"),
    "encoder.backward_ms": ("ms", "lower"),
    "encoder.encoder_backward_ms": ("ms", "lower"),
    "encoder.gelu_ms": ("ms", "lower"),
    "encoder.gelu_grad_ms": ("ms", "lower"),
    "encoder.layer_norm_ms": ("ms", "lower"),
    "encoder.layer_norm_backward_ms": ("ms", "lower"),
    "encoder.softmax_ms": ("ms", "lower"),
    "encoder.encode_self_ms": ("ms", "lower"),
    "encoder.pad_fraction": ("ratio", "lower"),
    "optim.adamw_calls": ("count", "lower"),
    "optim.adamw_ms": ("ms", "lower"),
    "pretrain.steps": ("count", "higher"),
    "pretrain.eval_heads_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "finetune.train_s": ("s", "lower"),
    "finetune.encode_ms": ("ms", "lower"),
    "finetune.pad_fraction": ("ratio", "lower"),
    "finetune.score_s": ("s", "lower"),
    "finetune.score_encode_calls": ("count", "lower"),
    "finetune.score_pad_fraction": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _batch_fill(batch) -> tuple[float, int]:
    """(real tokens, padded slots) of a Batch."""
    return float(batch.mask.sum()), int(batch.mask.size)


# Per-call payloads kept alongside a span: what the metrics need to know about
# the call besides its time.
PAYLOADS = {
    "hklm.corpus.tokenize_text": lambda args, kwargs, result: args[0] if args else kwargs.get("text"),
    "hklm.pretrain.build_aligned": lambda args, kwargs, result: len(result[0]) + len(result[1]),
    "hklm.pretrain.generate_pretrain_examples": lambda args, kwargs, result: len(result[0]),
    "hklm.pretrain.backward_batch": lambda args, kwargs, result: _batch_fill(args[2]),
    "hklm.finetune.encode": lambda args, kwargs, result: _batch_fill(args[2]),
}


class Tracer:
    """Wraps the TRACED functions while active and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.payloads: dict[int, object] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, module, attr: str):
        fn = getattr(module, attr, None)
        name = f"{module.__name__}.{attr}"
        if not callable(fn):
            self.missing.append(name)
            return
        spans, stack, payloads = self.spans, self._stack, self.payloads
        payload = PAYLOADS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if payload is not None:
                payloads[idx] = payload(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def __enter__(self) -> "Tracer":
        for module_name, attr in TRACED:
            self._wrap(importlib.import_module(module_name), attr)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _contexts(spans: list[list]) -> list[str]:
    """Pipeline context of every span: step, eval, ft_train, ft_score or other.

    Parents precede children, so one forward pass resolves every span.
    """
    ctx: list[str] = []
    for name, _start, _end, parent in spans:
        inherited = ctx[parent] if parent >= 0 else "other"
        if inherited != "other":
            ctx.append(inherited)
        elif name == PRETRAIN_EVAL:
            ctx.append("eval")
        elif name in PRETRAIN_STEP:
            ctx.append("step")
        elif name in FINETUNE_TRAIN:
            ctx.append("ft_train")
        elif name in FINETUNE_SCORE:
            ctx.append("ft_score")
        else:
            ctx.append("other")
    return ctx


def per_layer_metrics(tracer: Tracer, steps: int, checkpoint_bytes: int,
                      traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Counts and times per module from the recorded spans.

    Times named `_s` are totals over the run; `_ms` metrics of the encoder are
    per training step except forward/backward/encoder_backward, which are the
    median duration of one call, as are `optim.adamw_ms` and
    `finetune.encode_ms`. Every time is inclusive of nested spans except
    `encoder.encode_self_ms`.
    """
    spans, payloads = tracer.spans, tracer.payloads
    ctx = _contexts(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    step_total: Counter[str] = Counter()
    durations: dict[str, list[float]] = {}
    encode_self = 0.0
    for i, (name, start, end, _parent) in enumerate(spans):
        dur = end - start
        total[name] += dur
        calls[name] += 1
        durations.setdefault(f"{ctx[i]}:{name}", []).append(dur)
        if ctx[i] == "step":
            step_total[name] += dur
            if name == "hklm.encoder.encode":
                encode_self += dur - child_time[i]

    def median_ms(key: str) -> float:
        vals = durations.get(key)
        return 1000.0 * statistics.median(vals) if vals else 0.0

    def per_step_ms(name: str) -> float:
        return 1000.0 * step_total[name] / steps if steps else 0.0

    def fill(name: str, context: str) -> float:
        real = slots = 0.0
        for i, payload in payloads.items():
            if spans[i][0] == name and ctx[i] == context:
                real += payload[0]
                slots += payload[1]
        return 1.0 - real / slots if slots else 0.0

    def payload_sum(name: str) -> int:
        return sum(p for i, p in payloads.items() if spans[i][0] == name)

    texts = [p for i, p in payloads.items() if spans[i][0] == "hklm.corpus.tokenize_text"]
    n_tok = calls["hklm.corpus.tokenize_text"]
    frag_names = ("hklm.align.fragment_corpus", "hklm.pretrain.fragment_corpus")
    adamw = [
        d for key in ("other:hklm.pretrain.adamw_step", "ft_train:hklm.finetune.adamw_step")
        for d in durations.get(key, [])
    ]
    gen = "hklm.pretrain.generate_pretrain_examples"
    return {
        "corpus.tokenize_calls": n_tok,
        "corpus.tokenize_s": total["hklm.corpus.tokenize_text"],
        "corpus.tokenize_useful_ratio": len(set(texts)) / n_tok if n_tok else 0.0,
        "corpus.build_vocab_s": total["hklm.pretrain.build_vocab"],
        "align.fragment_calls": sum(calls[n] for n in frag_names),
        "align.fragment_s": sum(total[n] for n in frag_names),
        "align.index_s": total["hklm.pretrain.build_tfidf_index"],
        "align.retrieve_calls": calls["hklm.align.retrieve_triples"],
        "align.retrieve_s": total["hklm.align.retrieve_triples"],
        "align.fragments": payload_sum("hklm.pretrain.build_aligned"),
        "examples.generate_calls": calls[gen],
        "examples.generate_s": total[gen],
        "examples.count": payload_sum(gen),
        "encoder.make_batch_s": total["hklm.pretrain.make_batch"],
        "encoder.forward_ms": median_ms("step:hklm.pretrain.forward_batch"),
        "encoder.backward_ms": median_ms("step:hklm.pretrain.backward_batch"),
        "encoder.encoder_backward_ms": median_ms("step:hklm.encoder.encoder_backward"),
        "encoder.gelu_ms": per_step_ms("hklm.encoder.gelu_forward"),
        "encoder.gelu_grad_ms": per_step_ms("hklm.encoder.gelu_grad"),
        "encoder.layer_norm_ms": per_step_ms("hklm.encoder.layer_norm"),
        "encoder.layer_norm_backward_ms": per_step_ms("hklm.encoder.layer_norm_backward"),
        "encoder.softmax_ms": per_step_ms("hklm.encoder.softmax"),
        "encoder.encode_self_ms": 1000.0 * encode_self / steps if steps else 0.0,
        "encoder.pad_fraction": fill("hklm.pretrain.backward_batch", "step"),
        "optim.adamw_calls": calls["hklm.pretrain.adamw_step"] + calls["hklm.finetune.adamw_step"],
        "optim.adamw_ms": 1000.0 * statistics.median(adamw) if adamw else 0.0,
        "pretrain.steps": steps,
        "pretrain.eval_heads_s": total[PRETRAIN_EVAL],
        "checkpoint.save_s": total["hklm.checkpoint.save_checkpoint"],
        "checkpoint.load_s": total["hklm.checkpoint.load_checkpoint"],
        "checkpoint.bytes": checkpoint_bytes,
        "finetune.train_s": sum(total[n] for n in FINETUNE_TRAIN),
        "finetune.encode_ms": median_ms("ft_train:hklm.finetune.encode"),
        "finetune.pad_fraction": fill("hklm.finetune.encode", "ft_train"),
        "finetune.score_s": sum(total[n] for n in FINETUNE_SCORE),
        "finetune.score_encode_calls": sum(
            1 for i, s in enumerate(spans) if s[0] == "hklm.finetune.encode" and ctx[i] == "ft_score"
        ),
        "finetune.score_pad_fraction": fill("hklm.finetune.encode", "ft_score"),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
