"""Pretraining driver: plain-text MLM mode and the joint three-task mode."""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .align import AlignedFragment, align_corpus, build_tfidf_index, fragment_corpus, unaligned_corpus
from .corpus import NUM_SPECIAL, Corpus, Vocab, build_vocab, derive_seed
from .encoder import (
    Batch,
    ModelConfig,
    NonFiniteGradientError,
    backward_batch,
    forward_batch,
    init_params,
    make_batch,
)
from .examples import AblationConfig, PretrainExample, SamplerConfig, generate_pretrain_examples
from .optim import AdamWConfig, AdamWState, adamw_step


class ConfigError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or gradient."""


# The Python types a JSON value may decode to for each TrainConfig field
# annotation; an int is accepted where a float is expected.
_JSON_FIELD_TYPES = {
    "str": (str,),
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "int | None": (int, type(None)),
}


@dataclass
class TrainConfig:
    mode: str = "hklm"  # "plain" or "hklm"
    lam: float = 1.0
    mu: float = 1.0
    lr: float = 3e-5
    lr_scale: float = 10.0  # desk-scale multiplier on the base rate
    warmup_steps: int = 100
    weight_decay: float = 0.0
    batch_size: int = 32
    steps: int = 2000
    eval_every: int = 200
    grad_accum: int = 1
    seed: int = 0
    heldout_fraction: float = 0.05
    vocab_min_freq: int = 1
    max_fragment_len: int = 400
    tau: float = 0.05
    k_max: int = 8
    # model
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 4
    ffn_mult: int = 4
    max_seq_len: int = 512
    tie_mlm: bool = True
    dtype: str = "float32"
    init_std: float = 0.02
    attn_init_std: float = 0.1
    pos_init: str = "sinusoidal"
    pos_init_scale: float = 0.05
    # sampler
    mask_prob: float = 0.15
    mask_token_frac: float = 0.8
    random_token_frac: float = 0.1
    keep_frac: float = 0.1
    p_neg_tc: float = 0.5
    p_neg_tmt: float = 0.5
    triples_per_example: int | None = None
    # KG ablation / degradation switches
    drop_headings: bool = False
    drop_triples: bool = False
    triple_keep_fraction: float = 1.0
    value_noise: bool = False

    def validate(self) -> None:
        if self.mode not in ("plain", "hklm"):
            raise ConfigError(f"mode must be 'plain' or 'hklm', got {self.mode!r}")
        if self.lam < 0 or self.mu < 0:
            raise ConfigError("lam and mu must be nonnegative")
        if not (self.lr > 0 and self.lr_scale > 0):
            raise ConfigError("lr and lr_scale must be > 0")
        if self.warmup_steps < 0 or self.eval_every < 0 or not self.weight_decay >= 0:
            raise ConfigError("warmup_steps, eval_every and weight_decay must be >= 0")
        if self.mode == "plain" and (self.triple_keep_fraction != 1.0 or self.value_noise):
            raise ConfigError("triple_keep_fraction and value_noise require hklm mode")
        if self.steps < 0 or self.batch_size < 1 or self.grad_accum < 1:
            raise ConfigError("steps must be >= 0, batch_size and grad_accum >= 1")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must be in (0, 1)")
        self.ablation().validate()
        self.sampler_config().validate()

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            ffn_mult=self.ffn_mult,
            max_seq_len=self.max_seq_len,
            tie_mlm=self.tie_mlm,
            dtype=self.dtype,
            init_std=self.init_std,
            attn_init_std=self.attn_init_std,
            pos_init=self.pos_init,
            pos_init_scale=self.pos_init_scale,
        )

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            mask_prob=self.mask_prob,
            mask_token_frac=self.mask_token_frac,
            random_token_frac=self.random_token_frac,
            keep_frac=self.keep_frac,
            p_neg_tc=self.p_neg_tc,
            p_neg_tmt=self.p_neg_tmt,
            max_seq_len=self.max_seq_len,
            triples_per_example=self.triples_per_example,
            seed=self.seed,
        )

    def ablation(self) -> AblationConfig:
        if self.mode == "plain":
            return AblationConfig(drop_headings=True, drop_triples=True)
        return AblationConfig(
            drop_headings=self.drop_headings,
            drop_triples=self.drop_triples,
            triple_keep_fraction=self.triple_keep_fraction,
            value_noise=self.value_noise,
        )

    def effective_lr(self) -> float:
        return self.lr * self.lr_scale

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        """Config from a JSON object of field values; every field is optional."""
        if not isinstance(obj, dict):
            raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(obj) - set(types)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in obj.items():
            accepted = _JSON_FIELD_TYPES[types[name]]
            # bool is a subclass of int, but true is not a step count.
            if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
                raise ConfigError(f"config field {name!r} must be {types[name]}, got {json.dumps(value)}")
        return cls(**obj)



@dataclass
class MetricsRecord:
    step: int
    loss_total: float
    loss_mlm: float
    loss_tc: float
    loss_tmt: float
    tc_acc: float | None
    tmt_acc: float | None
    mlm_acc: float | None
    wallclock: float = 0.0

    def to_json(self, include_timing: bool = False) -> dict:
        obj = {
            "step": self.step,
            "loss_total": self.loss_total,
            "loss_mlm": self.loss_mlm,
            "loss_tc": self.loss_tc,
            "loss_tmt": self.loss_tmt,
            "tc_acc": self.tc_acc,
            "tmt_acc": self.tmt_acc,
            "mlm_acc": self.mlm_acc,
        }
        # Timing is real wall-clock and would break byte-reproducibility of
        # the metrics file, so it is opt-in.
        if include_timing:
            obj["wallclock"] = self.wallclock
        return obj


@dataclass
class PretrainResult:
    params: dict[str, np.ndarray]
    model_config: ModelConfig
    vocab: Vocab
    metrics: list[MetricsRecord]
    train_examples: list[PretrainExample]
    held_examples: list[PretrainExample]
    loss_trace: list[tuple[float, float, float, float]]  # (total, mlm, tc, tmt) per step


def split_corpus(corpus: Corpus, heldout_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Entity-level held-out split; content of held documents never reaches training."""
    n = len(corpus)
    if n < 2:
        raise ConfigError(f"corpus of {n} document(s) is too small for a held-out split")
    order = np.random.default_rng(derive_seed(seed, "split")).permutation(n)
    n_held = max(1, round(heldout_fraction * n))
    if n - n_held < 1:
        raise ConfigError("held-out split would leave no training documents")
    held_idx = set(int(i) for i in order[:n_held])
    train_docs = [doc for i, doc in enumerate(corpus.documents) if i not in held_idx]
    held_docs = [doc for i, doc in enumerate(corpus.documents) if i in held_idx]
    return Corpus(documents=train_docs), Corpus(documents=held_docs)


def build_aligned(
    config: TrainConfig, corpus: Corpus, vocab: Vocab
) -> tuple[list[AlignedFragment], list[AlignedFragment]]:
    """Fragment and align both splits of the corpus.

    Each split is fragmented once. The TF-IDF index is built from the
    training split only, so no held-out statistics leak into the retrieval
    stage.
    """
    train_corpus, held_corpus = split_corpus(corpus, config.heldout_fraction, config.seed)
    train_frags = fragment_corpus(train_corpus, vocab, config.max_fragment_len)
    held_frags = fragment_corpus(held_corpus, vocab, config.max_fragment_len)
    if config.mode == "plain" or config.ablation().drop_triples:
        return unaligned_corpus(train_corpus, train_frags), unaligned_corpus(held_corpus, held_frags)

    index = build_tfidf_index(train_corpus, vocab, config.max_fragment_len, fragments=train_frags)

    def aligned_for(sub: Corpus, frags) -> list[AlignedFragment]:
        return align_corpus(
            sub, vocab, config.tau, config.k_max, config.max_fragment_len,
            index=index, fragments=frags,
        )

    return aligned_for(train_corpus, train_frags), aligned_for(held_corpus, held_frags)


def epoch_sampler(config: TrainConfig, epoch: int) -> SamplerConfig:
    """Sampler for one training epoch.

    Corruptions and masks are redrawn every epoch (deterministically from the
    master seed) so a small corpus cannot be beaten by memorizing one frozen
    set of negatives. Epoch 0 uses the master seed itself, which keeps the
    gen-examples file identical to the first epoch's stream.
    """
    sampler = config.sampler_config()
    if epoch > 0:
        sampler.seed = derive_seed(config.seed, "epoch", epoch)
    return sampler


def _length_bucketed_batches(
    examples: list[PretrainExample], batch_size: int, dtype
) -> list[Batch]:
    # Sorting by length keeps padding waste near zero; the per-epoch shuffle
    # then permutes whole batches, preserving determinism.
    order = sorted(range(len(examples)), key=lambda i: (len(examples[i].input_ids), i))
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = [examples[i] for i in order[start : start + batch_size]]
        batches.append(make_batch(chunk, dtype=dtype))
    return batches


def head_accuracy(logits: np.ndarray, labels: np.ndarray) -> tuple[int, int]:
    """(correct, total) for argmax predictions; total is 0 when unsupported."""
    if logits.shape[0] == 0:
        return 0, 0
    pred = logits.argmax(axis=-1)
    return int((pred == labels).sum()), int(len(labels))


def evaluate_pretrain_heads(
    params, model_config: ModelConfig, examples: list[PretrainExample], batch_size: int = 64
) -> dict:
    """Inference-mode accuracy of the three heads over a fixed example set."""
    totals = {"tc": [0, 0], "tmt": [0, 0], "mlm": [0, 0]}
    for start in range(0, len(examples), batch_size):
        batch = make_batch(examples[start : start + batch_size], dtype=model_config.np_dtype)
        res = forward_batch(params, model_config, batch)
        for key, logits, labels in (
            ("mlm", res.mlm_logits, batch.mlm_label),
            ("tc", res.tc_logits, batch.tc_label),
            ("tmt", res.tmt_logits, batch.tmt_label),
        ):
            c, t = head_accuracy(logits, labels)
            totals[key][0] += c
            totals[key][1] += t
    return {
        key: (totals[key][0] / totals[key][1] if totals[key][1] else None)
        for key in ("tc", "tmt", "mlm")
    } | {f"n_{key}": totals[key][1] for key in ("tc", "tmt", "mlm")}


def restore_original_ids(ex: PretrainExample) -> list[int]:
    ids = list(ex.input_ids)
    for pos, orig in ex.mlm_labels:
        ids[pos] = orig
    return ids


def unigram_baseline_accuracy(
    train_examples: list[PretrainExample], held_examples: list[PretrainExample]
) -> float:
    """Accuracy of always predicting the most frequent training token at the
    held-out masked positions."""
    counts: Counter[int] = Counter()
    for ex in train_examples:
        counts.update(t for t in restore_original_ids(ex) if t >= NUM_SPECIAL)
    if not counts:
        return 0.0
    top = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    held = [orig for ex in held_examples for _, orig in ex.mlm_labels]
    if not held:
        return 0.0
    return sum(1 for t in held if t == top) / len(held)


# glibc's mallopt parameters (malloc.h), its largest mmap threshold on 64-bit
# platforms, and the trim threshold glibc pairs with it (twice the mmap
# threshold) when it raises the threshold itself.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20
_TRIM_THRESHOLD_AFTER = 2 * _MMAP_THRESHOLD_MAX


def _glibc():
    """The C library of this process if it is glibc, else None."""
    try:
        return ctypes.CDLL(None) if os.confstr("CS_GNU_LIBC_VERSION") else None
    except (AttributeError, OSError, ValueError):  # no confstr, or no such name
        return None


@contextlib.contextmanager
def _freed_heap_retained():
    """Within the block, glibc keeps freed heap memory in the process.

    Training frees each step's activation cache (tens to hundreds of MB)
    before the next forward allocates one of about the same size. By default
    glibc hands a freed heap top back to the OS, and the next forward
    page-faults every page of it in again. With arrays up to 32 MiB served
    from the heap and no trimming, the next cache reuses those pages; the
    peak resident size stays one cache.

    On exit the retained memory goes back to the OS (`malloc_trim`) and
    trimming is back on, at the 64 MiB threshold glibc pairs with a 32 MiB
    mmap threshold. The mmap threshold stays at 32 MiB, the ceiling of the
    threshold glibc raises by itself as large arrays are freed, and that
    raising stays off. A no-op on other C libraries.
    """
    libc = _glibc()
    if libc is None:
        yield
        return
    mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    malloc_trim.argtypes = (ctypes.c_size_t,)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    try:
        yield
    finally:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_AFTER)
        malloc_trim(0)


def run_pretraining(config: TrainConfig, corpus: Corpus, progress=None) -> PretrainResult:
    """End-to-end fragment -> align -> corrupt -> train pipeline.

    Deterministic given (config, corpus) and the BLAS thread count: every
    random stream derives from config.seed, but a multithreaded BLAS may sum
    GEMMs in another order, which moves the weights in the last bits.
    Raises DivergenceError on non-finite loss or gradients.

    On glibc the training loop changes the C allocator's settings, and one
    of them, a fixed 32 MiB mmap threshold, holds for the rest of the
    process (see `_freed_heap_retained`).
    """
    config.validate()
    t_start = time.monotonic()
    vocab = build_vocab(corpus, config.vocab_min_freq)
    train_aligned, held_aligned = build_aligned(config, corpus, vocab)
    ablation = config.ablation()
    train_ex, _ = generate_pretrain_examples(
        corpus, train_aligned, vocab, epoch_sampler(config, 0), ablation
    )
    held_ex, _ = generate_pretrain_examples(
        corpus, held_aligned, vocab, config.sampler_config(), ablation
    )
    if not train_ex:
        raise ConfigError("no training examples were generated")

    model_cfg = config.model_config(len(vocab))
    params = init_params_seeded(model_cfg, config.seed)
    opt_cfg = AdamWConfig(lr=config.effective_lr(), weight_decay=config.weight_decay)
    state = AdamWState.for_params(params)

    epoch = 0
    batches = _length_bucketed_batches(train_ex, config.batch_size, model_cfg.np_dtype)
    order_rng = np.random.default_rng(derive_seed(config.seed, "order"))

    metrics: list[MetricsRecord] = []
    loss_trace: list[tuple[float, float, float, float]] = []

    def record(step: int, breakdown) -> None:
        ev = evaluate_pretrain_heads(params, model_cfg, held_ex) if held_ex else {
            "tc": None, "tmt": None, "mlm": None
        }
        metrics.append(
            MetricsRecord(
                step=step,
                loss_total=float(breakdown[0]),
                loss_mlm=float(breakdown[1]),
                loss_tc=float(breakdown[2]),
                loss_tmt=float(breakdown[3]),
                tc_acc=ev["tc"],
                tmt_acc=ev["tmt"],
                mlm_acc=ev["mlm"],
                wallclock=time.monotonic() - t_start,
            )
        )

    schedule: list[int] = []

    def next_batch():
        nonlocal schedule, epoch, batches
        if not schedule:
            if epoch > 0:  # fresh corruptions and masks for the new epoch
                regen, _ = generate_pretrain_examples(
                    corpus, train_aligned, vocab, epoch_sampler(config, epoch), ablation
                )
                batches = _length_bucketed_batches(regen, config.batch_size, model_cfg.np_dtype)
            schedule = list(order_rng.permutation(len(batches)))
            epoch += 1
        return batches[int(schedule.pop(0))]

    # Nothing of a step outlives it: a micro-batch's activation cache, the
    # largest allocation of a step, dies once its backward returns, its
    # gradients once summed, the step's sum when `accum` is reset. So no
    # forward runs beside an earlier cache or an earlier step's gradients.
    with _freed_heap_retained():
        step = 0
        while step < config.steps:
            accum = None
            n_micro = 0
            breakdown = np.zeros(4)
            for _ in range(config.grad_accum):
                batch = next_batch()
                res = forward_batch(params, model_cfg, batch, want_cache=True)
                loss, grads = backward_batch(params, model_cfg, batch, res, config.lam, config.mu)
                del res
                if not np.isfinite(loss.total):
                    raise DivergenceError(f"non-finite loss at step {step}: {loss}")
                breakdown += (loss.total, loss.mlm, loss.tc, loss.tmt)
                n_micro += 1
                if accum is None:
                    accum = grads
                else:
                    for name in accum:
                        accum[name] += grads[name]
                del grads
            if config.grad_accum > 1:
                for name in accum:
                    accum[name] /= n_micro
            breakdown /= n_micro
            if config.warmup_steps > 0:
                opt_cfg.lr = config.effective_lr() * min(1.0, (step + 1) / config.warmup_steps)
            try:
                adamw_step(params, accum, state, opt_cfg)
            except NonFiniteGradientError as exc:
                raise DivergenceError(f"non-finite gradient at step {step}: {exc}") from exc
            step += 1
            loss_trace.append(tuple(float(x) for x in breakdown))
            if config.eval_every > 0 and (step % config.eval_every == 0 or step == config.steps):
                if not metrics or metrics[-1].step != step:
                    record(step, breakdown)
            if progress is not None:
                progress(step, breakdown)

    return PretrainResult(
        params=params,
        model_config=model_cfg,
        vocab=vocab,
        metrics=metrics,
        train_examples=train_ex,
        held_examples=held_ex,
        loss_trace=loss_trace,
    )


def init_params_seeded(model_cfg: ModelConfig, seed: int):
    return init_params(model_cfg, derive_seed(seed, "init"))


def write_metrics(metrics: list[MetricsRecord], path, include_timing: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in metrics:
            fh.write(json.dumps(rec.to_json(include_timing)) + "\n")
