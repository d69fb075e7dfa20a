"""Pretraining driver: plain-text MLM mode and the joint three-task mode."""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .align import AlignedFragment, align_corpus, build_tfidf_index, fragment_corpus, unaligned_corpus
from .corpus import MAX_TRIPLES_PER_EXAMPLE, NUM_SPECIAL, Corpus, Vocab, build_vocab, derive_seed
from .encoder import (
    HEADS,
    Batch,
    ModelConfig,
    backward_batch,
    forward_batch,
    init_params,
    make_batch,
)
from .examples import PretrainExample, SamplerConfig, generate_pretrain_examples
from .optim import AdamWState, DivergenceError, adamw_step


class ConfigError(ValueError):
    pass


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
    """Every setting of a pretraining run, flat as `--config` files hold
    them. The model and sampler configs take the fields they share with it
    by name, and those fields take their defaults from them."""

    mode: str = "hklm"  # "plain" or "hklm"
    lam: float = 1.0
    mu: float = 1.0
    # BERT's 3e-5 at ten times the rate for desk-scale runs, written as that
    # product so the default keeps its bits (0.00030000000000000003).
    peak_lr: float = 3e-5 * 10.0
    warmup_steps: int = 100
    batch_size: int = 32
    steps: int = 2000
    eval_every: int = 200
    grad_accum: int = 1
    seed: int = SamplerConfig.seed
    heldout_fraction: float = 0.05
    vocab_min_freq: int = 1
    max_fragment_len: int = 400
    tau: float = 0.05
    k_max: int = 8
    # model
    d_model: int = ModelConfig.d_model
    n_heads: int = ModelConfig.n_heads
    n_layers: int = ModelConfig.n_layers
    ffn_mult: int = ModelConfig.ffn_mult
    max_seq_len: int = ModelConfig.max_seq_len
    dtype: str = ModelConfig.dtype
    init_std: float = ModelConfig.init_std
    attn_init_std: float = ModelConfig.attn_init_std
    pos_init_scale: float = ModelConfig.pos_init_scale
    # sampler
    mask_prob: float = SamplerConfig.mask_prob
    mask_token_frac: float = SamplerConfig.mask_token_frac
    random_token_frac: float = SamplerConfig.random_token_frac
    p_neg_tc: float = SamplerConfig.p_neg_tc
    p_neg_tmt: float = SamplerConfig.p_neg_tmt
    triples_per_example: int | None = SamplerConfig.triples_per_example
    # sampler: KG ablation switches
    drop_headings: bool = SamplerConfig.drop_headings
    drop_triples: bool = SamplerConfig.drop_triples
    triple_keep_fraction: float = SamplerConfig.triple_keep_fraction
    value_noise: bool = SamplerConfig.value_noise

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.mode not in ("plain", "hklm"):
            raise ConfigError(f"mode must be 'plain' or 'hklm', got {self.mode!r}")
        if self.lam < 0 or self.mu < 0:
            raise ConfigError("lam and mu must be nonnegative")
        if not self.peak_lr > 0:
            raise ConfigError(f"peak_lr must be > 0, got {self.peak_lr}")
        if self.warmup_steps < 0 or self.eval_every < 0:
            raise ConfigError("warmup_steps and eval_every must be >= 0")
        if self.mode == "plain" and (self.triple_keep_fraction != 1.0 or self.value_noise):
            raise ConfigError("triple_keep_fraction and value_noise require hklm mode")
        if self.steps < 0 or self.batch_size < 1 or self.grad_accum < 1:
            raise ConfigError("steps must be >= 0, batch_size and grad_accum >= 1")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must be in (0, 1)")
        if self.vocab_min_freq < 1 or self.max_fragment_len < 16:
            raise ConfigError("vocab_min_freq must be >= 1 and max_fragment_len >= 16")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        # Retrieval keeps at most k_max triples, of which an example
        # serializes at most triples_per_example.
        per_example = self.triples_per_example
        serialized = self.k_max if per_example is None else min(self.k_max, per_example)
        if serialized > MAX_TRIPLES_PER_EXAMPLE:
            raise ConfigError(f"an example may serialize at most {MAX_TRIPLES_PER_EXAMPLE} triples;"
                              f" k_max {self.k_max} and triples_per_example {per_example}"
                              f" allow {serialized}")
        self.model_config(NUM_SPECIAL).validate()
        self.sampler_config().validate()

    def _shared(self, cls, **values):
        """A `cls` holding this config's fields of the same name, with `values` over them."""
        names = {f.name for f in dataclasses.fields(cls)} & {f.name for f in dataclasses.fields(self)}
        return cls(**{name: getattr(self, name) for name in names} | values)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return self._shared(ModelConfig, vocab_size=vocab_size)

    def sampler_config(self) -> SamplerConfig:
        """Plain mode serializes the text alone: no heading and no triple."""
        if self.mode == "plain":
            return self._shared(SamplerConfig, drop_headings=True, drop_triples=True)
        return self._shared(SamplerConfig)

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
    """The recorded step's batch losses and the held-out head accuracies. A
    head's loss is None when none of the step's micro-batches had a target
    for it."""

    step: int
    loss_total: float
    loss_mlm: float | None
    loss_tc: float | None
    loss_tmt: float | None
    tc_acc: float | None
    tmt_acc: float | None
    mlm_acc: float | None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


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
    if config.sampler_config().drop_triples:
        return unaligned_corpus(train_corpus, train_frags), unaligned_corpus(held_corpus, held_frags)

    index = build_tfidf_index(train_corpus, vocab, train_frags)
    return (align_corpus(train_corpus, vocab, train_frags, index, config.tau, config.k_max),
            align_corpus(held_corpus, vocab, held_frags, index, config.tau, config.k_max))


def epoch_sampler(config: TrainConfig, epoch: int) -> SamplerConfig:
    """Sampler for one training epoch.

    Corruptions and masks are redrawn every epoch (deterministically from the
    master seed) so a small corpus cannot be beaten by memorizing one frozen
    set of negatives. Epoch 0 uses the master seed itself. `hklm gen-examples`
    writes epoch 0's examples of the training split, the same records that
    `run_pretraining` returns as `train_examples`.
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


# Examples per batch when evaluating the pretraining heads: the default
# training batch, so that with length-bucketed batches no evaluation forward
# is larger than a training step's.
_EVAL_BATCH = 32


def evaluate_pretrain_heads(params, model_config: ModelConfig, examples: list[PretrainExample]) -> dict:
    """Inference-mode accuracy of the three heads over a fixed example set,
    and each head's number of targets (`n_<head>`). The examples run in
    length-bucketed batches, as in training, so padding stays low and the
    largest batch is no longer than the longest examples need."""
    totals = {head: [0, 0] for head in HEADS}
    for batch in _length_bucketed_batches(examples, _EVAL_BATCH, model_config.np_dtype):
        res = forward_batch(params, model_config, batch)
        for head in HEADS:
            c, t = head_accuracy(res.logits(head), getattr(batch, f"{head}_label"))
            totals[head][0] += c
            totals[head][1] += t
    return {head: (c / t if t else None) for head, (c, t) in totals.items()} | {
        f"n_{head}": t for head, (_c, t) in totals.items()}


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
    vocab = build_vocab(corpus, config.vocab_min_freq)
    train_aligned, held_aligned = build_aligned(config, corpus, vocab)
    train_ex, _ = generate_pretrain_examples(corpus, train_aligned, vocab, epoch_sampler(config, 0))
    held_ex, _ = generate_pretrain_examples(corpus, held_aligned, vocab, config.sampler_config())
    if not train_ex:
        raise ConfigError("no training examples were generated")

    model_cfg = config.model_config(len(vocab))
    params = init_params_seeded(model_cfg, config.seed)
    state = AdamWState.for_params(params)

    epoch = 0
    batches = _length_bucketed_batches(train_ex, config.batch_size, model_cfg.np_dtype)
    order_rng = np.random.default_rng(derive_seed(config.seed, "order"))

    metrics: list[MetricsRecord] = []
    loss_trace: list[tuple[float, float, float, float]] = []

    def record(step: int, breakdown, supported: set[str]) -> None:
        ev = evaluate_pretrain_heads(params, model_cfg, held_ex) if held_ex else dict.fromkeys(HEADS)
        metrics.append(
            MetricsRecord(
                step=step,
                loss_total=float(breakdown[0]),
                **{f"loss_{head}": float(loss) if head in supported else None
                   for head, loss in zip(HEADS, breakdown[1:])},
                tc_acc=ev["tc"],
                tmt_acc=ev["tmt"],
                mlm_acc=ev["mlm"],
            )
        )

    schedule: list[int] = []

    def next_batch():
        nonlocal schedule, epoch, batches
        if not schedule:
            if epoch > 0:  # fresh corruptions and masks for the new epoch
                regen, _ = generate_pretrain_examples(
                    corpus, train_aligned, vocab, epoch_sampler(config, epoch)
                )
                batches = _length_bucketed_batches(regen, config.batch_size, model_cfg.np_dtype)
            schedule = list(order_rng.permutation(len(batches)))
            epoch += 1
        return batches[int(schedule.pop(0))]

    # Nothing of a step outlives it: a micro-batch's activation cache, the
    # largest allocation of a step, is freed by its backward as it is read,
    # its logits die with `res`, its gradients once summed, the step's sum
    # when `accum` is reset. So no forward runs beside an earlier cache or an
    # earlier step's gradients.
    with _freed_heap_retained():
        step = 0
        while step < config.steps:
            accum = None
            breakdown = np.zeros(4)
            supported = set()  # the heads with a target in some micro-batch
            for _ in range(config.grad_accum):
                batch = next_batch()
                supported.update(head for head in HEADS if len(getattr(batch, f"{head}_label")))
                res = forward_batch(params, model_cfg, batch, want_cache=True)
                loss, grads = backward_batch(params, model_cfg, batch, res, config.lam, config.mu)
                del res
                if not np.isfinite(loss.total):
                    raise DivergenceError(f"non-finite loss at step {step}: {loss}")
                breakdown += (loss.total, loss.mlm, loss.tc, loss.tmt)
                if accum is None:
                    accum = grads
                else:
                    for name in accum:
                        accum[name] += grads[name]
                del grads
            if config.grad_accum > 1:
                for name in accum:
                    accum[name] /= config.grad_accum
            breakdown /= config.grad_accum
            lr = config.peak_lr
            if config.warmup_steps > 0:
                lr *= min(1.0, (step + 1) / config.warmup_steps)
            adamw_step(params, accum, state, lr)
            step += 1
            loss_trace.append(tuple(float(x) for x in breakdown))
            if config.eval_every > 0 and (step % config.eval_every == 0 or step == config.steps):
                record(step, breakdown, supported)
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
