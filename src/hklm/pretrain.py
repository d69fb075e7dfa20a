"""Pretraining driver: plain-text MLM mode and the joint three-task mode."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .align import AlignedFragment, align_corpus, build_tfidf_index, fragment_corpus, unaligned_corpus
from .corpus import MAX_TRIPLES_PER_EXAMPLE, NUM_SPECIAL, Corpus, Vocab, build_vocab, derive_seed, entity_split
from .encoder import (
    HEADS,
    ModelConfig,
    backward_batch,
    forward_batch,
    init_params,
    make_batch,
)
from .examples import PretrainExample, PretrainExamples, SamplerConfig, generate_pretrain_examples
from .optim import AdamWState, DivergenceError, adamw_step


class ConfigError(ValueError):
    pass


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
    seed: int = SamplerConfig.seed
    heldout_fraction: float = 0.05
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

    def __post_init__(self) -> None:
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
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ConfigError("heldout_fraction must be in (0, 1)")
        if self.max_fragment_len < 16:
            raise ConfigError(f"max_fragment_len must be >= 16, got {self.max_fragment_len}")
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
        self.model_config(NUM_SPECIAL), self.sampler_config()  # each checks its own fields when built
        # [CLS] and a separator frame every fragment's text.
        if self.max_fragment_len + 2 > self.max_seq_len:
            raise ConfigError(f"max_fragment_len {self.max_fragment_len} leaves no room in max_seq_len"
                              f" {self.max_seq_len} for [CLS] and a separator")

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


@dataclass
class MetricsRecord:
    """The recorded step's batch losses and the held-out head accuracies. A
    head's loss is None when the step's batch had no target for it."""

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
    if len(corpus) < 2:
        raise ConfigError(f"corpus of {len(corpus)} document(s) is too small for a held-out split")
    train_docs, held_docs = entity_split(corpus.documents, heldout_fraction, seed, "split")
    if not train_docs:
        raise ConfigError("held-out split would leave no training documents")
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


def _length_buckets(lengths: list[int], batch_size: int) -> list[list[int]]:
    """The example indices in order of length (ties by index), cut into
    batches of `batch_size`. Sorting by length keeps padding waste near zero."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    return [order[start : start + batch_size] for start in range(0, len(order), batch_size)]


def _training_batches(config: TrainConfig, corpus: Corpus, train_aligned: list[AlignedFragment],
                       vocab: Vocab, first_epoch: PretrainExamples, dtype):
    """The training batches of epoch after epoch, without end, each built
    when it is asked for.

    Corruptions and masks are redrawn every epoch, deterministically from
    the master seed, so a small corpus cannot be beaten by memorizing one
    frozen set of negatives. Epoch 0 is `first_epoch`, generated with
    `config.sampler_config()` before the first step; epoch k > 0 is
    generated with that sampler reseeded to `derive_seed(config.seed,
    "epoch", k)`, when its first batch is asked for. Each epoch's examples
    run in length-bucketed batches, in the order of one permutation of the
    buckets drawn per epoch from the `order` stream, and each example is
    masked when the batch holding it is built.
    """
    order_rng = np.random.default_rng(derive_seed(config.seed, "order"))
    examples = first_epoch
    for next_epoch in itertools.count(1):
        buckets = _length_buckets(examples.lengths, config.batch_size)
        for i in order_rng.permutation(len(buckets)):
            yield make_batch([examples[j] for j in buckets[i]], dtype=dtype)
        sampler = dataclasses.replace(config.sampler_config(), seed=derive_seed(config.seed, "epoch", next_epoch))
        examples, _ = generate_pretrain_examples(corpus, train_aligned, vocab, sampler)


def head_accuracy(logits: np.ndarray, labels: np.ndarray) -> tuple[int, int]:
    """(correct, total) for argmax predictions; total is 0 when unsupported."""
    pred = logits.argmax(axis=-1)
    return int((pred == labels).sum()), int(len(labels))


# Examples per batch when evaluating the pretraining heads: the default
# training batch, so that with length-bucketed batches no evaluation forward
# is larger than a training step's.
_EVAL_BATCH = 32


def evaluate_pretrain_heads(params, model_config: ModelConfig, examples: list[PretrainExample]) -> dict:
    """Inference-mode accuracy of the three heads over a fixed example set,
    and each head's number of targets (`n_<head>`). The examples run in
    length-bucketed batches, as in training, each built when it is reached,
    so padding stays low and the largest batch is no longer than the
    longest examples need."""
    totals = {head: [0, 0] for head in HEADS}
    for bucket in _length_buckets([len(ex.input_ids) for ex in examples], _EVAL_BATCH):
        batch = make_batch([examples[i] for i in bucket], dtype=model_config.np_dtype)
        res = forward_batch(params, model_config, batch)
        for head in HEADS:
            c, t = head_accuracy(res.logits(head), batch.targets(head)[2])
            totals[head][0] += c
            totals[head][1] += t
    return {head: (c / t if t else None) for head, (c, t) in totals.items()} | {
        f"n_{head}": t for head, (_c, t) in totals.items()}


def run_pretraining(config: TrainConfig, corpus: Corpus, progress=None) -> PretrainResult:
    """End-to-end fragment -> align -> corrupt -> train pipeline.

    Before the first step it does only what that step needs: the
    vocabulary, both splits' alignment, epoch 0's serialized examples (their
    lengths set the length buckets) and the initial weights. Each step masks
    and builds its own batches (see `_training_batches`). The held-out
    examples are generated at the first evaluation, or after the last step
    when `eval_every` is 0, and epoch 0's examples that no step reached are
    masked after the last step, so `train_examples` is all of epoch 0, the
    examples `hklm gen-examples` writes.

    Deterministic given (config, corpus) and the BLAS thread count: every
    random stream derives from config.seed, but a multithreaded BLAS may sum
    GEMMs in another order, which moves the weights in the last bits.
    Raises DivergenceError on non-finite loss or gradients.

    Like every forward, its steps run under the process's heap policy
    (`encoder._keep_freed_heap`): on glibc, memory one step frees stays in
    the process for the next step to reuse.
    """
    vocab = build_vocab(corpus)
    train_aligned, held_aligned = build_aligned(config, corpus, vocab)
    first_epoch, _ = generate_pretrain_examples(corpus, train_aligned, vocab, config.sampler_config())
    if not first_epoch:
        raise ConfigError("no training examples were generated")
    held_examples = functools.cache(
        lambda: list(generate_pretrain_examples(corpus, held_aligned, vocab, config.sampler_config())[0]))

    model_cfg = config.model_config(len(vocab))
    params = init_params_seeded(model_cfg, config.seed)
    state = AdamWState.for_params(params)

    batches = _training_batches(config, corpus, train_aligned, vocab, first_epoch, model_cfg.np_dtype)
    metrics: list[MetricsRecord] = []
    loss_trace: list[tuple[float, float, float, float]] = []

    # Nothing of a step outlives it: the batch's activation cache, the
    # largest allocation of a step, is freed by its backward as it is read,
    # its logits die with `res` and its gradients once AdamW has applied
    # them. So no forward runs beside an earlier step's cache or gradients.
    for step in range(1, config.steps + 1):
        batch = next(batches)
        res = forward_batch(params, model_cfg, batch, want_cache=True)
        loss, grads = backward_batch(params, model_cfg, batch, res, config.lam, config.mu)
        del res
        if not np.isfinite(loss.total):
            raise DivergenceError(f"non-finite loss at step {step - 1}: {loss}")
        lr = config.peak_lr
        if config.warmup_steps > 0:
            lr *= min(1.0, step / config.warmup_steps)
        adamw_step(params, grads, state, lr)
        del grads
        breakdown = (loss.total, loss.mlm, loss.tc, loss.tmt)
        loss_trace.append(breakdown)
        if config.eval_every > 0 and (step % config.eval_every == 0 or step == config.steps):
            held_ex = held_examples()
            ev = evaluate_pretrain_heads(params, model_cfg, held_ex) if held_ex else dict.fromkeys(HEADS)
            metrics.append(
                MetricsRecord(
                    step=step,
                    loss_total=breakdown[0],
                    **{f"loss_{head}": head_loss if len(batch.targets(head)[2]) else None
                       for head, head_loss in zip(HEADS, breakdown[1:])},
                    tc_acc=ev["tc"],
                    tmt_acc=ev["tmt"],
                    mlm_acc=ev["mlm"],
                )
            )
        if progress is not None:
            progress(step, breakdown)

    return PretrainResult(
        params=params,
        model_config=model_cfg,
        vocab=vocab,
        metrics=metrics,
        train_examples=list(first_epoch),
        held_examples=held_examples(),
        loss_trace=loss_trace,
    )


def init_params_seeded(model_cfg: ModelConfig, seed: int):
    return init_params(model_cfg, derive_seed(seed, "init"))
