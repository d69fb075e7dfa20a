"""Fine-tuning adapters for the five downstream task schemes.

An adapter is a sequence builder, a row function and a loss. The builder turns
each training item into the token ids the encoder reads; the row function
names the flat token rows of a padded batch that the head reads ([CLS], the
tokens between [CLS] and [SEP], or every real token), and the encoder's last
block runs at those rows only; the loss maps the head's (R, k) logits at those
rows to a loss and its gradient. The rest is shared: `_new_adapter` clones
the encoder and draws an affine head, `_train_loop` fine-tunes the whole stack
with AdamW, and `_score_batches` scores batches of sequences with the trained
head, one thread per usable core (`_head_logits` cuts a list of sequences into
those batches; the ranker cuts each query's candidates). Each
adapter then decodes the logits and evaluates with its task's metric bundle:
token tagging (NER), multi-label typing on [CLS] with [ENT] markers, two-stage
span extraction for open IE with [REL] markers, and [CLS]-scored candidate
ranking shared by QA and dialogue. Every training and evaluation function
first passes its set to `check_records`, which holds the rules a set must
meet beyond those each `TaskExample` checks when built; `hklm finetune` runs
the same check on its --train and --eval files before it writes anything.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .corpus import CLS_ID, REL_ID, SEP_ID, derive_seed
from .encoder import (Batch, ModelConfig, _affine, _affine_backward, _keep_freed_heap, encode,
                      encoder_backward, encoder_param_names, softmax, token_batch)
from .metrics import bio_tags_to_spans, bio_transition_allowed, compute_task_metrics, is_valid_bio
from .optim import AdamWState, adamw_step
from .tasks import TaskExample

# Entity typing predicts every label whose probability reaches THETA_ET.
THETA_ET = 0.5
# Open-IE stage 1 keeps predicate spans of at most SPAN_CAP + 1 tokens whose
# start-times-end probability reaches THETA_SPAN.
THETA_SPAN = 0.25
SPAN_CAP = 10
# Sampled negative candidates paired with each query's gold one in ranker training.
N_NEGATIVES = 4
# Sequences per batch when scoring.
SCORE_BATCH = 32
# The tokens the adapter of each task-record variant adds to a record's tokens
# in the longest sequence it builds: [CLS] and [SEP]; for open IE's stage 2
# also a [REL] pair; for a ranking query a [SEP] and one candidate token.
FRAME_TOKENS = {"ner": 2, "et": 2, "oie": 4, "rank": 4}
# Whether a record gives the adapter of each variant something to learn or
# score, and what a set lacks when no record does; a ranking record counts
# only with a negative candidate beside its gold one.
_TARGET = {
    "ner": (lambda ex: any(tag != "O" for tag in ex.tags), "every tag is O"),
    "et": (lambda ex: ex.labels, "no record has a label"),
    "oie": (lambda ex: ex.triples, "no record has a triple"),
    "rank": (lambda ex: len(ex.candidates) > 1, "no record has a candidate besides its gold one (no negative pair)"),
}


class FinetuneError(ValueError):
    pass


@dataclass
class FinetuneConfig:
    epochs: int = 3
    batch_size: int = 16
    lr: float = 3e-4
    seed: int = 0
    max_seq_len: int = 512

    def __post_init__(self) -> None:
        """Reject settings that would train nothing or diverge, naming the
        `hklm finetune` flag that sets each."""
        if self.epochs < 1:
            raise FinetuneError(f"--epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise FinetuneError(f"--batch-size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise FinetuneError(f"--lr must be finite and > 0, got {self.lr}")


def _check_fits(tokens: list[int], variant: str, cfg: ModelConfig, what: str) -> None:
    """Reject `tokens`, which `what` names, if the longest sequence the
    `variant` adapter builds from them exceeds cfg.max_seq_len."""
    framed = len(tokens) + FRAME_TOKENS[variant]
    if framed > cfg.max_seq_len:
        raise FinetuneError(f"{what} makes a {framed}-token sequence, over max_seq_len {cfg.max_seq_len}")


def check_records(records: list[TaskExample], variant: str, cfg: ModelConfig) -> None:
    """Reject a set of `variant` records that the model `cfg` cannot read:
    an empty set, a record of another variant, a token id (of the tokens or
    of a ranking candidate) outside the vocabulary, or a record too long once
    the adapter's FRAME_TOKENS are added; and a set, for training or for
    scoring, in which no record gives the adapter anything to learn or score."""
    if not records:
        raise FinetuneError("no examples")
    for ex in records:
        name = f"record {ex.example_id!r}"
        if ex.variant != variant:
            raise FinetuneError(f"{name} has variant {ex.variant!r}, not {variant!r}")
        top = max(max(seq, default=0) for seq in [ex.tokens, *(ex.candidates or ())])
        if top >= cfg.vocab_size:
            raise FinetuneError(f"{name} has token id {top}, outside the model's vocabulary of {cfg.vocab_size}")
        _check_fits(ex.tokens, variant, cfg, name)
    has_target, lacking = _TARGET[variant]
    if not any(map(has_target, records)):
        raise FinetuneError(f"{lacking}, so the adapter has nothing to learn or score")


def _wrap(tokens: list[int]) -> list[int]:
    return [CLS_ID] + tokens + [SEP_ID]


# Row functions: the flat token rows of a padded batch that a head reads, in
# sequence order, for `encode`.


def _cls_rows(batch: Batch) -> np.ndarray:
    """Each sequence's [CLS]."""
    return np.arange(batch.size) * batch.ids.shape[1]


def _token_rows(batch: Batch) -> np.ndarray:
    """Each sequence's tokens between its [CLS] and its final [SEP]."""
    inner = batch.mask.astype(bool)
    sep = inner.sum(axis=1) - 1
    inner[:, 0] = False
    inner[np.arange(batch.size), sep] = False
    return np.flatnonzero(inner)


def _real_rows(batch: Batch) -> np.ndarray:
    """Every real (unpadded) token."""
    return np.flatnonzero(batch.mask)


def _new_adapter(pretrained_params, model_cfg: ModelConfig, seed: int, stream: str, n_out: int):
    """Copies of the encoder tensors (no adapter reads the pretraining heads)
    plus an affine head with `n_out` outputs, drawn from the adapter's own RNG
    stream; that stream is returned for the adapter's later draws."""
    dt = model_cfg.np_dtype
    params = {k: pretrained_params[k].copy() for k in encoder_param_names(model_cfg)}
    rng = np.random.default_rng(derive_seed(seed, stream))
    params["head_w"] = rng.normal(0.0, 0.02, size=(model_cfg.d_model, n_out)).astype(dt)
    params["head_b"] = np.zeros(n_out, dtype=dt)
    return params, rng


def _train_loop(params, model_cfg: ModelConfig, items, cfg: FinetuneConfig, rows_of, loss_grad):
    """Fine-tune `params` in place on `items`, (sequence, target) pairs, in
    shuffled batches. Each step encodes the batch at the rows `rows_of(batch)`
    names, applies the head there, takes the loss and its gradient with
    respect to the float64 (R, k) logits from `loss_grad(logits, targets,
    batch)`, backpropagates through head and encoder and takes one AdamW step.
    """
    dt = model_cfg.np_dtype
    state = AdamWState.for_params(params)
    rng = np.random.default_rng(derive_seed(cfg.seed, "finetune-order"))
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(order), cfg.batch_size):
            chunk = [items[int(i)] for i in order[start : start + cfg.batch_size]]
            batch = token_batch([seq for seq, _target in chunk], dt)
            h, cache = encode(params, model_cfg, batch, rows_of(batch), want_cache=True)
            logits = _affine(h, params["head_w"], params["head_b"]).astype(np.float64)
            _loss, d_logits = loss_grad(logits, [target for _seq, target in chunk], batch)
            grads = {}
            grads["head_w"], grads["head_b"], d_h = _affine_backward(h, params["head_w"], d_logits.astype(dt))
            # The backward frees the activation cache, a step's largest
            # allocation, as it reads it.
            grads.update(encoder_backward(params, model_cfg, cache, d_h))
            adamw_step(params, grads, state, cfg.lr)


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _score_batches(params, cfg: ModelConfig, batches: list[list[list[int]]], rows_of) -> list[np.ndarray]:
    """Float64 head logits (R, k) at the rows `rows_of` names in each batch of
    sequences, in batch order.

    The batches are encoded on one thread per usable core, at most one per
    batch (serially for one); numpy and BLAS release the GIL while they
    compute. Each batch is encoded as it would be on one thread, so with
    BLAS at one thread per call every logit is bit-identical to a serial
    pass's. The heap policy is set in this thread before the workers start,
    as glibc fixes its arena limit when a second thread first allocates (see
    `encoder._keep_freed_heap`).
    """
    def logits(sequences):
        batch = token_batch(sequences, cfg.np_dtype)
        h, _ = encode(params, cfg, batch, rows_of(batch))
        return _affine(h, params["head_w"], params["head_b"]).astype(np.float64)

    workers = min(_usable_cores(), len(batches))
    if workers <= 1:
        return [logits(sequences) for sequences in batches]
    _keep_freed_heap()
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(logits, batches))


def _in_batches(sequences: list[list[int]]) -> list[list[list[int]]]:
    """`sequences` cut into batches of SCORE_BATCH, in order."""
    return [sequences[start : start + SCORE_BATCH] for start in range(0, len(sequences), SCORE_BATCH)]


def _head_logits(params, cfg: ModelConfig, sequences: list[list[int]], rows_of) -> np.ndarray:
    """Float64 head logits (R, k) at the rows `rows_of` names in each batch of
    SCORE_BATCH sequences, in sequence order; (0, k) for no sequences."""
    out = _score_batches(params, cfg, _in_batches(sequences), rows_of)
    return np.concatenate([np.zeros((0, len(params["head_b"])))] + out)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_xent(logits: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy of independent sigmoid outputs, and its
    gradient."""
    probs = _sigmoid(logits)
    loss = float(-(y * np.log(np.maximum(probs, 1e-300))
                   + (1 - y) * np.log(np.maximum(1 - probs, 1e-300))).sum() / y.size)
    return loss, (probs - y) / y.size


def _softmax_xent(x: np.ndarray, index: tuple):
    """Mean cross-entropy of the softmax over x's last axis at the target
    entries `index`, and its gradient with respect to x."""
    z = x - x.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    n = logp[index].size
    loss = float(-logp[index].sum() / n)
    grad = np.exp(logp)
    grad[index] -= 1.0
    return loss, grad / n


# ---------------------------------------------------------------------------
# NER: per-token softmax over BIO tags, transition-masked greedy decode
# ---------------------------------------------------------------------------


def build_tagset(examples: list[TaskExample]) -> list[str]:
    tags = {"O"}
    for ex in examples:
        tags.update(ex.tags)
    return sorted(tags)


def decode_bio(token_logits: np.ndarray, tagset: list[str]) -> list[str]:
    """Greedy argmax with invalid transitions masked out. allowed[s] masks
    the tags that may follow state s: the start (s = 0) or tagset[s - 1]."""
    allowed = np.array([[bio_transition_allowed(prev, tag) for tag in tagset] for prev in ["O", *tagset]])
    tags, state = [], 0
    for row in token_logits:
        state = int(np.where(allowed[state], row, -np.inf).argmax()) + 1
        tags.append(tagset[state - 1])
    return tags


def _tag_loss(logits: np.ndarray, targets: list[list[int]], batch: Batch):
    """Mean cross-entropy of the tag softmax at every token row; `targets`
    holds each sequence's tag ids."""
    return _softmax_xent(logits, (np.arange(len(logits)), np.concatenate(targets)))


@dataclass
class TokenTagger:
    params: dict[str, np.ndarray]
    model_config: ModelConfig
    tagset: list[str]

    def predict(self, examples: list[TaskExample]) -> list[list[str]]:
        seqs = [_wrap(ex.tokens) for ex in examples]
        logits = _head_logits(self.params, self.model_config, seqs, _token_rows)
        ends = np.cumsum([len(ex.tokens) for ex in examples])
        return [decode_bio(logits[end - len(ex.tokens) : end], self.tagset)
                for ex, end in zip(examples, ends)]


def finetune_token_classifier(
    pretrained_params,
    model_cfg: ModelConfig,
    train: list[TaskExample],
    cfg: FinetuneConfig,
) -> TokenTagger:
    check_records(train, "ner", model_cfg)
    tagset = build_tagset(train)
    tag_to_id = {t: i for i, t in enumerate(tagset)}
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "ner-head", len(tagset))
    items = [(_wrap(ex.tokens), [tag_to_id[t] for t in ex.tags]) for ex in train]
    _train_loop(params, model_cfg, items, cfg, _token_rows, _tag_loss)
    return TokenTagger(params=params, model_config=model_cfg, tagset=tagset)


def evaluate_ner(tagger: TokenTagger, examples: list[TaskExample]) -> dict:
    check_records(examples, "ner", tagger.model_config)
    pred = tagger.predict(examples)
    predictions = {ex.example_id: bio_tags_to_spans(p) for ex, p in zip(examples, pred)}
    gold = {ex.example_id: bio_tags_to_spans(ex.tags) for ex in examples}
    assert all(is_valid_bio(p) for p in pred)
    return compute_task_metrics("ner", predictions, gold)


# ---------------------------------------------------------------------------
# Entity typing: multi-label sigmoid head on [CLS]
# ---------------------------------------------------------------------------


def _label_loss(logits: np.ndarray, targets: list[list[int]], batch: Batch):
    """Mean sigmoid cross-entropy over every (sequence, label) pair; `targets`
    holds each sequence's gold label ids."""
    y = np.zeros_like(logits)
    for k, labels in enumerate(targets):
        y[k, labels] = 1.0
    return _sigmoid_xent(logits, y)


@dataclass
class EntityTyper:
    params: dict[str, np.ndarray]
    model_config: ModelConfig
    label_set: list[str]

    def predict(self, examples: list[TaskExample]) -> list[set]:
        seqs = [_wrap(ex.tokens) for ex in examples]
        logits = _head_logits(self.params, self.model_config, seqs, _cls_rows)
        return [{self.label_set[j] for j in np.nonzero(_sigmoid(row) >= THETA_ET)[0]}
                for row in logits]


def finetune_entity_typing(
    pretrained_params,
    model_cfg: ModelConfig,
    train: list[TaskExample],
    cfg: FinetuneConfig,
) -> EntityTyper:
    check_records(train, "et", model_cfg)
    label_set = sorted({lab for ex in train for lab in ex.labels})
    lab_to_id = {lab: i for i, lab in enumerate(label_set)}
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "et-head", len(label_set))
    items = [(_wrap(ex.tokens), [lab_to_id[lab] for lab in ex.labels]) for ex in train]
    _train_loop(params, model_cfg, items, cfg, _cls_rows, _label_loss)
    return EntityTyper(params=params, model_config=model_cfg, label_set=label_set)


def evaluate_et(typer: EntityTyper, examples: list[TaskExample]) -> dict:
    check_records(examples, "et", typer.model_config)
    pred = typer.predict(examples)
    predictions = {ex.example_id: p for ex, p in zip(examples, pred)}
    gold = {ex.example_id: set(ex.labels) for ex in examples}
    return compute_task_metrics("et", predictions, gold)


# ---------------------------------------------------------------------------
# Open IE: two-stage span extraction
# ---------------------------------------------------------------------------


@dataclass
class SpanModel:
    """Stage 1: independent sigmoid start/end heads over tokens (multi-span).
    Stage 2: four softmax pointer heads for subject/object around a [REL]
    marked predicate."""

    params: dict[str, np.ndarray]
    model_config: ModelConfig


def _stage1_spans(start_p: np.ndarray, end_p: np.ndarray, theta: float, cap: int):
    """Candidate spans (i, j) scored start_p[i] * end_p[j], overlap-resolved by
    keeping the higher-scored span, ties to the earlier start."""
    cands = []
    n = len(start_p)
    for i in range(n):
        for j in range(i, min(n, i + cap + 1)):
            score = float(start_p[i] * end_p[j])
            if score >= theta:
                cands.append((score, i, j))
    cands.sort(key=lambda sij: (-sij[0], sij[1]))
    chosen: list[tuple[int, int]] = []
    for _score, i, j in cands:
        if all(j < ci or i > cj for ci, cj in chosen):
            chosen.append((i, j))
    return sorted(chosen)


def _span_loss(logits: np.ndarray, targets: list[np.ndarray], batch: Batch):
    """Stage 1: mean sigmoid cross-entropy of the start and end heads at every
    token row; `targets` holds each sentence's (n, 2) start/end indicators."""
    return _sigmoid_xent(logits, np.concatenate(targets))


def _span_targets(ex: TaskExample) -> np.ndarray:
    """(n, 2) start/end indicators of a sentence's tokens: a predicate [s, e)
    starts at token s and ends at token e - 1."""
    y = np.zeros((len(ex.tokens), 2))
    for tr in ex.triples:
        s, e = tr["pred"]
        y[s, 0] = y[e - 1, 1] = 1.0
    return y


def finetune_span_stage1(
    pretrained_params, model_cfg: ModelConfig, train: list[TaskExample], cfg: FinetuneConfig
) -> SpanModel:
    check_records(train, "oie", model_cfg)
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "oie1-head", 2)  # start, end
    items = [(_wrap(ex.tokens), _span_targets(ex)) for ex in train]
    _train_loop(params, model_cfg, items, cfg, _token_rows, _span_loss)
    return SpanModel(params=params, model_config=model_cfg)


def _stage2_sequence(tokens: list[int], pred_span: tuple[int, int]) -> list[int]:
    s, e = pred_span
    return [CLS_ID] + tokens[:s] + [REL_ID] + tokens[s:e] + [REL_ID] + tokens[e:] + [SEP_ID]


def _stage2_map_position(pos: int, pred_span: tuple[int, int]) -> int:
    """Token index in the marked sequence for original token index pos."""
    s, e = pred_span
    off = 1  # [CLS]
    if pos >= e:
        return pos + off + 2
    if pos >= s:
        return pos + off + 1
    return pos + off


def pointer_decode(start_scores: np.ndarray, end_scores: np.ndarray) -> tuple[int, int]:
    """Argmax start, then argmax end at or after it; returns [start, end)."""
    st = int(np.asarray(start_scores).argmax())
    end = np.asarray(end_scores, dtype=np.float64).copy()
    end[:st] = -np.inf
    return st, int(end.argmax()) + 1


def _pointer_loss(logits: np.ndarray, targets: list[list[int]], batch: Batch):
    """Stage 2: mean cross-entropy of the four pointer softmaxes (subject
    start, end, object start, end) over each sequence's real tokens, whose
    rows `logits` holds; `targets` holds the four target positions per
    sequence."""
    t = np.array(targets, dtype=np.int64)
    real = batch.mask.astype(bool)
    padded = np.full(real.shape + (4,), -np.inf)
    padded[real] = logits
    # (B, 4, L) and contiguous: numpy then sums each pointer's softmax over
    # one contiguous row, pairwise, as for a 1-D row; a strided sum over the
    # token axis adds in another order and rounds differently.
    x = np.ascontiguousarray(padded.transpose(0, 2, 1))
    loss, grad = _softmax_xent(x, (np.arange(len(t))[:, None], np.arange(4), t))
    return loss, grad.transpose(0, 2, 1)[real]


def finetune_span_stage2(
    pretrained_params, model_cfg: ModelConfig, train: list[TaskExample], cfg: FinetuneConfig
) -> SpanModel:
    check_records(train, "oie", model_cfg)
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "oie2-head", 4)  # ss, se, os, oe
    items = []
    for ex in train:
        for tr in ex.triples:
            pred = tuple(tr["pred"])
            bounds = (tr["subj"][0], tr["subj"][1] - 1, tr["obj"][0], tr["obj"][1] - 1)
            targets = [_stage2_map_position(p, pred) for p in bounds]
            items.append((_stage2_sequence(ex.tokens, pred), targets))
    _train_loop(params, model_cfg, items, cfg, _real_rows, _pointer_loss)
    return SpanModel(params=params, model_config=model_cfg)


def extract_open_triples(stage1: SpanModel, stage2: SpanModel, sentences: list[list[int]]) -> list[list[dict]]:
    """Each sentence's triples: its predicate spans above THETA_SPAN, then one
    subject and one object per predicate via argmax pointers (end constrained
    to start..). Stage 1 scores every sentence in one `_head_logits` call,
    stage 2 every (sentence, predicate) sequence in another."""
    cfg = stage1.model_config
    for tokens in sentences:
        _check_fits(tokens, "oie", cfg, f"sentence of {len(tokens)} tokens")
    probs = _sigmoid(_head_logits(stage1.params, cfg, [_wrap(tokens) for tokens in sentences], _token_rows))
    jobs = []  # (sentence index, predicate span [s, e)); stage 1 gives inclusive (i, j)
    for k, (tokens, end) in enumerate(zip(sentences, np.cumsum([len(t) for t in sentences]))):
        p = probs[end - len(tokens) : end]
        jobs += [(k, (i, j + 1)) for i, j in _stage1_spans(p[:, 0], p[:, 1], THETA_SPAN, SPAN_CAP)]

    seqs = [_stage2_sequence(sentences[k], pred) for k, pred in jobs]
    logits = _head_logits(stage2.params, stage2.model_config, seqs, _real_rows)
    triples = [[] for _ in sentences]
    for (k, pred), start in zip(jobs, np.cumsum([0] + [len(seq) for seq in seqs])):
        positions = [start + _stage2_map_position(p, pred) for p in range(len(sentences[k]))]
        subj = pointer_decode(logits[positions, 0], logits[positions, 1])
        obj = pointer_decode(logits[positions, 2], logits[positions, 3])
        triples[k].append({"subj": list(subj), "pred": list(pred), "obj": list(obj)})
    return triples


def evaluate_oie(stage1: SpanModel, stage2: SpanModel, examples: list[TaskExample]) -> dict:
    check_records(examples, "oie", stage1.model_config)
    predictions = {}
    gold = {}
    for ex, pred in zip(examples, extract_open_triples(stage1, stage2, [ex.tokens for ex in examples])):
        predictions[ex.example_id] = [
            (tuple(t["subj"]), tuple(t["pred"]), tuple(t["obj"])) for t in pred
        ]
        gold[ex.example_id] = [
            (tuple(t["subj"]), tuple(t["pred"]), tuple(t["obj"])) for t in ex.triples
        ]
    return compute_task_metrics("oie", predictions, gold)


# ---------------------------------------------------------------------------
# Candidate ranking (QA and dialogue): binary relevance head on [CLS]
# ---------------------------------------------------------------------------


def _pair_sequence(query: list[int], candidate: list[int], max_seq_len: int) -> list[int]:
    """[CLS] query [SEP] candidate [SEP], the candidate cut to fit max_seq_len."""
    return [CLS_ID] + query + [SEP_ID] + candidate[: max_seq_len - 3 - len(query)] + [SEP_ID]


def _rank_loss(logits: np.ndarray, targets: list[int], batch: Batch):
    """Mean cross-entropy of the relevant/irrelevant softmax; `targets` holds
    each pair's 0/1 label."""
    return _softmax_xent(logits, (np.arange(len(targets)), np.array(targets, dtype=np.int64)))


@dataclass
class Ranker:
    params: dict[str, np.ndarray]
    model_config: ModelConfig

    def score(self, query: list[int], candidates: list[list[int]]) -> list[float]:
        """Positive-class probability of each (query [SEP] candidate) pair."""
        return self.score_queries([(query, candidates)])[0]

    def score_queries(self, queries: list[tuple[list[int], list[list[int]]]]) -> list[list[float]]:
        """`score` of each (query, candidates) pair. Each query's candidates
        form its own batches of SCORE_BATCH; every query's batches are scored
        in one `_score_batches` call."""
        cfg = self.model_config
        groups = []
        for query, candidates in queries:
            if not candidates:
                raise FinetuneError("empty candidate list")
            _check_fits(query, "rank", cfg, f"query of {len(query)} tokens")
            groups.append(_in_batches([_pair_sequence(query, cand, cfg.max_seq_len) for cand in candidates]))
        logits = iter(_score_batches(self.params, cfg, [batch for group in groups for batch in group], _cls_rows))
        probs = [softmax(np.concatenate([next(logits) for _batch in group])) for group in groups]
        return [[float(x) for x in p[:, 1]] for p in probs]


def finetune_ranker(
    pretrained_params,
    model_cfg: ModelConfig,
    train: list[TaskExample],
    cfg: FinetuneConfig,
) -> Ranker:
    """Binary relevance training on gold + sampled-negative pairs per query."""
    check_records(train, "rank", model_cfg)
    params, rng = _new_adapter(pretrained_params, model_cfg, cfg.seed, "rank-head", 2)
    pairs = []
    for ex in train:
        gold = ex.gold
        neg_pool = [i for i in range(len(ex.candidates)) if i != gold]
        picked = rng.choice(len(neg_pool), size=min(N_NEGATIVES, len(neg_pool)), replace=False)
        for cand, label in [(gold, 1)] + [(neg_pool[int(i)], 0) for i in picked]:
            pairs.append((_pair_sequence(ex.tokens, ex.candidates[cand], model_cfg.max_seq_len), label))
    _train_loop(params, model_cfg, pairs, cfg, _cls_rows, _rank_loss)
    return Ranker(params=params, model_config=model_cfg)


def rank_candidates(ranker: Ranker, query: list[int], candidates: list[list[int]]):
    """Scores plus the score-descending ranking (ties by candidate index)."""
    scores = ranker.score(query, candidates)
    return scores, _ranking(scores)


def _ranking(scores: list[float]) -> list[int]:
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def evaluate_rank(ranker: Ranker, examples: list[TaskExample], dialog: bool = False) -> dict:
    check_records(examples, "rank", ranker.model_config)
    predictions = {}
    gold = {}
    scores = ranker.score_queries([(ex.tokens, ex.candidates) for ex in examples])
    for ex, ex_scores in zip(examples, scores):
        ranking = _ranking(ex_scores)
        if dialog:
            predictions[ex.example_id] = (ranking, ex.candidates)
        else:
            predictions[ex.example_id] = ranking
        gold[ex.example_id] = {ex.gold}
    return compute_task_metrics("dialog" if dialog else "qa", predictions, gold)


@dataclass(frozen=True)
class Task:
    """One `hklm finetune --task`: the record `variant` its files hold, its
    adapter functions in training order, and the evaluation that takes the
    trained adapters and the eval records."""

    variant: str
    train: tuple[Callable, ...]
    evaluate: Callable


TASKS = {
    "ner": Task("ner", (finetune_token_classifier,), evaluate_ner),
    "et": Task("et", (finetune_entity_typing,), evaluate_et),
    "oie": Task("oie", (finetune_span_stage1, finetune_span_stage2), evaluate_oie),
    "qa": Task("rank", (finetune_ranker,), evaluate_rank),
    "dialog": Task("rank", (finetune_ranker,), partial(evaluate_rank, dialog=True)),
}
