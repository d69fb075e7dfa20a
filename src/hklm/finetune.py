"""Fine-tuning adapters for the five downstream task schemes.

An adapter is a sequence builder, a row choice and a loss. The builder turns
each training item into the token ids the encoder reads; the row choice says
whether the head reads every token or [CLS] only; the loss maps the head's
logits to a loss and its gradient. The rest is shared: `_new_adapter` clones
the encoder and draws an affine head, `_train_loop` fine-tunes the whole stack
with AdamW, and `_head_logits` scores sequences with the trained head. Each
adapter then decodes the logits and evaluates with its task's metric bundle:
token tagging (NER), multi-label typing on [CLS] with [ENT] markers, two-stage
span extraction for open IE with [REL] markers, and [CLS]-scored candidate
ranking shared by QA and dialogue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CLS_ID, ENT_ID, REL_ID, SEP_ID, derive_seed
from .encoder import Batch, ModelConfig, encode, encoder_backward, encoder_param_names
from .metrics import bio_tags_to_spans, compute_task_metrics, is_valid_bio
from .optim import AdamWConfig, AdamWState, adamw_step
from .tasks import TaskExample

DEFAULT_THETA_ET = 0.5
DEFAULT_THETA_SPAN = 0.25
DEFAULT_SPAN_CAP = 10


class FinetuneError(ValueError):
    pass


@dataclass
class FinetuneConfig:
    epochs: int = 3
    batch_size: int = 16
    lr: float = 3e-4
    seed: int = 0
    max_seq_len: int = 512


def _wrap(tokens: list[int]) -> list[int]:
    return [CLS_ID] + tokens + [SEP_ID]


def _pack(sequences: list[list[int]], dtype) -> tuple[np.ndarray, np.ndarray]:
    b = len(sequences)
    max_len = max(len(s) for s in sequences)
    ids = np.zeros((b, max_len), dtype=np.int64)
    mask = np.zeros((b, max_len), dtype=dtype)
    for k, s in enumerate(sequences):
        ids[k, : len(s)] = s
        mask[k, : len(s)] = 1.0
    return ids, mask


def _simple_batch(sequences: list[list[int]], dtype) -> Batch:
    """Batch with segment 0 everywhere and no pretraining-head positions."""
    ids, mask = _pack(sequences, dtype)
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0, dtype=np.float64)
    return Batch(
        ids=ids,
        seg=np.zeros_like(ids),
        mask=mask,
        mlm_b=empty_i, mlm_i=empty_i, mlm_label=empty_i, mlm_weight=empty_f,
        tc_b=empty_i, tc_i=empty_i, tc_label=empty_i, tc_weight=empty_f,
        tmt_b=empty_i, tmt_i=empty_i, tmt_label=empty_i, tmt_weight=empty_f,
        size=len(sequences),
    )


def _cls_rows(batch: Batch) -> np.ndarray:
    """The flat token rows of each sequence's [CLS], for `encode(rows=...)`."""
    return np.arange(batch.size) * batch.ids.shape[1]


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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


def _train_loop(params, model_cfg: ModelConfig, items, cfg: FinetuneConfig, at_cls: bool, loss_grad):
    """Fine-tune `params` in place on `items`, (sequence, target) pairs, in
    shuffled batches. Each step encodes the batch (the last block at [CLS]
    only when `at_cls`), applies the head, takes the loss and its gradient
    with respect to the float64 logits from `loss_grad(logits, targets,
    batch)`, backpropagates through head and encoder and takes one AdamW step.
    """
    if not items:
        raise FinetuneError("no training examples")
    dt, d = model_cfg.np_dtype, model_cfg.d_model
    opt_cfg = AdamWConfig(lr=cfg.lr)
    state = AdamWState.for_params(params)
    rng = np.random.default_rng(derive_seed(cfg.seed, "finetune-order"))
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(order), cfg.batch_size):
            chunk = [items[int(i)] for i in order[start : start + cfg.batch_size]]
            batch = _simple_batch([seq for seq, _target in chunk], dt)
            rows = _cls_rows(batch) if at_cls else None
            h, cache = encode(params, model_cfg, batch, want_cache=True, rows=rows)
            logits = (h @ params["head_w"] + params["head_b"]).astype(np.float64)
            _loss, d_logits = loss_grad(logits, [target for _seq, target in chunk], batch)
            d_logits = d_logits.astype(dt)
            n_out = d_logits.shape[-1]
            grads = {
                "head_w": h.reshape(-1, d).T @ d_logits.reshape(-1, n_out),
                "head_b": d_logits.reshape(-1, n_out).sum(axis=0),
            }
            grads.update(encoder_backward(params, model_cfg, cache, d_logits @ params["head_w"].T))
            # The activation cache, a step's largest allocation, dies before
            # the next forward runs.
            del h, cache
            adamw_step(params, grads, state, opt_cfg)


def _head_logits(params, cfg: ModelConfig, sequences: list[list[int]], at_cls: bool,
                 batch_size: int = 32) -> list[np.ndarray]:
    """Float64 head logits of each sequence, encoded `batch_size` at a time:
    (L, k) over every row of its padded batch, or (k,) at [CLS] when `at_cls`."""
    out = []
    for start in range(0, len(sequences), batch_size):
        batch = _simple_batch(sequences[start : start + batch_size], cfg.np_dtype)
        h, _ = encode(params, cfg, batch, rows=_cls_rows(batch) if at_cls else None)
        out.extend((h @ params["head_w"] + params["head_b"]).astype(np.float64))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_xent(logits: np.ndarray, y: np.ndarray, weight: np.ndarray):
    """Weighted mean binary cross-entropy of independent sigmoid outputs, and
    its gradient."""
    probs = _sigmoid(logits)
    n = weight.sum()
    loss = float(-(weight * (y * np.log(np.maximum(probs, 1e-300))
                             + (1 - y) * np.log(np.maximum(1 - probs, 1e-300)))).sum() / n)
    return loss, weight * (probs - y) / n


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
        tags.update(ex.tags or [])
    return sorted(tags)


def _bio_allowed(prev: str, tagset: list[str]) -> np.ndarray:
    """Mask of tags permitted after prev: I-X only after B-X or I-X."""
    allowed = np.zeros(len(tagset), dtype=bool)
    for j, tag in enumerate(tagset):
        if tag.startswith("I-"):
            typ = tag[2:]
            allowed[j] = prev != "O" and prev[2:] == typ
        else:
            allowed[j] = True
    return allowed


def decode_bio(token_logits: np.ndarray, tagset: list[str]) -> list[str]:
    """Greedy argmax with invalid transitions masked out."""
    tags = []
    prev = "O"
    for row in token_logits:
        masked = np.where(_bio_allowed(prev, tagset), row, -np.inf)
        prev = tagset[int(masked.argmax())]
        tags.append(prev)
    return tags


def _tag_loss(logits: np.ndarray, targets: list[list[int]], batch: Batch):
    """Mean cross-entropy of the tag softmax at every token; `targets` holds
    each sequence's tag ids, for its tokens after [CLS]."""
    k = np.repeat(np.arange(len(targets)), [len(t) for t in targets])
    pos = np.concatenate([np.arange(1, 1 + len(t)) for t in targets])
    y = np.concatenate(targets)
    probs = _softmax_rows(logits)
    d_logits = np.zeros_like(probs)
    d_logits[k, pos] = probs[k, pos]
    d_logits[k, pos, y] -= 1.0
    loss = float(-np.log(np.maximum(probs[k, pos, y], 1e-300)).sum() / len(y))
    return loss, d_logits / len(y)


@dataclass
class TokenTagger:
    params: dict[str, np.ndarray]
    model_config: ModelConfig
    tagset: list[str]

    def predict(self, examples: list[TaskExample], batch_size: int = 32) -> list[list[str]]:
        seqs = [_wrap(ex.tokens) for ex in examples]
        logits = _head_logits(self.params, self.model_config, seqs, False, batch_size)
        return [decode_bio(rows[1 : 1 + len(ex.tokens)], self.tagset)
                for ex, rows in zip(examples, logits)]


def finetune_token_classifier(
    pretrained_params,
    model_cfg: ModelConfig,
    train: list[TaskExample],
    cfg: FinetuneConfig,
    tagset: list[str] | None = None,
) -> TokenTagger:
    tagset = tagset or build_tagset(train)
    tag_to_id = {t: i for i, t in enumerate(tagset)}
    for ex in train:
        tags = ex.tags or []
        if len(tags) != len(ex.tokens):
            raise FinetuneError(
                f"example {ex.example_id} has {len(tags)} tags for {len(ex.tokens)} tokens")
        for t in tags:
            if t not in tag_to_id:
                raise FinetuneError(f"tag {t!r} outside the tag vocabulary")
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "ner-head", len(tagset))
    items = [(_wrap(ex.tokens), [tag_to_id[t] for t in ex.tags]) for ex in train]
    _train_loop(params, model_cfg, items, cfg, at_cls=False, loss_grad=_tag_loss)
    return TokenTagger(params=params, model_config=model_cfg, tagset=tagset)


def evaluate_ner(tagger: TokenTagger, examples: list[TaskExample]) -> dict:
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
    return _sigmoid_xent(logits, y, np.ones_like(y))


@dataclass
class EntityTyper:
    params: dict[str, np.ndarray]
    model_config: ModelConfig
    label_set: list[str]
    threshold: float

    def predict(self, examples: list[TaskExample], batch_size: int = 32) -> list[set]:
        seqs = [_wrap(ex.tokens) for ex in examples]
        logits = _head_logits(self.params, self.model_config, seqs, True, batch_size)
        return [{self.label_set[j] for j in np.nonzero(_sigmoid(row) >= self.threshold)[0]}
                for row in logits]


def finetune_entity_typing(
    pretrained_params,
    model_cfg: ModelConfig,
    train: list[TaskExample],
    cfg: FinetuneConfig,
    threshold: float = DEFAULT_THETA_ET,
) -> EntityTyper:
    for ex in train:
        if ex.tokens.count(ENT_ID) != 2:
            raise FinetuneError(f"example {ex.example_id} lacks an [ENT] pair")
    label_set = sorted({lab for ex in train for lab in ex.labels or []})
    lab_to_id = {lab: i for i, lab in enumerate(label_set)}
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "et-head", len(label_set))
    items = [(_wrap(ex.tokens), [lab_to_id[lab] for lab in ex.labels]) for ex in train]
    _train_loop(params, model_cfg, items, cfg, at_cls=True, loss_grad=_label_loss)
    return EntityTyper(params=params, model_config=model_cfg, label_set=label_set, threshold=threshold)


def evaluate_et(typer: EntityTyper, examples: list[TaskExample]) -> dict:
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
    stage: int


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


def _span_loss(logits: np.ndarray, targets: list[tuple[int, list[int], list[int]]], batch: Batch):
    """Stage 1: mean sigmoid cross-entropy of the start and end heads over each
    sentence's tokens; a target is (token count, start rows, end rows)."""
    y = np.zeros_like(logits)
    weight = np.zeros_like(logits)
    for k, (n_tokens, starts, ends) in enumerate(targets):
        weight[k, 1 : 1 + n_tokens] = 1.0
        y[k, starts, 0] = 1.0
        y[k, ends, 1] = 1.0
    return _sigmoid_xent(logits, y, weight)


def finetune_span_stage1(
    pretrained_params, model_cfg: ModelConfig, train: list[TaskExample], cfg: FinetuneConfig
) -> SpanModel:
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "oie1-head", 2)  # start, end
    # A predicate [s, e) starts at row 1 + s and ends at row e, after [CLS].
    items = [
        (_wrap(ex.tokens), (len(ex.tokens), [1 + tr["pred"][0] for tr in ex.triples],
                            [tr["pred"][1] for tr in ex.triples]))
        for ex in train
    ]
    _train_loop(params, model_cfg, items, cfg, at_cls=False, loss_grad=_span_loss)
    return SpanModel(params=params, model_config=model_cfg, stage=1)


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
    start, end, object start, end) over each sequence's tokens, padding
    masked; `targets` holds the four target rows per sequence."""
    t = np.array(targets, dtype=np.int64)
    # (B, 4, L) and contiguous: numpy then sums each pointer's softmax over
    # one contiguous row, pairwise, as for a 1-D row; a strided sum over the
    # token axis adds in another order and rounds differently.
    x = np.where(batch.mask.astype(bool)[:, None, :],
                 np.ascontiguousarray(logits.transpose(0, 2, 1)), -np.inf)
    loss, grad = _softmax_xent(x, (np.arange(len(t))[:, None], np.arange(4), t))
    return loss, np.ascontiguousarray(grad.transpose(0, 2, 1))


def finetune_span_stage2(
    pretrained_params, model_cfg: ModelConfig, train: list[TaskExample], cfg: FinetuneConfig
) -> SpanModel:
    params, _ = _new_adapter(pretrained_params, model_cfg, cfg.seed, "oie2-head", 4)  # ss, se, os, oe
    items = []
    for ex in train:
        for tr in ex.triples:
            pred = tuple(tr["pred"])
            bounds = (tr["subj"][0], tr["subj"][1] - 1, tr["obj"][0], tr["obj"][1] - 1)
            targets = [_stage2_map_position(p, pred) for p in bounds]
            items.append((_stage2_sequence(ex.tokens, pred), targets))
    _train_loop(params, model_cfg, items, cfg, at_cls=False, loss_grad=_pointer_loss)
    return SpanModel(params=params, model_config=model_cfg, stage=2)


def extract_open_triples(
    stage1: SpanModel,
    stage2: SpanModel,
    tokens: list[int],
    theta_span: float = DEFAULT_THETA_SPAN,
    span_cap: int = DEFAULT_SPAN_CAP,
) -> list[dict]:
    """Predicate spans above theta, then one subject and one object per
    predicate via argmax pointers (end constrained to start..)."""
    cfg = stage1.model_config
    if len(tokens) + 2 > cfg.max_seq_len:
        raise FinetuneError("sentence longer than max_seq_len")
    probs = _sigmoid(_head_logits(stage1.params, cfg, [_wrap(tokens)], False)[0])
    inner = slice(1, 1 + len(tokens))
    spans = _stage1_spans(probs[inner, 0], probs[inner, 1], theta_span, span_cap)

    triples = []
    for s, e in spans:  # inclusive j -> exclusive end
        pred = (s, e + 1)
        seq = _stage2_sequence(tokens, pred)
        l2 = _head_logits(stage2.params, stage2.model_config, [seq], False)[0]

        positions = [_stage2_map_position(p, pred) for p in range(len(tokens))]
        subj = pointer_decode(l2[positions, 0], l2[positions, 1])
        obj = pointer_decode(l2[positions, 2], l2[positions, 3])
        triples.append({"subj": list(subj), "pred": list(pred), "obj": list(obj)})
    return triples


def evaluate_oie(
    stage1: SpanModel,
    stage2: SpanModel,
    examples: list[TaskExample],
    theta_span: float = DEFAULT_THETA_SPAN,
) -> dict:
    predictions = {}
    gold = {}
    for ex in examples:
        pred = extract_open_triples(stage1, stage2, ex.tokens, theta_span)
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
    budget = max_seq_len - 3 - len(query)
    if budget < 1:
        raise FinetuneError("query alone exceeds max_seq_len")
    return [CLS_ID] + query + [SEP_ID] + candidate[:budget] + [SEP_ID]


def _rank_loss(logits: np.ndarray, targets: list[int], batch: Batch):
    """Mean cross-entropy of the relevant/irrelevant softmax; `targets` holds
    each pair's 0/1 label."""
    return _softmax_xent(logits, (np.arange(len(targets)), np.array(targets, dtype=np.int64)))


@dataclass
class Ranker:
    params: dict[str, np.ndarray]
    model_config: ModelConfig

    def score(self, query: list[int], candidates: list[list[int]], batch_size: int = 32) -> list[float]:
        """Positive-class probability of each (query [SEP] candidate) pair."""
        if not candidates:
            raise FinetuneError("empty candidate list")
        cfg = self.model_config
        seqs = [_pair_sequence(query, cand, cfg.max_seq_len) for cand in candidates]
        probs = _softmax_rows(np.stack(_head_logits(self.params, cfg, seqs, True, batch_size)))
        return [float(x) for x in probs[:, 1]]


def finetune_ranker(
    pretrained_params,
    model_cfg: ModelConfig,
    train: list[TaskExample],
    cfg: FinetuneConfig,
    n_negatives: int = 4,
) -> Ranker:
    """Binary relevance training on gold + sampled-negative pairs per query."""
    params, rng = _new_adapter(pretrained_params, model_cfg, cfg.seed, "rank-head", 2)
    pairs = []
    for ex in train:
        gold = ex.gold
        neg_pool = [i for i in range(len(ex.candidates)) if i != gold]
        picked = rng.choice(len(neg_pool), size=min(n_negatives, len(neg_pool)), replace=False)
        for cand, label in [(gold, 1)] + [(neg_pool[int(i)], 0) for i in picked]:
            pairs.append((_pair_sequence(ex.tokens, ex.candidates[cand], model_cfg.max_seq_len), label))
    _train_loop(params, model_cfg, pairs, cfg, at_cls=True, loss_grad=_rank_loss)
    return Ranker(params=params, model_config=model_cfg)


def rank_candidates(ranker: Ranker, query: list[int], candidates: list[list[int]]):
    """Scores plus the score-descending ranking (ties by candidate index)."""
    scores = ranker.score(query, candidates)
    ranking = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
    return scores, ranking


def evaluate_rank(ranker: Ranker, examples: list[TaskExample], dialog: bool = False) -> dict:
    predictions = {}
    gold = {}
    for ex in examples:
        _scores, ranking = rank_candidates(ranker, ex.tokens, ex.candidates)
        if dialog:
            predictions[ex.example_id] = (ranking, ex.candidates)
        else:
            predictions[ex.example_id] = ranking
        gold[ex.example_id] = {ex.gold}
    return compute_task_metrics("dialog" if dialog else "qa", predictions, gold)
