"""Fine-tuning adapters for the five downstream task schemes.

Each adapter puts a small head on the pretrained encoder, fine-tunes the
whole stack with AdamW, and evaluates with the task's metric bundle:
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
    weight_decay: float = 0.0
    seed: int = 0
    max_seq_len: int = 512


def _clone_encoder(params, model_cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Copies of the encoder tensors; no adapter reads the pretraining heads."""
    return {k: params[k].copy() for k in encoder_param_names(model_cfg)}


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


def _train_loop(params, model_cfg, items, cfg: FinetuneConfig, step_fn):
    """Shared shuffle/batch/update skeleton. step_fn(params, batch_items) must
    return (loss, grads over encoder+head params)."""
    opt_cfg = AdamWConfig(lr=cfg.lr, weight_decay=cfg.weight_decay)
    state = AdamWState.for_params(params)
    rng = np.random.default_rng(derive_seed(cfg.seed, "finetune-order"))
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        for start in range(0, len(order), cfg.batch_size):
            chunk = [items[int(i)] for i in order[start : start + cfg.batch_size]]
            _loss, grads = step_fn(params, chunk)
            adamw_step(params, grads, state, opt_cfg)
    return params


def _head_normal(rng, *shape, std=0.02):
    return rng.normal(0.0, std, size=shape)


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


@dataclass
class TokenTagger:
    params: dict[str, np.ndarray]
    model_config: ModelConfig
    tagset: list[str]

    def predict(self, examples: list[TaskExample], batch_size: int = 32) -> list[list[str]]:
        out = []
        dt = self.model_config.np_dtype
        for start in range(0, len(examples), batch_size):
            chunk = examples[start : start + batch_size]
            seqs = [[CLS_ID] + ex.tokens + [SEP_ID] for ex in chunk]
            batch = _simple_batch(seqs, dt)
            h, _ = encode(self.params, self.model_config, batch)
            logits = h @ self.params["head_w"] + self.params["head_b"]
            for k, ex in enumerate(chunk):
                out.append(decode_bio(logits[k, 1 : 1 + len(ex.tokens)], self.tagset))
        return out


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
        for t in ex.tags or []:
            if t not in tag_to_id:
                raise FinetuneError(f"tag {t!r} outside the tag vocabulary")
    dt = model_cfg.np_dtype
    params = _clone_encoder(pretrained_params, model_cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, "ner-head"))
    params["head_w"] = _head_normal(rng, model_cfg.d_model, len(tagset)).astype(dt)
    params["head_b"] = np.zeros(len(tagset), dtype=dt)

    def step(params, chunk):
        seqs = [[CLS_ID] + ex.tokens + [SEP_ID] for ex in chunk]
        batch = _simple_batch(seqs, dt)
        h, cache = encode(params, model_cfg, batch, want_cache=True)
        logits = h @ params["head_w"] + params["head_b"]
        b, l, _ = h.shape
        probs = _softmax_rows(logits.astype(np.float64))
        d_logits = np.zeros_like(probs)
        loss = 0.0
        n_tok = sum(len(ex.tokens) for ex in chunk)
        for k, ex in enumerate(chunk):
            for pos, tag in enumerate(ex.tags, start=1):
                y = tag_to_id[tag]
                loss -= np.log(max(probs[k, pos, y], 1e-300))
                d_logits[k, pos] = probs[k, pos]
                d_logits[k, pos, y] -= 1.0
        d_logits /= n_tok
        loss /= n_tok
        d_logits = d_logits.astype(dt)
        grads = {
            "head_w": h.reshape(-1, model_cfg.d_model).T @ d_logits.reshape(-1, len(tagset)),
            "head_b": d_logits.reshape(-1, len(tagset)).sum(axis=0),
        }
        d_h = d_logits @ params["head_w"].T
        enc_grads = encoder_backward(params, model_cfg, cache, d_h)
        grads.update(enc_grads)
        return loss, grads

    _train_loop(params, model_cfg, train, cfg, step)
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


@dataclass
class EntityTyper:
    params: dict[str, np.ndarray]
    model_config: ModelConfig
    label_set: list[str]
    threshold: float

    def predict(self, examples: list[TaskExample], batch_size: int = 32) -> list[set]:
        out = []
        dt = self.model_config.np_dtype
        for start in range(0, len(examples), batch_size):
            chunk = examples[start : start + batch_size]
            seqs = [[CLS_ID] + ex.tokens + [SEP_ID] for ex in chunk]
            batch = _simple_batch(seqs, dt)
            cls, _ = encode(self.params, self.model_config, batch, rows=_cls_rows(batch))
            logits = cls @ self.params["head_w"] + self.params["head_b"]
            probs = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
            for row in probs:
                out.append({self.label_set[j] for j in np.nonzero(row >= self.threshold)[0]})
        return out


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
    dt = model_cfg.np_dtype
    params = _clone_encoder(pretrained_params, model_cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, "et-head"))
    params["head_w"] = _head_normal(rng, model_cfg.d_model, len(label_set)).astype(dt)
    params["head_b"] = np.zeros(len(label_set), dtype=dt)

    def step(params, chunk):
        seqs = [[CLS_ID] + ex.tokens + [SEP_ID] for ex in chunk]
        batch = _simple_batch(seqs, dt)
        cls, cache = encode(params, model_cfg, batch, want_cache=True, rows=_cls_rows(batch))
        logits = (cls @ params["head_w"] + params["head_b"]).astype(np.float64)
        probs = 1.0 / (1.0 + np.exp(-logits))
        y = np.zeros_like(probs)
        for k, ex in enumerate(chunk):
            for lab in ex.labels:
                y[k, lab_to_id[lab]] = 1.0
        n = probs.size
        loss = float(-(y * np.log(np.maximum(probs, 1e-300))
                       + (1 - y) * np.log(np.maximum(1 - probs, 1e-300))).sum() / n)
        d_logits = ((probs - y) / n).astype(dt)
        grads = {
            "head_w": cls.T @ d_logits,
            "head_b": d_logits.sum(axis=0),
        }
        grads.update(encoder_backward(params, model_cfg, cache, d_logits @ params["head_w"].T))
        return loss, grads

    _train_loop(params, model_cfg, train, cfg, step)
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


def finetune_span_stage1(
    pretrained_params, model_cfg: ModelConfig, train: list[TaskExample], cfg: FinetuneConfig
) -> SpanModel:
    dt = model_cfg.np_dtype
    params = _clone_encoder(pretrained_params, model_cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, "oie1-head"))
    params["head_w"] = _head_normal(rng, model_cfg.d_model, 2).astype(dt)  # start, end
    params["head_b"] = np.zeros(2, dtype=dt)

    def step(params, chunk):
        seqs = [[CLS_ID] + ex.tokens + [SEP_ID] for ex in chunk]
        batch = _simple_batch(seqs, dt)
        h, cache = encode(params, model_cfg, batch, want_cache=True)
        logits = (h @ params["head_w"] + params["head_b"]).astype(np.float64)
        probs = 1.0 / (1.0 + np.exp(-logits))
        y = np.zeros_like(probs)
        weight = np.zeros_like(probs)
        for k, ex in enumerate(chunk):
            weight[k, 1 : 1 + len(ex.tokens)] = 1.0
            for tr in ex.triples:
                s, e = tr["pred"]
                y[k, 1 + s, 0] = 1.0
                y[k, e, 1] = 1.0  # inclusive end position is e-1 in example space
        n = weight.sum()
        loss = float(-(weight * (y * np.log(np.maximum(probs, 1e-300))
                                 + (1 - y) * np.log(np.maximum(1 - probs, 1e-300)))).sum() / n)
        d_logits = (weight * (probs - y) / n).astype(dt)
        grads = {
            "head_w": h.reshape(-1, model_cfg.d_model).T @ d_logits.reshape(-1, 2),
            "head_b": d_logits.reshape(-1, 2).sum(axis=0),
        }
        d_h = d_logits @ params["head_w"].T
        grads.update(encoder_backward(params, model_cfg, cache, d_h))
        return loss, grads

    _train_loop(params, model_cfg, train, cfg, step)
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


def finetune_span_stage2(
    pretrained_params, model_cfg: ModelConfig, train: list[TaskExample], cfg: FinetuneConfig
) -> SpanModel:
    dt = model_cfg.np_dtype
    params = _clone_encoder(pretrained_params, model_cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, "oie2-head"))
    params["head_w"] = _head_normal(rng, model_cfg.d_model, 4).astype(dt)  # ss, se, os, oe
    params["head_b"] = np.zeros(4, dtype=dt)

    items = []
    for ex in train:
        for tr in ex.triples:
            items.append((ex, tr))

    def step(params, chunk):
        seqs = [_stage2_sequence(ex.tokens, tuple(tr["pred"])) for ex, tr in chunk]
        batch = _simple_batch(seqs, dt)
        h, cache = encode(params, model_cfg, batch, want_cache=True)
        logits = (h @ params["head_w"] + params["head_b"]).astype(np.float64)
        mask = batch.mask.astype(bool)
        loss = 0.0
        d_logits = np.zeros_like(logits)
        for k, (ex, tr) in enumerate(chunk):
            pred = tuple(tr["pred"])
            targets = [
                _stage2_map_position(tr["subj"][0], pred),
                _stage2_map_position(tr["subj"][1] - 1, pred),
                _stage2_map_position(tr["obj"][0], pred),
                _stage2_map_position(tr["obj"][1] - 1, pred),
            ]
            for role in range(4):
                row = np.where(mask[k], logits[k, :, role], -np.inf)
                z = row - row.max()
                logp = z - np.log(np.exp(z).sum())
                loss -= logp[targets[role]]
                p = np.exp(logp)
                p[~mask[k]] = 0.0
                d_logits[k, :, role] = p
                d_logits[k, targets[role], role] -= 1.0
        n = 4 * len(chunk)
        loss = float(loss / n)
        d_logits = (d_logits / n).astype(dt)
        grads = {
            "head_w": h.reshape(-1, model_cfg.d_model).T @ d_logits.reshape(-1, 4),
            "head_b": d_logits.reshape(-1, 4).sum(axis=0),
        }
        d_h = d_logits @ params["head_w"].T
        grads.update(encoder_backward(params, model_cfg, cache, d_h))
        return loss, grads

    _train_loop(params, model_cfg, items, cfg, step)
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
    dt = cfg.np_dtype
    batch = _simple_batch([[CLS_ID] + tokens + [SEP_ID]], dt)
    h, _ = encode(stage1.params, cfg, batch)
    logits = (h[0] @ stage1.params["head_w"] + stage1.params["head_b"]).astype(np.float64)
    probs = 1.0 / (1.0 + np.exp(-logits))
    inner = slice(1, 1 + len(tokens))
    spans = _stage1_spans(probs[inner, 0], probs[inner, 1], theta_span, span_cap)

    triples = []
    for s, e in spans:  # inclusive j -> exclusive end
        pred = (s, e + 1)
        seq = _stage2_sequence(tokens, pred)
        b2 = _simple_batch([seq], dt)
        h2, _ = encode(stage2.params, stage2.model_config, b2)
        l2 = (h2[0] @ stage2.params["head_w"] + stage2.params["head_b"]).astype(np.float64)

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


@dataclass
class Ranker:
    params: dict[str, np.ndarray]
    model_config: ModelConfig

    def score(self, query: list[int], candidates: list[list[int]], batch_size: int = 32) -> list[float]:
        """Positive-class probability of each (query [SEP] candidate) pair."""
        if not candidates:
            raise FinetuneError("empty candidate list")
        cfg = self.model_config
        dt = cfg.np_dtype
        budget = cfg.max_seq_len - 3 - len(query)
        if budget < 1:
            raise FinetuneError("query alone exceeds max_seq_len")
        seqs = [
            [CLS_ID] + query + [SEP_ID] + cand[:budget] + [SEP_ID] for cand in candidates
        ]
        scores = []
        for start in range(0, len(seqs), batch_size):
            batch = _simple_batch(seqs[start : start + batch_size], dt)
            cls, _ = encode(self.params, cfg, batch, rows=_cls_rows(batch))
            logits = (cls @ self.params["head_w"] + self.params["head_b"]).astype(np.float64)
            z = logits - logits.max(axis=-1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=-1, keepdims=True)
            scores.extend(float(x) for x in p[:, 1])
        return scores


def finetune_ranker(
    pretrained_params,
    model_cfg: ModelConfig,
    train: list[TaskExample],
    cfg: FinetuneConfig,
    n_negatives: int = 4,
) -> Ranker:
    """Binary relevance training on gold + sampled-negative pairs per query."""
    dt = model_cfg.np_dtype
    params = _clone_encoder(pretrained_params, model_cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, "rank-head"))
    params["head_w"] = _head_normal(rng, model_cfg.d_model, 2).astype(dt)
    params["head_b"] = np.zeros(2, dtype=dt)

    budget = model_cfg.max_seq_len - 3
    pairs = []
    for ex in train:
        gold = ex.gold
        pairs.append((ex.tokens, ex.candidates[gold], 1))
        neg_pool = [i for i in range(len(ex.candidates)) if i != gold]
        picked = rng.choice(len(neg_pool), size=min(n_negatives, len(neg_pool)), replace=False)
        for i in picked:
            pairs.append((ex.tokens, ex.candidates[neg_pool[int(i)]], 0))

    def step(params, chunk):
        seqs = [
            [CLS_ID] + q + [SEP_ID] + c[: budget - len(q)] + [SEP_ID] for q, c, _y in chunk
        ]
        labels = np.array([y for _q, _c, y in chunk], dtype=np.int64)
        batch = _simple_batch(seqs, dt)
        cls, cache = encode(params, model_cfg, batch, want_cache=True, rows=_cls_rows(batch))
        logits = (cls @ params["head_w"] + params["head_b"]).astype(np.float64)
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        n = len(chunk)
        loss = float(-logp[np.arange(n), labels].sum() / n)
        d_logits = np.exp(logp)
        d_logits[np.arange(n), labels] -= 1.0
        d_logits = (d_logits / n).astype(dt)
        grads = {
            "head_w": cls.T @ d_logits,
            "head_b": d_logits.sum(axis=0),
        }
        grads.update(encoder_backward(params, model_cfg, cache, d_logits @ params["head_w"].T))
        return loss, grads

    _train_loop(params, model_cfg, pairs, cfg, step)
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
