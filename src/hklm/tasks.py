"""Synthetic downstream task sets derived from the corpus generator's truth.

Every generator splits by entity (seeded), builds sentences only from words
guaranteed to be in the corpus vocabulary, and records gold labels from the
side-channel truth, so all five task schemes run without external data.
A `TaskExample` checks its fields when built, so a record made in Python
meets the rules a task file's must; `read_task_data` adds unique ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .align import ExactCosines, TfIdfIndex, tfidf_vector
from .corpus import (
    ATTRIBUTE_POOLS,
    ENT_ID,
    RELATION_VERBS,
    SEP_ID,
    Corpus,
    Vocab,
    derive_seed,
    entity_split,
    tokenize_text,
)
from .metrics import is_bio_tag


class TaskError(ValueError):
    pass


# The fields a record of each variant needs beside `id`, `variant` and `tokens`.
_VARIANT_FIELDS = {"ner": ("tags",), "et": ("labels",), "oie": ("triples",), "rank": ("candidates", "gold")}
# Every variant's fields, in the order a record's JSON object holds them.
_RECORD_FIELDS = tuple(key for keys in _VARIANT_FIELDS.values() for key in keys)
# A value in an error message, as JSON; a value JSON cannot hold, such as a
# numpy integer or a set, by its repr.
_show = partial(json.dumps, default=repr)


def _not_a_list(name: str, key: str, value) -> TaskError:
    return TaskError(f"{name}: {key} {_show(value)} is not a list (type {type(value).__name__})")


@dataclass
class TaskExample:
    example_id: str
    variant: str  # ner | et | oie | rank
    tokens: list[int]
    tags: list[str] | None = None                 # ner: BIO per token
    labels: list[str] | None = None               # et: gold label set
    triples: list[dict] | None = None             # oie: span triples
    candidates: list[list[int]] | None = None     # rank: candidate sequences
    gold: int | None = None                       # rank: gold candidate index

    def __post_init__(self) -> None:
        """Reject a record its variant's adapter cannot read, however it was built."""
        if not isinstance(self.example_id, str):  # ids key the evaluation's predictions
            raise TaskError(f"task record id {_show(self.example_id)} is not a string")
        if self.variant not in tuple(_VARIANT_FIELDS):  # compared, not hashed: JSON may give a list
            raise TaskError(f"record {self.example_id}: variant {_show(self.variant)} is not ner, et, oie or rank")
        name = f"{self.variant} record {self.example_id}"
        for key, value in (("triples", self.triples), ("candidates", self.candidates)):
            if value is not None and not isinstance(value, list):  # iterated below, as are tokens and candidates
                raise _not_a_list(name, key, value)
        for key, seq in [("tokens", self.tokens), *(("candidate", c) for c in self.candidates or ())]:
            if not isinstance(seq, list):
                raise _not_a_list(name, key, seq)
            bad = [t for t in seq if type(t) is not int or t < 0]  # JSON true is not token 1
            if bad:
                raise TaskError(f"{name}: token {_show(bad[0])} is not a nonnegative integer id")
        if self.variant == "et" and self.tokens.count(ENT_ID) != 2:
            raise TaskError(f"example {self.example_id}: [ENT] markers must appear as a pair")
        missing = [key for key in _VARIANT_FIELDS[self.variant] if getattr(self, key) is None]
        if missing:
            raise TaskError(f"{name} lacks {missing}")
        if self.variant in ("ner", "et"):  # a string would read as one tag or label per character
            key = "tags" if self.variant == "ner" else "labels"
            value = getattr(self, key)
            if not isinstance(value, list):
                raise _not_a_list(name, key, value)
            if not all(isinstance(x, str) for x in value):
                raise TaskError(f"{name}: {key} {_show(value)} is not a list of strings")
        for tag in self.tags if self.variant == "ner" else ():
            if not is_bio_tag(tag):  # the evaluation reads spans from B-<type> and I-<type>
                raise TaskError(f"{name}: tag {_show(tag)} is not O, B-<type> or I-<type>")
        if self.variant == "ner" and len(self.tags) != len(self.tokens):
            raise TaskError(f"{name} has {len(self.tags)} tags for {len(self.tokens)} tokens")
        if self.variant == "rank" and not (type(self.gold) is int and 0 <= self.gold < len(self.candidates)):
            raise TaskError(f"{name}: gold {_show(self.gold)} is not the index of"
                            f" one of its {len(self.candidates)} candidates")
        for triple in self.triples if self.variant == "oie" else ():
            for role in ("subj", "pred", "obj"):
                span = triple.get(role) if isinstance(triple, dict) else None
                if not _is_span(span, len(self.tokens)):
                    raise TaskError(f"{name}: {role} {_show(span)} is not a span"
                                    f" [s, e) with 0 <= s < e <= {len(self.tokens)}")

    def to_json(self) -> dict:
        obj = {"id": self.example_id, "variant": self.variant, "tokens": self.tokens}
        obj.update((key, getattr(self, key)) for key in _RECORD_FIELDS if getattr(self, key) is not None)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "TaskExample":
        if not isinstance(obj, dict):
            raise TaskError(f"task record must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in ("id", "variant", "tokens") if key not in obj]
        if missing:
            raise TaskError(f"task record lacks {missing}")
        return cls(example_id=obj["id"], variant=obj["variant"], tokens=obj["tokens"],
                   **{key: obj.get(key) for key in _RECORD_FIELDS})


def _is_span(span, n: int) -> bool:
    """Whether span is [s, e], integers (not booleans) with 0 <= s < e <= n."""
    return (isinstance(span, list) and len(span) == 2 and all(type(i) is int for i in span)
            and 0 <= span[0] < span[1] <= n)


def read_task_data(path) -> list[TaskExample]:
    """The records of a task file; each `id` may appear on one line only."""
    out = []
    id_lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    ex = TaskExample.from_json(json.loads(line))
                except (ValueError, TypeError) as exc:  # TaskError and JSONDecodeError included
                    raise TaskError(f"{path} line {lineno}: {exc}") from exc
                if ex.example_id in id_lines:
                    raise TaskError(f"{path} line {lineno}: duplicate id {ex.example_id!r}"
                                    f" (first seen on line {id_lines[ex.example_id]})")
                id_lines[ex.example_id] = lineno
                out.append(ex)
    return out


# Share of entities whose sentences go to the eval split.
_EVAL_FRACTION = 0.3
# Tokens of a paragraph's prefix that make one ranking candidate.
_CANDIDATE_LEN = 24


def _task_sets(truth, seed, task, prefix, n_train, n_eval, example, *seed_parts, keep=None):
    """(train, eval) sets of one task over the entity split of `truth`.

    Each split draws from its own stream, `derive_seed(seed, task, id_prefix,
    *seed_parts)`, where `id_prefix` is `<prefix>-tr-` or `<prefix>-ev-`; its
    examples are `example(recs, rng, example_id)` over the split's records
    (those `keep` accepts, when given), with ids numbered from `id_prefix`00000.
    Raises TaskError when a split that must yield examples has no record.
    """
    def build(recs, count, split):
        id_prefix = f"{prefix}-{split}-"
        rng = np.random.default_rng(derive_seed(seed, task, id_prefix, *seed_parts))
        recs = [rec for rec in recs if keep is None or keep(rec)]
        if count and not recs:
            name = {"tr": "training", "ev": "eval"}[split]
            raise TaskError(f"{prefix} task: no usable entity in its {name} split to draw"
                            f" {count} examples from ({len(truth)} entities in all)")
        return [example(recs, rng, f"{id_prefix}{i:05d}") for i in range(count)]

    train_recs, eval_recs = entity_split(truth, _EVAL_FRACTION, seed, "task-split")
    return build(train_recs, n_train, "tr"), build(eval_recs, n_eval, "ev")


def _attribute_words(vocab: Vocab) -> list[str]:
    """The words of the corpus generator's attribute values that `vocab` holds, sorted."""
    words = {w for pool in ATTRIBUTE_POOLS.values() for val in pool for w in val.split()}
    return sorted(words & set(vocab.token_to_id))


# Sentence templates assembled from corpus-vocabulary words only.
_NER_TEMPLATES = [
    (["many", "visitors", "near"], ["in", "autumn"]),
    (["the", "famous"], ["is", "popular", "with", "travellers"]),
    (["a", "quiet", "footpath", "near"], ["and", "the", "old", "gallery"]),
    (["most", "local", "vendors", "near"], ["with", "pastry"]),
    ([], ["was", "restored", "in", "1901"]),
    (["the", "parade", "of"], ["in", "winter"]),
    (["this", "grand", "courtyards", "near"], ["is", "scenic"]),
    ([], ["is", "famous", "for", "its", "dumplings"]),
]

_ET_TEMPLATES = [
    (["the", "famous"], ["is", "scenic"]),
    (["the", "area", "near"], ["is", "quiet"]),
    (["pilgrims", "near"], ["in", "spring"]),
    (["a", "ferry", "near"], ["is", "popular"]),
]


def _surface_tokens(rec: dict, surface: str, rng) -> list[str]:
    title = [rec["name"], rec["kind"]]
    if surface == "title":
        return title
    if surface == "alias":
        return list(rec["alias"])
    return title if rng.random() < 0.5 else list(rec["alias"])


def _usable_templates(templates, vocab: Vocab):
    usable = [
        t for t in templates
        if all(w in vocab.token_to_id for w in list(t[0]) + list(t[1]))
    ]
    if not usable:
        raise TaskError("no sentence template is covered by this corpus vocabulary")
    return usable


def make_ner_data(
    truth: list[dict],
    vocab: Vocab,
    seed: int,
    n_train: int = 240,
    n_eval: int = 120,
    surface: str = "both",
    distractor_fraction: float = 0.35,
) -> tuple[list[TaskExample], list[TaskExample]]:
    """BIO-tagged sentences whose entity spans are corpus titles or aliases,
    typed by the entity's kind group. surface='alias' yields the probe whose
    entities occur only in infobox triples, never in free text.

    A fraction of sentences fill the template slot with ordinary content
    words instead (all tags O), so the slot context alone cannot identify a
    span; tagging requires knowing the span tokens themselves.
    """
    if surface not in ("title", "alias", "both"):
        raise TaskError(f"unknown surface {surface!r}")
    filler_pool = _attribute_words(vocab)
    templates = _usable_templates(_NER_TEMPLATES, vocab)

    def example(recs, rng, example_id):
        prefix, suffix = templates[int(rng.integers(0, len(templates)))]
        if rng.random() < distractor_fraction:
            span = [
                filler_pool[int(rng.integers(0, len(filler_pool)))]
                for _ in range(int(rng.integers(1, 3)))
            ]
            span_tags = ["O"] * len(span)
        else:
            rec = recs[int(rng.integers(0, len(recs)))]
            span = _surface_tokens(rec, surface, rng)
            span_tags = [f"B-{rec['group']}"] + [f"I-{rec['group']}"] * (len(span) - 1)
        return TaskExample(
            example_id=example_id,
            variant="ner",
            tokens=vocab.encode_tokens(list(prefix) + span + list(suffix)),
            tags=["O"] * len(prefix) + span_tags + ["O"] * len(suffix),
        )

    return _task_sets(truth, seed, "ner", "ner", n_train, n_eval, example)


def make_et_data(
    truth: list[dict],
    vocab: Vocab,
    seed: int,
    n_train: int = 200,
    n_eval: int = 100,
) -> tuple[list[TaskExample], list[TaskExample]]:
    """Entity-typing sentences: the mention is bracketed by an [ENT] pair and
    the gold label set is the entity's hierarchical type path."""
    templates = _usable_templates(_ET_TEMPLATES, vocab)

    def example(recs, rng, example_id):
        rec = recs[int(rng.integers(0, len(recs)))]
        prefix, suffix = templates[int(rng.integers(0, len(templates)))]
        mention = [rec["name"], rec["kind"]]
        tokens = (
            vocab.encode_tokens(prefix)
            + [ENT_ID]
            + vocab.encode_tokens(mention)
            + [ENT_ID]
            + vocab.encode_tokens(suffix)
        )
        return TaskExample(example_id=example_id, variant="et", tokens=tokens, labels=list(rec["type_path"]))

    return _task_sets(truth, seed, "et", "et", n_train, n_eval, example)


def make_oie_data(
    truth: list[dict],
    vocab: Vocab,
    seed: int,
    n_train: int = 220,
    n_eval: int = 110,
) -> tuple[list[TaskExample], list[TaskExample]]:
    """Open-IE sentences built as '<title> <verb> <title>' clauses with exact
    token spans; roughly a third carry two clauses sharing the subject."""
    pool_words = _attribute_words(vocab)

    def clause_obj(rng, recs):
        # objects alternate between other entities and attribute-pool words
        if rng.random() < 0.5:
            other = recs[int(rng.integers(0, len(recs)))]
            return [other["name"], other["kind"]]
        return ["the", pool_words[int(rng.integers(0, len(pool_words)))]]

    def example(recs, rng, example_id):
        rec = recs[int(rng.integers(0, len(recs)))]
        subj = [rec["name"], rec["kind"]]
        tokens = ["the"] + subj
        subj_span = (1, 3)
        triples = []
        n_clauses = 2 if rng.random() < 0.35 else 1
        for c in range(n_clauses):
            if c > 0:
                tokens.append("and")
            verb = RELATION_VERBS[int(rng.integers(0, len(RELATION_VERBS)))]
            pred_start = len(tokens)
            tokens.append(verb)
            obj = clause_obj(rng, recs)
            obj_start = len(tokens) + (1 if obj[0] == "the" else 0)
            obj_core = obj[1:] if obj[0] == "the" else obj
            tokens.extend(obj)
            triples.append(
                {
                    "subj": list(subj_span),
                    "pred": [pred_start, pred_start + 1],
                    "obj": [obj_start, obj_start + len(obj_core)],
                }
            )
        return TaskExample(
            example_id=example_id,
            variant="oie",
            tokens=vocab.encode_tokens(tokens),
            triples=triples,
        )

    return _task_sets(truth, seed, "oie", "oie", n_train, n_eval, example)


def _entity_sentences(corpus: Corpus) -> dict[str, list[tuple[str, list[str]]]]:
    """Per-entity candidate answer pool: (heading, paragraph-prefix tokens)."""
    out: dict[str, list[tuple[str, list[str]]]] = {}
    for doc in corpus:
        sents = []
        for sec in doc.sections:
            for para in sec.paragraphs:
                # Each whitespace chunk yields at least one token, so the
                # first _CANDIDATE_LEN chunks hold the first _CANDIDATE_LEN tokens.
                toks = tokenize_text(" ".join(para.split()[:_CANDIDATE_LEN]))[:_CANDIDATE_LEN]
                if toks:
                    sents.append((sec.heading, toks))
        out[doc.entity_id] = sents
    return out


class RankPool:
    """The ranking sets' candidates over one corpus, built once for QA and
    dialogue: each entity's (heading, paragraph-prefix tokens) sentences,
    every sentence encoded as a candidate of its entity, and the candidates'
    own TF-IDF index and exact cosines."""

    def __init__(self, corpus: Corpus, vocab: Vocab):
        self.sentences = _entity_sentences(corpus)
        universe = [(eid, vocab.encode_tokens(toks))
                    for eid, sents in sorted(self.sentences.items()) for _heading, toks in sents]
        self.candidates = [ids for _, ids in universe]
        self.eids = np.array([eid for eid, _ in universe])
        self.index = TfIdfIndex.from_token_docs(self.candidates)
        self.cosines = ExactCosines([tfidf_vector(ids, self.index) for ids in self.candidates])

    def closest_others(self, eid, query: list[int], k: int) -> list[list[int]]:
        """The k candidates of entities other than `eid` ranked first by
        (-cosine to the query, pool order); zero scorers follow the positive
        ones in pool order."""
        scores = self.cosines(tfidf_vector(query, self.index))
        other = self.eids != eid
        positive = np.flatnonzero(other & (scores > 0.0))
        picked = positive[np.argsort(-scores[positive], kind="stable")[:k]]
        other[picked] = False
        return [self.candidates[j]
                for j in picked.tolist() + np.flatnonzero(other)[: k - len(picked)].tolist()]


def make_rank_data(
    corpus: Corpus | RankPool,
    truth: list[dict],
    vocab: Vocab,
    seed: int,
    n_train: int = 80,
    n_eval: int = 40,
    n_candidates: int = 30,
    dialog: bool = False,
) -> tuple[list[TaskExample], list[TaskExample]]:
    """Candidate-ranking sets for QA and dialogue.

    The query names an entity and a topic; the gold candidate is a paragraph
    prefix of that entity under that topic, distractors are the closest other
    entities' sentences by TF-IDF similarity. Dialogue mode prepends a second
    turn and joins turns with [SEP]. `corpus` may be given as its `RankPool`
    (built with `vocab`), which QA and dialogue sets can then share.
    """
    pool = corpus if isinstance(corpus, RankPool) else RankPool(corpus, vocab)
    sentences = pool.sentences

    def example(recs, rng, example_id):
        rec = recs[int(rng.integers(0, len(recs)))]
        eid = rec["entity_id"]
        heading, gold_toks = sentences[eid][int(rng.integers(0, len(sentences[eid])))]
        query = vocab.encode_tokens([rec["name"], rec["kind"]]) + vocab.encode(heading)
        if dialog:
            turn1 = vocab.encode_tokens(["travellers", "near", rec["name"], rec["kind"]])
            query = turn1 + [SEP_ID] + query
        distractors = pool.closest_others(eid, query, n_candidates - 1)
        gold_pos = int(rng.integers(0, len(distractors) + 1))
        return TaskExample(
            example_id=example_id,
            variant="rank",
            tokens=query,
            candidates=distractors[:gold_pos] + [vocab.encode_tokens(gold_toks)] + distractors[gold_pos:],
            gold=gold_pos,
        )

    return _task_sets(truth, seed, "rank", "dlg" if dialog else "qa", n_train, n_eval, example,
                      dialog, keep=lambda rec: sentences.get(rec["entity_id"]))


def make_task_sets(corpus: Corpus, truth: list[dict], vocab: Vocab, seed: int) -> dict:
    """Task -> its (train, eval) sets, for all five tasks at their default
    sizes; QA and dialogue draw from one `RankPool`."""
    pool = RankPool(corpus, vocab)
    return {
        "ner": make_ner_data(truth, vocab, seed),
        "et": make_et_data(truth, vocab, seed),
        "oie": make_oie_data(truth, vocab, seed),
        "qa": make_rank_data(pool, truth, vocab, seed),
        "dialog": make_rank_data(pool, truth, vocab, seed, dialog=True),
    }
