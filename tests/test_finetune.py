import dataclasses
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hklm import encoder, finetune
from hklm.corpus import build_vocab, generate_synthetic_corpus
from hklm.encoder import ModelConfig, ModelError, encoder_param_names, init_params, token_batch
from hklm.finetune import (
    FinetuneConfig,
    FinetuneError,
    EntityTyper,
    Ranker,
    _stage1_spans,
    decode_bio,
    evaluate_et,
    evaluate_ner,
    evaluate_rank,
    extract_open_triples,
    finetune_entity_typing,
    finetune_ranker,
    finetune_span_stage1,
    finetune_span_stage2,
    finetune_token_classifier,
    pointer_decode,
)
from hklm.metrics import is_valid_bio
from hklm.tasks import TaskError, TaskExample, make_et_data, make_ner_data, make_oie_data, make_rank_data
import oracles
from test_encoder import assert_grads_close, hold_jobs

TAGSET = ["B-x", "B-y", "I-x", "I-y", "O"]


@pytest.fixture(scope="module")
def world():
    corpus, truth = generate_synthetic_corpus(31, 16)
    vocab = build_vocab(corpus, 1)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2, n_layers=1, max_seq_len=256)
    params = init_params(cfg, 0)
    return corpus, truth, vocab, cfg, params


class TestBioDecode:
    @given(st.integers(0, 10_000))
    def test_never_invalid(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(12, len(TAGSET)))
        tags = decode_bio(logits, TAGSET)
        assert is_valid_bio(tags)

    @pytest.mark.parametrize("tagset", [TAGSET, ["B-a", "B-b", "B-c", "I-a", "I-b", "I-c", "O"], ["O"]])
    def test_matches_per_token_mask_decode(self, tagset):
        """One transition mask per tag set decodes as a mask rebuilt at every
        token from the previous tag."""
        def per_token_decode(token_logits):
            tags, prev = [], "O"
            for row in token_logits:
                allowed = [not t.startswith("I-") or (prev != "O" and prev[2:] == t[2:]) for t in tagset]
                prev = tagset[int(np.where(allowed, row, -np.inf).argmax())]
                tags.append(prev)
            return tags

        rng = np.random.default_rng(4)
        for n in (0, 1, 7, 40):
            for _ in range(25):
                logits = rng.normal(size=(n, len(tagset)))
                assert decode_bio(logits, tagset) == per_token_decode(logits)

    def test_oracle_logits_recovered(self):
        gold = ["O", "B-x", "I-x", "O", "B-y"]
        logits = np.full((5, len(TAGSET)), -10.0)
        for i, t in enumerate(gold):
            logits[i, TAGSET.index(t)] = 10.0
        assert decode_bio(logits, TAGSET) == gold

    def test_invalid_preference_masked_to_valid(self):
        # highest logit is I-x after O; decode must fall back to a legal tag
        logits = np.full((2, len(TAGSET)), -10.0)
        logits[0, TAGSET.index("O")] = 5.0
        logits[1, TAGSET.index("I-x")] = 9.0
        logits[1, TAGSET.index("B-x")] = 8.0
        assert decode_bio(logits, TAGSET) == ["O", "B-x"]


class TestSpanPrimitives:
    def test_theta_above_one_no_spans(self):
        p = np.full(6, 0.99)
        assert _stage1_spans(p, p, theta=1.01, cap=5) == []

    def test_oracle_probabilities_recover_spans(self):
        start = np.zeros(8)
        end = np.zeros(8)
        start[1] = 1.0
        end[2] = 1.0
        start[5] = 1.0
        end[5] = 1.0
        assert _stage1_spans(start, end, theta=0.5, cap=5) == [(1, 2), (5, 5)]

    def test_overlap_resolved_by_score_then_start(self):
        start = np.array([0.9, 0.8, 0.0])
        end = np.array([0.0, 0.9, 0.9])
        # candidates (0,1)=.81, (1,1)=.72, (0,2)=.81(tie, earlier), (1,2)=.72...
        spans = _stage1_spans(start, end, theta=0.5, cap=4)
        assert spans == [(0, 1)]

    def test_span_cap(self):
        start = np.zeros(20)
        end = np.zeros(20)
        start[0] = 1.0
        end[15] = 1.0
        assert _stage1_spans(start, end, theta=0.5, cap=10) == []

    def test_pointer_decode_constrains_end(self):
        start = np.array([0.1, 0.9, 0.2])
        end = np.array([0.99, 0.1, 0.5])
        assert pointer_decode(start, end) == (1, 3)

    def test_pointer_decode_deterministic(self):
        rng = np.random.default_rng(0)
        s, e = rng.random(10), rng.random(10)
        assert pointer_decode(s, e) == pointer_decode(s, e)


class TestEntityTyperLogic:
    def _oracle_typer(self, labels, gold_label):
        # one-layer model whose [CLS] state is read from `encode`, with a
        # head crafted to fire only on the gold label (on none for None)
        cfg = ModelConfig(vocab_size=40, d_model=8, n_heads=2, n_layers=1, max_seq_len=16)
        params = init_params(cfg, 0)
        from hklm.encoder import encode

        batch = token_batch([[2, 20, 14, 21, 14, 3]], cfg.np_dtype)
        h, _ = encode(params, cfg, batch, [0])
        cls = h[0]
        w = np.zeros((8, len(labels)), dtype=cfg.np_dtype)
        for j, lab in enumerate(labels):
            scale = 10.0 if lab == gold_label else -10.0
            w[:, j] = scale * cls / float(cls @ cls)
        params["head_w"] = w
        params["head_b"] = np.zeros(len(labels), dtype=cfg.np_dtype)
        return EntityTyper(params=params, model_config=cfg, label_set=labels)

    def test_single_label_oracle_accuracy_one(self):
        from hklm.tasks import TaskExample

        typer = self._oracle_typer(["a", "b", "c"], "b")
        ex = TaskExample(example_id="x", variant="et", tokens=[20, 14, 21, 14], labels=["b"])
        out = evaluate_et(typer, [ex])
        assert out["accuracy"] == 1.0 and out["micro_f1"] == 1.0

    def test_unreachable_threshold_empty_predictions(self):
        from hklm.tasks import TaskExample

        typer = self._oracle_typer(["a", "b"], None)
        ex = TaskExample(example_id="x", variant="et", tokens=[20, 14, 21, 14], labels=["b"])
        assert typer.predict([ex]) == [set()]
        out = evaluate_et(typer, [ex])
        assert out["macro_f1"] == 0.0

    def test_missing_ent_pair_rejected(self):
        """The pair is checked when a record is read, not by the adapter."""
        with pytest.raises(TaskError, match="ENT"):
            TaskExample.from_json({"id": "x", "variant": "et", "tokens": [20, 21], "labels": ["a"]})


class TestAdapters:
    def test_ner_finetune_fits_training_entities(self, world):
        corpus, truth, vocab, cfg, params = world
        train, evals = make_ner_data(truth, vocab, 5, n_train=80, n_eval=30, surface="title")
        model = finetune_token_classifier(params, cfg, train, FinetuneConfig(epochs=8, lr=5e-3, seed=1))
        out = evaluate_ner(model, evals)
        assert set(out) == {"precision", "recall", "f1"}
        # a scratch encoder cannot generalize to held-out entities, but the
        # training loop must at least fit the entities it saw
        assert evaluate_ner(model, train[:40])["f1"] > 0.9

    def test_ner_tag_count_mismatch_rejected(self, world):
        """The count is checked when a record is read, for training and
        evaluation files alike, not by the adapter."""
        _, truth, vocab, _, _ = world
        train, _ = make_ner_data(truth, vocab, 5, n_train=4, n_eval=2)
        record = train[1].to_json() | {"tags": train[1].tags[:-1]}
        with pytest.raises(TaskError, match="tags for"):
            TaskExample.from_json(record)

    def test_all_o_predictions_zero_recall(self, world):
        corpus, truth, vocab, cfg, params = world
        _, evals = make_ner_data(truth, vocab, 5, n_train=4, n_eval=20)
        from hklm.finetune import TokenTagger

        p = {k: v.copy() for k, v in params.items()}
        rng = np.random.default_rng(0)
        tagset = ["B-nature", "B-building", "B-route", "I-nature", "I-building", "I-route", "O"]
        p["head_w"] = np.zeros((cfg.d_model, len(tagset)), dtype=cfg.np_dtype)
        p["head_b"] = np.zeros(len(tagset), dtype=cfg.np_dtype)
        p["head_b"][tagset.index("O")] = 10.0
        tagger = TokenTagger(params=p, model_config=cfg, tagset=tagset)
        out = evaluate_ner(tagger, evals)
        assert out["recall"] == 0.0 and out["f1"] == 0.0

    def test_perfect_predictions_give_f1_one(self, world):
        corpus, truth, vocab, cfg, params = world
        _, evals = make_ner_data(truth, vocab, 5, n_train=4, n_eval=10)
        from hklm.metrics import bio_tags_to_spans, compute_task_metrics

        gold = {ex.example_id: bio_tags_to_spans(ex.tags) for ex in evals}
        out = compute_task_metrics("ner", gold, gold)
        assert out == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_oie_two_stage_end_to_end(self, world):
        corpus, truth, vocab, cfg, params = world
        train, evals = make_oie_data(truth, vocab, 5, n_train=60, n_eval=20)
        s1 = finetune_span_stage1(params, cfg, train, FinetuneConfig(epochs=4, lr=3e-3, seed=2))
        s2 = finetune_span_stage2(params, cfg, train, FinetuneConfig(epochs=2, lr=3e-3, seed=2))
        from hklm.finetune import evaluate_oie

        out = evaluate_oie(s1, s2, evals)
        assert set(out) == {"precision", "recall", "f1"}

    def test_oie_stage2_deterministic(self, world):
        corpus, truth, vocab, cfg, params = world
        train, evals = make_oie_data(truth, vocab, 5, n_train=30, n_eval=5)
        s1 = finetune_span_stage1(params, cfg, train, FinetuneConfig(epochs=1, seed=2))
        s2 = finetune_span_stage2(params, cfg, train, FinetuneConfig(epochs=1, seed=2))
        ex = evals[0]
        assert extract_open_triples(s1, s2, [ex.tokens]) == extract_open_triples(s1, s2, [ex.tokens])

    def test_oie_batched_scoring_matches_one_sentence_at_a_time(self, world, monkeypatch):
        """extract_open_triples scores every stage-1 sequence in one
        _head_logits call and every stage-2 sequence in another, and gives
        each sentence the triples it gets when scored alone, one batch-1 call
        per sequence (tests/oracles.py): for trained heads, and for zero
        heads, under which every token is a one-token predicate
        (0.5 * 0.5 = THETA_SPAN) with the first token as subject and object."""
        corpus, truth, vocab, cfg, params = world
        train, evals = make_oie_data(truth, vocab, 5, n_train=30, n_eval=40)
        sentences = [ex.tokens for ex in evals]
        assert len(sentences) > finetune.SCORE_BATCH
        trained = (finetune_span_stage1(params, cfg, train, FinetuneConfig(epochs=4, lr=3e-3, seed=2)),
                   finetune_span_stage2(params, cfg, train, FinetuneConfig(epochs=2, lr=3e-3, seed=2)))
        zero = tuple(finetune.SpanModel(params=dict(m.params, head_w=np.zeros_like(m.params["head_w"]),
                                                    head_b=np.zeros_like(m.params["head_b"])),
                                        model_config=cfg) for m in trained)
        calls = []
        head_logits = finetune._head_logits
        monkeypatch.setattr(finetune, "_head_logits", lambda *a: calls.append(len(a[2])) or head_logits(*a))
        for s1, s2 in (trained, zero):
            calls.clear()
            batched = extract_open_triples(s1, s2, sentences)
            assert calls == [len(sentences), sum(map(len, batched))]
            assert any(batched)
            assert batched == [oracles.extract_open_triples(s1, s2, tokens) for tokens in sentences]
        assert batched == [[{"subj": [0, 1], "pred": [i, i + 1], "obj": [0, 1]} for i in range(len(tokens))]
                           for tokens in sentences]
        assert extract_open_triples(*zero, []) == []

    def test_oie_overlong_sentence_rejected(self):
        # Stage 2 reads [CLS] sentence [SEP] with a [REL] pair: n + 4 tokens.
        cfg = ModelConfig(vocab_size=40, d_model=8, n_heads=2, n_layers=1, max_seq_len=12)
        params = init_params(cfg, 0)

        def span_model(k):
            zeros = dict(head_w=np.zeros((cfg.d_model, k), dtype=cfg.np_dtype),
                         head_b=np.zeros(k, dtype=cfg.np_dtype))
            return finetune.SpanModel(params=dict(params, **zeros), model_config=cfg)

        # A zero stage-1 head scores every span 0.5 * 0.5 = THETA_SPAN, so
        # stage 2 runs on each sentence that passes the guard.
        s1, s2 = span_model(2), span_model(4)
        assert extract_open_triples(s1, s2, [list(range(20, 28))])[0]
        for n in (9, 10, 600):  # 9 and 10 fit with 2 markers, not with 4
            with pytest.raises(FinetuneError, match="max_seq_len"):
                extract_open_triples(s1, s2, [list(range(20, 28)), list(range(20, 20 + n))])
        ex = TaskExample(example_id="x", variant="oie", tokens=list(range(20, 29)),
                         triples=[{"subj": [0, 1], "pred": [1, 2], "obj": [2, 3]}])
        with pytest.raises(FinetuneError, match="max_seq_len"):
            finetune_span_stage2(params, cfg, [ex], FinetuneConfig(epochs=1))
        ex.tokens = ex.tokens[:8]
        finetune_span_stage2(params, cfg, [ex], FinetuneConfig(epochs=1))

    def test_ranker_end_to_end(self, world):
        corpus, truth, vocab, cfg, params = world
        train, evals = make_rank_data(corpus, truth, vocab, 5, n_train=12, n_eval=6, n_candidates=8)
        ranker = finetune_ranker(params, cfg, train, FinetuneConfig(epochs=1, seed=3))
        out = evaluate_rank(ranker, evals)
        assert set(out) == {"map", "mrr@1", "mrr@5", "mrr@10"}
        scores = ranker.score(evals[0].tokens, evals[0].candidates)
        ranking = finetune._ranking(scores)
        assert len(scores) == len(evals[0].candidates)
        assert sorted(ranking, key=lambda i: (-scores[i], i)) == ranking

    def test_ranker_tie_breaks_by_index(self, world):
        _, _, _, cfg, params = world
        p = {k: v.copy() for k, v in params.items()}
        p["head_w"] = np.zeros((cfg.d_model, 2), dtype=cfg.np_dtype)
        p["head_b"] = np.zeros(2, dtype=cfg.np_dtype)
        ranker = Ranker(params=p, model_config=cfg)
        scores = ranker.score([20, 21], [[22], [23], [24]])
        assert scores == [0.5, 0.5, 0.5]
        assert finetune._ranking(scores) == [0, 1, 2]
        assert finetune._ranking([0.2, 0.7, 0.2, 0.7]) == [1, 3, 0, 2]

    def test_ranker_overlong_query_rejected(self):
        # 14 query tokens leave no room for a candidate in 16 positions, in
        # training as in scoring
        cfg = ModelConfig(vocab_size=40, d_model=8, n_heads=2, n_layers=1, max_seq_len=16)
        params = init_params(cfg, 0)
        query = list(range(20, 34))
        ex = TaskExample(example_id="q", variant="rank", tokens=query, candidates=[[34, 35], [36]], gold=0)
        with pytest.raises(FinetuneError, match="makes a 18-token sequence, over max_seq_len 16"):
            finetune_ranker(params, cfg, [ex], FinetuneConfig(epochs=1))
        ranker = Ranker(params=dict(params, head_w=np.zeros((cfg.d_model, 2), dtype=cfg.np_dtype),
                                    head_b=np.zeros(2, dtype=cfg.np_dtype)), model_config=cfg)
        with pytest.raises(FinetuneError, match="makes a 18-token sequence, over max_seq_len 16"):
            ranker.score(query, ex.candidates)

    def test_ranker_empty_candidates_rejected(self, world):
        _, _, _, cfg, params = world
        p = dict(params, head_w=np.zeros((cfg.d_model, 2), dtype=cfg.np_dtype),
                 head_b=np.zeros(2, dtype=cfg.np_dtype))
        ranker = Ranker(params=p, model_config=cfg)
        with pytest.raises(FinetuneError, match="empty"):
            ranker.score([20], [])

    def test_ranker_without_a_negative_pair_rejected(self, world, monkeypatch):
        """Records that each hold only their gold candidate would train the
        relevance head on positive pairs alone; the ranker refuses them
        before it draws its head. One record with a negative is enough."""
        corpus, truth, vocab, cfg, params = world
        train, _ = make_rank_data(corpus, truth, vocab, 5, n_train=6, n_eval=2, n_candidates=4)
        gold_only = [dataclasses.replace(ex, candidates=[ex.candidates[ex.gold]], gold=0) for ex in train]
        real_new_adapter, drawn = finetune._new_adapter, []

        def recording_new_adapter(*args):
            drawn.append(args[3])
            return real_new_adapter(*args)

        monkeypatch.setattr(finetune, "_new_adapter", recording_new_adapter)
        with pytest.raises(FinetuneError, match="no negative pair"):
            finetune_ranker(params, cfg, gold_only, FinetuneConfig(epochs=1, seed=3))
        assert drawn == []
        finetune_ranker(params, cfg, gold_only[:-1] + train[-1:], FinetuneConfig(epochs=1, seed=3))
        assert drawn == ["rank-head"]

    def test_entity_typing_without_a_label_rejected(self, world, monkeypatch):
        """With no label in the training set the head would be zero columns
        wide, every step's loss NaN and the accuracy 0.0; the adapter
        refuses the set before it draws the head."""
        _, truth, vocab, cfg, params = world
        train, _ = make_et_data(truth, vocab, 5, n_train=8, n_eval=2)
        unlabeled = [dataclasses.replace(ex, labels=[]) for ex in train]
        drawn = []
        monkeypatch.setattr(finetune, "_new_adapter", lambda *args: drawn.append(args))
        with pytest.raises(FinetuneError, match="no record has a label"):
            finetune_entity_typing(params, cfg, unlabeled, FinetuneConfig(epochs=1, seed=3))
        assert drawn == []

    def test_dialog_metrics_shape(self, world):
        corpus, truth, vocab, cfg, params = world
        train, evals = make_rank_data(corpus, truth, vocab, 5, n_train=6, n_eval=4, n_candidates=6, dialog=True)
        ranker = finetune_ranker(params, cfg, train, FinetuneConfig(epochs=1, seed=3))
        out = evaluate_rank(ranker, evals, dialog=True)
        assert set(out) == {"hits@1", "hits@3", "distinct-1", "distinct-2", "distinct-3", "distinct-4"}


# A record of each variant that gives its adapter nothing to learn.
NOTHING_TO_LEARN = {
    "ner": lambda ex: dataclasses.replace(ex, tags=["O"] * len(ex.tags)),
    "et": lambda ex: dataclasses.replace(ex, labels=[]),
    "oie": lambda ex: dataclasses.replace(ex, triples=[]),
    "rank": lambda ex: dataclasses.replace(ex, candidates=[ex.candidates[ex.gold]], gold=0),
}


def small_training_set(world, variant):
    corpus, truth, vocab, _, _ = world
    return {
        "ner": lambda: make_ner_data(truth, vocab, 5, n_train=6, n_eval=2),
        "et": lambda: make_et_data(truth, vocab, 5, n_train=6, n_eval=2),
        "oie": lambda: make_oie_data(truth, vocab, 5, n_train=6, n_eval=2),
        "rank": lambda: make_rank_data(corpus, truth, vocab, 5, n_train=4, n_eval=2, n_candidates=4),
    }[variant]()[0]


@pytest.mark.parametrize("case", ["empty", "other-variant", "out-of-vocabulary", "overlong", "nothing-to-learn"])
@pytest.mark.parametrize("adapt, variant", [
    (finetune_token_classifier, "ner"), (finetune_entity_typing, "et"), (finetune_span_stage1, "oie"),
    (finetune_span_stage2, "oie"), (finetune_ranker, "rank"),
], ids=["ner", "et", "oie1", "oie2", "rank"])
def test_training_set_rejected_before_the_head_is_drawn(world, monkeypatch, adapt, variant, case):
    """Every training function checks its set as `hklm finetune` checks its
    files: an empty set, another variant's records, a token id (of the
    tokens, or of a ranking candidate) outside the vocabulary, a record too
    long once the adapter's markers are added, and a set in which no record
    teaches anything raise FinetuneError before the head is drawn."""
    _, _, _, cfg, params = world
    train = small_training_set(world, variant)
    first = train[0]
    if variant == "rank":
        oov = dataclasses.replace(first, candidates=first.candidates[:-1] + [[cfg.vocab_size]])
    else:
        oov = dataclasses.replace(first, tokens=first.tokens[:-1] + [cfg.vocab_size])
    other = small_training_set(world, "et" if variant == "ner" else "ner")
    short = dataclasses.replace(cfg, max_seq_len=max(len(ex.tokens) for ex in train)
                                + finetune.FRAME_TOKENS[variant] - 1)
    records, model_cfg, message = {
        "empty": ([], cfg, "no examples"),
        "other-variant": (other, cfg, f"has variant {other[0].variant!r}, not {variant!r}"),
        "out-of-vocabulary": ([oov] + train[1:], cfg,
                              f"record {first.example_id!r} has token id {cfg.vocab_size}, outside"),
        "overlong": (train, short, f"over max_seq_len {short.max_seq_len}"),
        "nothing-to-learn": ([NOTHING_TO_LEARN[variant](ex) for ex in train], cfg, "nothing to learn"),
    }[case]
    real_new_adapter, drawn = finetune._new_adapter, []

    def recording_new_adapter(*args):
        drawn.append(args[3])
        return real_new_adapter(*args)

    monkeypatch.setattr(finetune, "_new_adapter", recording_new_adapter)
    with pytest.raises(FinetuneError, match=re.escape(message)):
        adapt(params, model_cfg, records, FinetuneConfig(epochs=1, seed=3))
    assert drawn == []


@pytest.mark.parametrize("variant", ["ner", "et", "oie", "rank"])
def test_eval_set_with_nothing_to_score_rejected_before_scoring(world, variant):
    """An evaluation set with no span, label or triple would score 0.0, and
    one with no candidate besides the gold one a perfect ranking. Each
    evaluate function refuses it before it scores: the models here hold no
    weights, so a scoring pass would fail otherwise."""
    _, _, _, cfg, _ = world
    evals = [NOTHING_TO_LEARN[variant](ex) for ex in small_training_set(world, variant)]
    evaluate = {
        "ner": lambda: evaluate_ner(finetune.TokenTagger({}, cfg, ["O"]), evals),
        "et": lambda: evaluate_et(EntityTyper({}, cfg, []), evals),
        "oie": lambda: finetune.evaluate_oie(finetune.SpanModel({}, cfg), finetune.SpanModel({}, cfg), evals),
        "rank": lambda: evaluate_rank(Ranker({}, cfg), evals),
    }[variant]
    with pytest.raises(FinetuneError, match="so the adapter has nothing to learn or score"):
        evaluate()


def test_adapters_hold_no_pretraining_heads(world):
    corpus, truth, vocab, cfg, params = world
    ner, _ = make_ner_data(truth, vocab, 5, n_train=8, n_eval=2)
    et, _ = make_et_data(truth, vocab, 5, n_train=8, n_eval=2)
    oie, _ = make_oie_data(truth, vocab, 5, n_train=8, n_eval=2)
    rank, _ = make_rank_data(corpus, truth, vocab, 5, n_train=4, n_eval=2, n_candidates=4)
    ft = FinetuneConfig(epochs=1, seed=4)
    models = [
        finetune_token_classifier(params, cfg, ner, ft),
        finetune_entity_typing(params, cfg, et, ft),
        finetune_span_stage1(params, cfg, oie, ft),
        finetune_span_stage2(params, cfg, oie, ft),
        finetune_ranker(params, cfg, rank, ft),
    ]
    for model in models:
        assert list(model.params) == encoder_param_names(cfg) + ["head_w", "head_b"]


def full_row_encode(params, cfg, batch, rows, want_cache=False):
    """`encode` through the full-row oracle: the last block at every token,
    its hidden states gathered at `rows`."""
    hidden, cache = oracles.encode(params, cfg, batch, want_cache)
    if cache is not None:
        cache["gathered"] = rows
    return hidden.reshape(-1, cfg.d_model)[rows], cache


def full_row_backward(params, cfg, cache, d_hidden):
    """`encoder_backward` through the full-row oracle, d_hidden scattered to
    the rows `full_row_encode` gathered."""
    b, l = cache["b"], cache["l"]
    full = np.zeros((b * l, cfg.d_model), dtype=d_hidden.dtype)
    full[cache["gathered"]] = d_hidden
    return oracles.encoder_backward(params, cfg, cache, full.reshape(b, l, cfg.d_model))


TRAIN_LOOP = finetune._train_loop


def first_step(monkeypatch, adapt, params, cfg, train):
    """The adapter's loss and gradients on a batch of its first training
    items, and the adapter with its initial head: the training loop runs that
    one step, and the step's AdamW update only records the gradients."""
    out = {}

    def one_step(params, model_cfg, items, ft_cfg, rows_of, loss_grad):
        def recorded(logits, targets, batch):
            out["loss"], d_logits = loss_grad(logits, targets, batch)
            return out["loss"], d_logits

        one_epoch = dataclasses.replace(ft_cfg, epochs=1)
        TRAIN_LOOP(params, model_cfg, items[: ft_cfg.batch_size], one_epoch, rows_of, recorded)

    monkeypatch.setattr(finetune, "_train_loop", one_step)
    monkeypatch.setattr(finetune, "adamw_step", lambda params, grads, state, opt_cfg: out.update(grads=grads))
    model = adapt(params, cfg, train, FinetuneConfig(epochs=1, seed=3))
    return (out["loss"], out["grads"]), model


def first_steps_and_predictions(monkeypatch, params, cfg, data):
    """Each adapter's first-step loss and gradients, and its initial head's
    predictions on the eval sets: NER tags, entity types, open-IE triples
    (both stages) and ranking scores."""
    steps, models = {}, {}
    for name, adapt in (("ner", finetune_token_classifier), ("et", finetune_entity_typing),
                        ("oie1", finetune_span_stage1), ("oie2", finetune_span_stage2),
                        ("rank", finetune_ranker)):
        steps[name], models[name] = first_step(monkeypatch, adapt, params, cfg, data[name.rstrip("12")][0])
    predictions = {
        "ner": models["ner"].predict(data["ner"][1]),
        "et": models["et"].predict(data["et"][1]),
        "oie": extract_open_triples(models["oie1"], models["oie2"], [ex.tokens for ex in data["oie"][1]]),
        "rank": [models["rank"].score(ex.tokens, ex.candidates) for ex in data["rank"][1]],
    }
    return steps, predictions


@pytest.mark.parametrize("dtype,rtol", [("float64", 1e-10), ("float32", 1e-5)])
def test_row_steps_match_full_rows(world, monkeypatch, dtype, rtol):
    """Every adapter runs the last block only at the rows its head reads; its
    first fine-tuning step (loss and gradients) and its predictions match the
    full-row encoder's, whose last block runs at every token."""
    corpus, truth, vocab, cfg, _ = world
    cfg = dataclasses.replace(cfg, n_layers=2, dtype=dtype)
    rng = np.random.default_rng(2)
    params = {k: (v + rng.normal(0.0, 0.05, v.shape)).astype(cfg.np_dtype)
              for k, v in init_params(cfg, 1).items()}
    data = {
        "ner": make_ner_data(truth, vocab, 5, n_train=24, n_eval=12),
        "et": make_et_data(truth, vocab, 5, n_train=24, n_eval=12),
        "oie": make_oie_data(truth, vocab, 5, n_train=12, n_eval=6),
        "rank": make_rank_data(corpus, truth, vocab, 5, n_train=8, n_eval=3, n_candidates=6),
    }
    steps, predictions = first_steps_and_predictions(monkeypatch, params, cfg, data)
    with monkeypatch.context() as m:
        m.setattr(finetune, "encode", full_row_encode)
        m.setattr(finetune, "encoder_backward", full_row_backward)
        want_steps, want_predictions = first_steps_and_predictions(m, params, cfg, data)
    for name, (loss, grads) in steps.items():
        want_loss, want_grads = want_steps[name]
        assert loss == pytest.approx(want_loss, rel=rtol, abs=0), name
        assert_grads_close(grads, want_grads, rtol)
    for task in ("ner", "et", "oie"):
        assert predictions[task] == want_predictions[task], task
    assert any(predictions["oie"])  # stage 2 decoded some predicate
    for got, want in zip(predictions["rank"], want_predictions["rank"]):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


@pytest.mark.parametrize("adapt", [finetune_token_classifier, finetune_entity_typing, finetune_span_stage1,
                                   finetune_span_stage2, finetune_ranker], ids=lambda f: f.__name__)
def test_step_gradients_match_finite_differences(world, monkeypatch, adapt):
    """A fine-tuning step's head and encoder gradients, in float64, match
    central differences of the step's loss."""
    corpus, truth, vocab, cfg, _ = world
    cfg = dataclasses.replace(cfg, dtype="float64")
    params = init_params(cfg, 1)
    train = {
        finetune_token_classifier: lambda: make_ner_data(truth, vocab, 5, n_train=8, n_eval=2),
        finetune_entity_typing: lambda: make_et_data(truth, vocab, 5, n_train=8, n_eval=2),
        finetune_span_stage1: lambda: make_oie_data(truth, vocab, 5, n_train=8, n_eval=2),
        finetune_span_stage2: lambda: make_oie_data(truth, vocab, 5, n_train=4, n_eval=2),
        finetune_ranker: lambda: make_rank_data(corpus, truth, vocab, 5, n_train=3, n_eval=2, n_candidates=4),
    }[adapt]()[0]
    (_, grads), model = first_step(monkeypatch, adapt, params, cfg, train)
    new_adapter = finetune._new_adapter

    def loss_at(adapter_params):
        def with_params(*args):  # the adapter's own RNG stream, these tensors
            _fresh, rng = new_adapter(*args)
            return {k: v.copy() for k, v in adapter_params.items()}, rng

        monkeypatch.setattr(finetune, "_new_adapter", with_params)
        (loss, _), _ = first_step(monkeypatch, adapt, params, cfg, train)
        return loss

    probe = {"head_w": [(0, 0), (3, 1)], "head_b": [(0,), (1,)], "tok_emb": [(2, 0), (2, 5)],
             "layers.0.ffn_w1": [(1, 2)], "emb_ln_g": [(4,)]}
    eps = 1e-6
    for name, entries in probe.items():
        for i in entries:
            p = {k: v.copy() for k, v in model.params.items()}
            p[name][i] += eps
            up = loss_at(p)
            p[name][i] -= 2 * eps
            down = loss_at(p)
            assert grads[name][i] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-8), (name, i)


def numeric_grad(loss, x, eps=1e-6):
    """Central differences of the scalar loss(x) at every entry of x."""
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + eps
        up = loss(x)
        x[i] = orig - eps
        down = loss(x)
        x[i] = orig
        grad[i] = (up - down) / (2 * eps)
    return grad


def span_indicators(n, starts, ends):
    y = np.zeros((n, 2))
    y[starts, 0] = 1.0
    y[ends, 1] = 1.0
    return y


# Each adapter's row function and loss on random float64 logits at those rows,
# for a batch of three sequences of 6, 4 and 7 rows ([CLS], tokens, [SEP]),
# padded to 7.
LENGTHS = [6, 4, 7]
INNER = [7 * k + i for k, n in enumerate(LENGTHS) for i in range(1, n - 1)]
LOSS_CASES = {
    "ner": (finetune._tag_loss, finetune._token_rows, INNER, 5,
            [[0, 3, 4, 4], [1, 2], [4, 0, 0, 2, 3]]),
    "et": (finetune._label_loss, finetune._cls_rows, [0, 7, 14], 4, [[0, 2], [1], []]),
    "oie1": (finetune._span_loss, finetune._token_rows, INNER, 2,
             [span_indicators(4, [0, 2], [1, 3]), span_indicators(2, [0], [1]),
              span_indicators(5, [1, 0], [4, 0])]),
    "oie2": (finetune._pointer_loss, finetune._real_rows,
             [7 * k + i for k, n in enumerate(LENGTHS) for i in range(n)], 4,
             [[1, 3, 4, 5], [0, 2, 2, 3], [6, 6, 1, 4]]),
    "rank": (finetune._rank_loss, finetune._cls_rows, [0, 7, 14], 2, [1, 0, 0]),
}


@pytest.mark.parametrize("case", sorted(LOSS_CASES))
def test_loss_grad_matches_finite_differences(case):
    """Each adapter's row function names the rows its loss reads (the NER
    tags, stage 1's tokens, stage 2's real tokens, [CLS]), and its `loss_grad`
    on (R, k) logits at those rows returns the gradient of its own loss, with
    some gradient at every row."""
    loss_grad, rows_of, want_rows, n_out, targets = LOSS_CASES[case]
    rng = np.random.default_rng(11)
    batch = token_batch([[2] * n for n in LENGTHS], np.float64)
    assert rows_of(batch).tolist() == want_rows
    logits = rng.normal(0.0, 2.0, size=(len(want_rows), n_out))
    loss, d_logits = loss_grad(logits.copy(), targets, batch)
    assert d_logits.shape == logits.shape and d_logits.dtype == np.float64
    assert loss == loss_grad(logits.copy(), targets, batch)[0] > 0
    want = numeric_grad(lambda x: loss_grad(x, targets, batch)[0], logits.copy())
    np.testing.assert_allclose(d_logits, want, rtol=1e-6, atol=1e-9)
    assert np.all(np.abs(d_logits).sum(axis=-1) > 0)


@pytest.fixture(scope="module")
def trained_tasks(world):
    """Each task's one-epoch adapters and an eval set of more than one batch
    (QA and dialogue: one batch per query)."""
    corpus, truth, vocab, cfg, params = world
    data = {
        "ner": make_ner_data(truth, vocab, 5, n_train=8, n_eval=40),
        "et": make_et_data(truth, vocab, 5, n_train=8, n_eval=40),
        "oie": make_oie_data(truth, vocab, 5, n_train=8, n_eval=40),
        "qa": make_rank_data(corpus, truth, vocab, 5, n_train=4, n_eval=5, n_candidates=8),
        "dialog": make_rank_data(corpus, truth, vocab, 5, n_train=4, n_eval=5, n_candidates=8, dialog=True),
    }
    ft = FinetuneConfig(epochs=1, seed=5)
    return {task: ([adapt(params, cfg, data[task][0], ft) for adapt in spec.train], data[task][1])
            for task, spec in finetune.TASKS.items()}


@pytest.fixture()
def random_ranker(world):
    _, _, _, cfg, params = world
    rng = np.random.default_rng(8)
    head = {"head_w": rng.normal(0.0, 1.0, (cfg.d_model, 2)).astype(cfg.np_dtype),
            "head_b": np.zeros(2, dtype=cfg.np_dtype)}
    return Ranker(params=params | head, model_config=cfg)


def random_candidates(cfg, n, seed):
    """`n` distinct candidates of 1 to 8 tokens."""
    rng = np.random.default_rng(seed)
    cands = {}
    while len(cands) < n:
        cand = rng.integers(20, cfg.vocab_size, size=rng.integers(1, 9)).tolist()
        cands[tuple(cand)] = cand
    return list(cands.values())


@pytest.mark.parametrize("task", sorted(finetune.TASKS))
def test_thread_pool_scores_as_one_worker(trained_tasks, cores, monkeypatch, task):
    """Every task's metrics, and the bytes of every batch's logits, are the
    same on two scoring threads as on one; with two, no batch is encoded on
    the calling thread, and no thread outlives the call."""
    models, evals = trained_tasks[task]
    score_batches, encode, logits, threads = finetune._score_batches, finetune.encode, [], set()

    def recorded_score_batches(*args):
        out = score_batches(*args)
        logits.extend(a.tobytes() for a in out)
        return out

    def recorded_encode(*args, **kwargs):
        threads.add(threading.get_ident())
        return encode(*args, **kwargs)

    monkeypatch.setattr(finetune, "_score_batches", recorded_score_batches)
    monkeypatch.setattr(finetune, "encode", recorded_encode)
    runs, before = [], threading.active_count()
    for n in (1, 2):
        cores(n)
        logits.clear()
        threads.clear()
        runs.append((finetune.TASKS[task].evaluate(*models, evals), list(logits)))
        assert (threading.get_ident() in threads) == (n == 1)
        assert threading.active_count() == before
    assert len(runs[0][1]) > 1
    assert runs[0] == runs[1]


@pytest.mark.parametrize("task", sorted(finetune.TASKS))
def test_two_cores_train_the_bytes_of_one(world, cores, monkeypatch, task):
    """Every adapter of every task trains the same tensors, bit for bit, on
    the process's own cores, on one and on two forced ones, and on two with
    every backward job held until the input-gradient chain has finished; and
    each leaves the thread count and the calling thread's cores as it found
    them."""
    corpus, truth, vocab, cfg, params = world
    train = {
        "ner": lambda: make_ner_data(truth, vocab, 5, n_train=8, n_eval=2),
        "et": lambda: make_et_data(truth, vocab, 5, n_train=8, n_eval=2),
        "oie": lambda: make_oie_data(truth, vocab, 5, n_train=8, n_eval=2),
        "qa": lambda: make_rank_data(corpus, truth, vocab, 5, n_train=4, n_eval=2, n_candidates=8),
        "dialog": lambda: make_rank_data(corpus, truth, vocab, 5, n_train=4, n_eval=2, n_candidates=8,
                                         dialog=True),
    }[task]()[0]
    ft = FinetuneConfig(epochs=1, batch_size=4, seed=5)
    mask, before = os.sched_getaffinity(0), threading.active_count()
    runs = []
    for n, held in ((None, False), (1, False), (2, False), (2, True)):
        if n is not None:
            cores(n)
        if held:
            threads = hold_jobs(monkeypatch)
        for adapt in finetune.TASKS[task].train:
            runs.append(adapt(params, cfg, train, ft).params)
            assert threading.active_count() == before
            assert os.sched_getaffinity(0) == mask
    assert threads and threading.get_ident() not in threads
    n_adapters = len(finetune.TASKS[task].train)
    for k, got in enumerate(runs):
        want = runs[k % n_adapters]
        assert list(got) == list(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_ranking_keeps_candidate_order_across_batches(random_ranker, cores):
    """A query of more than SCORE_BATCH candidates is scored in batches of
    SCORE_BATCH, in candidate order, on two threads as on one: its scores
    are each batch's scores alone, joined in order, and several queries
    scored in one call get the scores each gets alone."""
    cfg = random_ranker.model_config
    queries = [([20, 21], random_candidates(cfg, 2 * finetune.SCORE_BATCH + 7, 1)),
               ([22], random_candidates(cfg, finetune.SCORE_BATCH + 1, 2)),
               ([23, 24, 25], random_candidates(cfg, 3, 3))]
    cores(1)
    alone = [random_ranker.score(q, cands) for q, cands in queries]
    query, cands = queries[0]
    assert alone[0] == [score for start in range(0, len(cands), finetune.SCORE_BATCH)
                        for score in random_ranker.score(query, cands[start : start + finetune.SCORE_BATCH])]
    assert len(set(alone[0])) == len(cands)
    cores(2)
    assert [random_ranker.score(q, cands) for q, cands in queries] == alone
    assert random_ranker.score_queries(queries) == alone


def test_worker_error_reaches_the_caller(random_ranker, cores, monkeypatch):
    """An encoder error on a worker thread is raised to the caller as the
    same exception, and no scoring thread outlives the call."""
    cfg = random_ranker.model_config
    cands = random_candidates(cfg, 2 * finetune.SCORE_BATCH + 5, 4)
    cores(2)
    before = threading.active_count()
    with pytest.raises(ModelError, match="outside the model vocabulary"):
        random_ranker.score([20], cands[:-1] + [[cfg.vocab_size]])
    assert threading.active_count() == before
    error, encode = ModelError("worker failed"), finetune.encode

    def failing_encode(params, model_cfg, batch, rows, want_cache=False):
        if batch.size < finetune.SCORE_BATCH:
            raise error
        return encode(params, model_cfg, batch, rows, want_cache)

    monkeypatch.setattr(finetune, "encode", failing_encode)
    with pytest.raises(ModelError) as raised:
        random_ranker.score([20], cands)
    assert raised.value is error
    assert threading.active_count() == before
