import dataclasses
import json
import re

import numpy as np
import pytest

from hklm.corpus import (
    ENT_ID,
    SEP_ID,
    UNK_ID,
    Corpus,
    Document,
    Section,
    build_vocab,
    entity_split,
    generate_synthetic_corpus,
    write_jsonl,
)
from hklm.encoder import ModelConfig
from hklm.finetune import FinetuneError, check_records
from hklm.metrics import bio_tags_to_spans, is_valid_bio
from hklm.tasks import (
    _EVAL_FRACTION,
    RankPool,
    TaskError,
    TaskExample,
    _entity_sentences,
    make_et_data,
    make_ner_data,
    make_oie_data,
    make_rank_data,
    make_task_sets,
    read_task_data,
)
import oracles


@pytest.fixture(scope="module")
def world():
    corpus, truth = generate_synthetic_corpus(21, 24)
    vocab = build_vocab(corpus, 1)
    return corpus, truth, vocab


class TestSplits:
    def test_disjoint_and_seeded(self, world):
        _, truth, _ = world
        tr1, ev1 = entity_split(truth, _EVAL_FRACTION, 9, "task-split")
        tr2, ev2 = entity_split(truth, _EVAL_FRACTION, 9, "task-split")
        assert [t["entity_id"] for t in tr1] == [t["entity_id"] for t in tr2]
        ids_tr = {t["entity_id"] for t in tr1}
        ids_ev = {t["entity_id"] for t in ev1}
        assert not ids_tr & ids_ev
        assert len(ids_tr) + len(ids_ev) == len(truth)


class TestNer:
    def test_valid_bio_and_known_vocab(self, world):
        _, truth, vocab = world
        train, evals = make_ner_data(truth, vocab, 3, n_train=60, n_eval=30)
        assert len(train) == 60 and len(evals) == 30
        n_spans = 0
        for ex in train + evals:
            assert is_valid_bio(ex.tags)
            assert len(ex.tags) == len(ex.tokens)
            assert UNK_ID not in ex.tokens  # templates stay inside the corpus vocabulary
            spans = bio_tags_to_spans(ex.tags)
            assert len(spans) <= 1
            n_spans += len(spans)
        # distractor sentences carry no span; most sentences carry one
        assert 0 < n_spans < len(train) + len(evals)

    def test_alias_surface_uses_alias_tokens_only(self, world):
        _, truth, vocab = world
        alias_ids = {
            vocab.token_to_id[tok] for rec in truth for tok in rec["alias"] if tok in vocab.token_to_id
        }
        train, evals = make_ner_data(
            truth, vocab, 3, n_train=40, n_eval=20, surface="alias", distractor_fraction=0.0
        )
        for ex in train + evals:
            (s, e, typ) = bio_tags_to_spans(ex.tags)[0]
            assert set(ex.tokens[s:e]) <= alias_ids
            assert typ in ("nature", "building", "route")

    def test_entity_split_respected(self, world):
        _, truth, vocab = world
        tr_recs, ev_recs = entity_split(truth, _EVAL_FRACTION, 3, "task-split")
        tr_names = {vocab.token_to_id[r["name"]] for r in tr_recs}
        ev_names = {vocab.token_to_id[r["name"]] for r in ev_recs}
        train, evals = make_ner_data(
            truth, vocab, 3, n_train=60, n_eval=30, surface="title", distractor_fraction=0.0
        )
        for ex in train:
            (s, e, _), = bio_tags_to_spans(ex.tags)
            assert ex.tokens[s] in tr_names
        for ex in evals:
            (s, e, _), = bio_tags_to_spans(ex.tags)
            assert ex.tokens[s] in ev_names

    def test_distractor_spans_use_content_words(self, world):
        _, truth, vocab = world
        train, _ = make_ner_data(truth, vocab, 3, n_train=80, n_eval=5, distractor_fraction=1.0)
        for ex in train:
            assert bio_tags_to_spans(ex.tags) == []

    def test_unknown_surface_rejected(self, world):
        _, truth, vocab = world
        with pytest.raises(TaskError):
            make_ner_data(truth, vocab, 3, surface="zzz")


class TestEt:
    def test_ent_markers_and_labels(self, world):
        _, truth, vocab = world
        train, evals = make_et_data(truth, vocab, 3, n_train=40, n_eval=20)
        # The ids of each entity's name and kind -> the type paths of the
        # entities that have them.
        type_paths = {}
        for r in truth:
            type_paths.setdefault(tuple(vocab.encode_tokens([r["name"], r["kind"]])), []).append(r["type_path"])
        for ex in train + evals:
            assert ex.tokens.count(ENT_ID) == 2
            s, e = [i for i, t in enumerate(ex.tokens) if t == ENT_ID]
            assert e - s == 3  # the pair surrounds the name and kind tokens
            assert list(ex.labels) in type_paths[tuple(ex.tokens[s + 1 : e])]
            assert len(ex.labels) == 2
            assert ex.labels[0].count("/") == 1 and ex.labels[1].count("/") == 2
            assert ex.labels[1].startswith(ex.labels[0])


class TestOie:
    def test_spans_point_at_expected_tokens(self, world):
        _, truth, vocab = world
        from hklm.corpus import RELATION_VERBS

        verb_ids = {vocab.token_to_id[v] for v in RELATION_VERBS}
        train, evals = make_oie_data(truth, vocab, 3, n_train=50, n_eval=25)
        n_two = 0
        for ex in train + evals:
            assert 1 <= len(ex.triples) <= 2
            n_two += len(ex.triples) == 2
            for tr in ex.triples:
                ps, pe = tr["pred"]
                assert pe - ps == 1
                assert ex.tokens[ps] in verb_ids
                ss, se = tr["subj"]
                os_, oe = tr["obj"]
                assert 0 <= ss < se <= len(ex.tokens)
                assert 0 <= os_ < oe <= len(ex.tokens)
        assert n_two > 0

    def test_two_clause_shares_subject(self, world):
        _, truth, vocab = world
        train, _ = make_oie_data(truth, vocab, 3, n_train=80, n_eval=10)
        for ex in train:
            if len(ex.triples) == 2:
                assert ex.triples[0]["subj"] == ex.triples[1]["subj"]


class TestRank:
    def test_gold_index_and_counts(self, world):
        corpus, truth, vocab = world
        train, evals = make_rank_data(corpus, truth, vocab, 3, n_train=10, n_eval=5, n_candidates=12)
        for ex in train + evals:
            assert len(ex.candidates) == 12
            assert 0 <= ex.gold < 12
            assert all(c for c in ex.candidates)

    def test_dialog_mode_has_turn_separator(self, world):
        corpus, truth, vocab = world
        train, _ = make_rank_data(corpus, truth, vocab, 3, n_train=5, n_eval=2, dialog=True)
        for ex in train:
            assert SEP_ID in ex.tokens

    def test_gold_is_entity_sentence(self, world):
        corpus, truth, vocab = world
        train, _ = make_rank_data(corpus, truth, vocab, 3, n_train=10, n_eval=2, n_candidates=8)
        all_para_ids = set()
        for doc in corpus:
            for sec in doc.sections:
                for p in sec.paragraphs:
                    all_para_ids.add(tuple(vocab.encode(p)[:24]))
        for ex in train:
            assert tuple(ex.candidates[ex.gold]) in all_para_ids

    def test_sentences_match_whole_paragraph_tokenization(self, world):
        corpus, _, _ = world
        paragraphs = [
            # chunks of several tokens each: punctuation peels, CJK runs
            " ".join(["(a,", "b.c)", "——", "\u4e2d\u6587x", "«q»"] * 8),
            "\tLead  ...  spaces\n\u3000and \u00a0 unicode\u2003whitespace " * 6,
            " ".join(f"w{i}" for i in range(30)),  # more chunks than max_len
            "short one",
            " ".join("\u4e00\u4e01\u4e02" for _ in range(10)),  # 3 tokens a chunk
        ]
        crafted = Corpus(documents=[
            Document("E1", "e1", [Section("Overview", 1, paragraphs)], []),
            Document("E2", "e2", [Section("Edge", 1, ["", "  ", ". , ;"])], []),
        ])
        for c in (corpus, crafted):
            vocab = build_vocab(c)
            want = {eid: [(heading, vocab.encode_tokens(toks)) for heading, toks in sents]
                    for eid, sents in oracles.entity_sentences(c).items()}
            assert _entity_sentences(c, vocab) == want
        assert [len(ids) for _, ids in _entity_sentences(crafted, vocab)["E1"]] == [24, 24, 24, 2, 24]

    @pytest.mark.parametrize("dialog", [False, True])
    @pytest.mark.parametrize("n_candidates", [1, 12, 60, 1000])
    def test_matches_full_ranking(self, world, dialog, n_candidates):
        # 60 candidates outnumber the positive scorers of some queries and
        # 1000 the whole universe, so zero scorers fill the tail in order
        corpus, truth, vocab = world
        kwargs = dict(n_train=15, n_eval=8, n_candidates=n_candidates, dialog=dialog)
        got = make_rank_data(corpus, truth, vocab, 5, **kwargs)
        want = oracles.make_rank_data(corpus, truth, vocab, 5, **kwargs)
        assert [[ex.to_json() for ex in part] for part in got] == [
            [ex.to_json() for ex in part] for part in want
        ]

    def test_shared_pool_gives_the_same_sets(self, world):
        corpus, truth, vocab = world
        pool = RankPool(corpus, vocab)
        for dialog in (False, True):
            kwargs = dict(n_train=6, n_eval=3, n_candidates=8, dialog=dialog)
            assert (make_rank_data(pool, truth, vocab, 5, **kwargs)
                    == make_rank_data(corpus, truth, vocab, 5, **kwargs))


class TestIO:
    def test_roundtrip(self, world, tmp_path):
        corpus, truth, vocab = world
        train, _ = make_ner_data(truth, vocab, 3, n_train=20, n_eval=5)
        path = tmp_path / "ner.jsonl"
        write_jsonl(path, (ex.to_json() for ex in train))
        back = read_task_data(path)
        assert back == train

    def test_et_record_mention_key_ignored(self):
        """Entity-typing records carry no `mention`; an older record that has
        one still loads, without it."""
        record = {"id": "x", "variant": "et", "tokens": [20, ENT_ID, 21, ENT_ID], "labels": ["a"]}
        ex = TaskExample.from_json(record | {"mention": [1, 4]})
        assert ex.to_json() == record

    def test_et_without_pair_rejected(self):
        with pytest.raises(TaskError, match="ENT"):
            TaskExample.from_json({"id": "x", "variant": "et", "tokens": [ENT_ID, 20]})

    @pytest.mark.parametrize("tag", ["building", "B-", "I-", "b-x", "", "OO"])
    def test_ner_tag_outside_bio_rejected_naming_record_and_tag(self, tag):
        record = {"id": "r7", "variant": "ner", "tokens": [20, 21], "tags": ["O", tag]}
        with pytest.raises(TaskError, match=f"record r7: tag {re.escape(json.dumps(tag))} is not O"):
            TaskExample.from_json(record)

    @pytest.mark.parametrize("bad_id", [[1], 7, None, True])
    def test_id_not_a_string_rejected_naming_the_line(self, tmp_path, bad_id):
        path = tmp_path / "ner.jsonl"
        write_jsonl(path, [{"id": "a", "variant": "ner", "tokens": [20], "tags": ["O"]},
                           {"id": bad_id, "variant": "ner", "tokens": [20], "tags": ["O"]}])
        with pytest.raises(TaskError, match=f"line 2: task record id {re.escape(json.dumps(bad_id))}"
                                            " is not a string"):
            read_task_data(path)

    def test_repeated_id_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "ner.jsonl"
        write_jsonl(path, [{"id": id_, "variant": "ner", "tokens": [20], "tags": ["O"]} for id_ in "aba"])
        with pytest.raises(TaskError, match="line 3: duplicate id 'a' \\(first seen on line 1\\)"):
            read_task_data(path)

    def test_generated_oie_and_rank_records_read_back(self, world, tmp_path):
        corpus, truth, vocab = world
        oie, _ = make_oie_data(truth, vocab, 3, n_train=20, n_eval=5)
        rank, _ = make_rank_data(corpus, truth, vocab, 3, n_train=6, n_eval=2, n_candidates=5)
        for name, records in (("oie", oie), ("rank", rank)):
            write_jsonl(tmp_path / name, (ex.to_json() for ex in records))
            assert read_task_data(tmp_path / name) == records

    @pytest.mark.parametrize("gold, ok", [(0, True), (2, True), (3, False), (-1, False), (99, False),
                                          ("0", False), (1.0, False), (True, False), (False, False)])
    def test_rank_gold_must_index_a_candidate(self, gold, ok):
        record = {"id": "x", "variant": "rank", "tokens": [20], "candidates": [[21], [22], [23]], "gold": gold}
        if ok:
            assert TaskExample.from_json(record).gold == gold
        else:
            with pytest.raises(TaskError, match="gold"):
                TaskExample.from_json(record)

    @pytest.mark.parametrize("span, ok", [([0, 4], True), ([3, 4], True), ([0, 1], True), ([2, 2], False),
                                          ([3, 2], False), ([-1, 1], False), ([0, 5], False), ([0, 99], False),
                                          ([1], False), ([0, 1, 2], False), ([0.0, 1], False), ("01", False),
                                          (None, False), ([False, True], False), ([0, True], False)])
    @pytest.mark.parametrize("role", ["subj", "pred", "obj"])
    def test_oie_spans_must_lie_in_the_tokens(self, role, span, ok):
        triple = {"subj": [0, 1], "pred": [1, 2], "obj": [2, 4]} | {role: span}
        record = {"id": "x", "variant": "oie", "tokens": [20, 21, 22, 23], "triples": [triple]}
        if ok:
            assert TaskExample.from_json(record).triples == [triple]
        else:
            with pytest.raises(TaskError, match=role):
                TaskExample.from_json(record)

    def test_oie_triple_must_be_an_object(self):
        with pytest.raises(TaskError, match="subj"):
            TaskExample.from_json({"id": "x", "variant": "oie", "tokens": [20], "triples": [[0, 1]]})


# A valid record of each variant.
VALID_RECORDS = {
    "ner": {"id": "r1", "variant": "ner", "tokens": [20, 21], "tags": ["B-x", "I-x"]},
    "et": {"id": "r1", "variant": "et", "tokens": [20, ENT_ID, 21, ENT_ID], "labels": ["a"]},
    "oie": {"id": "r1", "variant": "oie", "tokens": [20, 21, 22],
            "triples": [{"subj": [0, 1], "pred": [1, 2], "obj": [2, 3]}]},
    "rank": {"id": "r1", "variant": "rank", "tokens": [20], "candidates": [[21], [22]], "gold": 1},
}
# Each record rule, broken by one edit of a valid record: (case, variant,
# edit, the error message it gives).
RULE_BREAKS = [
    ("id-not-a-string", "ner", {"id": 7}, "task record id 7 is not a string"),
    ("unknown-variant", "ner", {"variant": "foo"}, 'record r1: variant "foo" is not ner, et, oie or rank'),
    ("negative-token", "ner", {"tokens": [20, -1]}, "ner record r1: token -1 is not a nonnegative integer id"),
    ("boolean-token", "et", {"tokens": [True, ENT_ID, 21, ENT_ID]},
     "et record r1: token true is not a nonnegative integer id"),
    ("float-token-in-a-candidate", "rank", {"candidates": [[21], [22.0]]},
     "rank record r1: token 22.0 is not a nonnegative integer id"),
    ("et-without-an-ent-pair", "et", {"tokens": [20, ENT_ID, 21]}, "example r1: [ENT] markers must appear as a pair"),
    ("ner-without-tags", "ner", {"tags": None}, "ner record r1 lacks ['tags']"),
    ("et-without-labels", "et", {"labels": None}, "et record r1 lacks ['labels']"),
    ("oie-without-triples", "oie", {"triples": None}, "oie record r1 lacks ['triples']"),
    ("rank-without-gold", "rank", {"gold": None}, "rank record r1 lacks ['gold']"),
    ("tags-a-string", "ner", {"tags": "OO"}, 'ner record r1: tags "OO" is not a list (type str)'),
    ("label-not-a-string", "et", {"labels": [1]}, "et record r1: labels [1] is not a list of strings"),
    ("tag-outside-bio", "ner", {"tags": ["O", "building"]},
     'ner record r1: tag "building" is not O, B-<type> or I-<type>'),
    ("fewer-tags-than-tokens", "ner", {"tags": ["B-x"]}, "ner record r1 has 1 tags for 2 tokens"),
    ("gold-past-the-candidates", "rank", {"gold": 2},
     "rank record r1: gold 2 is not the index of one of its 2 candidates"),
    ("boolean-gold", "rank", {"gold": True}, "rank record r1: gold true is not the index of one of its 2 candidates"),
    ("span-past-the-tokens", "oie", {"triples": [{"subj": [0, 1], "pred": [1, 2], "obj": [2, 4]}]},
     "oie record r1: obj [2, 4] is not a span [s, e) with 0 <= s < e <= 3"),
    ("triple-not-an-object", "oie", {"triples": [[0, 1]]},
     "oie record r1: subj null is not a span [s, e) with 0 <= s < e <= 3"),
    # Values that a record built in Python may hold and JSON cannot: each is
    # named by its repr.
    ("numpy-token", "ner", {"tokens": [20, np.int64(21)]},
     f"ner record r1: token {json.dumps(repr(np.int64(21)))} is not a nonnegative integer id"),
    ("numpy-gold", "rank", {"gold": np.int64(1)},
     f"rank record r1: gold {json.dumps(repr(np.int64(1)))} is not the index of one of its 2 candidates"),
    ("tags-a-set", "ner", {"tags": {"B-x"}}, """ner record r1: tags "{'B-x'}" is not a list (type set)"""),
    ("tokens-not-a-list", "ner", {"tokens": 5}, "ner record r1: tokens 5 is not a list (type int)"),
    ("triples-not-a-list", "oie", {"triples": 5}, "oie record r1: triples 5 is not a list (type int)"),
    ("candidates-not-a-list", "rank", {"candidates": 5}, "rank record r1: candidates 5 is not a list (type int)"),
    ("tokens-a-tuple", "ner", {"tokens": (20, 21)}, "ner record r1: tokens [20, 21] is not a list (type tuple)"),
    ("tags-a-tuple", "ner", {"tags": ("B-x", "I-x")}, 'ner record r1: tags ["B-x", "I-x"] is not a list (type tuple)'),
    ("labels-a-tuple", "et", {"labels": ("a",)}, 'et record r1: labels ["a"] is not a list (type tuple)'),
    ("candidate-not-a-list", "rank", {"candidates": [[21], 5]}, "rank record r1: candidate 5 is not a list (type int)"),
]


def _record_fields(obj: dict) -> dict:
    """TaskExample keyword arguments of a record's JSON keys."""
    return {("example_id" if key == "id" else key): value for key, value in obj.items()}


class TestRecordRules:
    @pytest.mark.parametrize("variant", sorted(VALID_RECORDS))
    def test_valid_record_builds_alike_from_json_and_in_python(self, variant):
        record = VALID_RECORDS[variant]
        assert TaskExample.from_json(record) == TaskExample(**_record_fields(record))

    @pytest.mark.parametrize("variant, edit, message", [case[1:] for case in RULE_BREAKS],
                             ids=[case[0] for case in RULE_BREAKS])
    def test_rule_holds_however_the_record_is_built(self, variant, edit, message):
        """A record read from JSON, built with the constructor or edited
        with dataclasses.replace meets each rule with the same message."""
        record = VALID_RECORDS[variant] | edit
        valid = TaskExample(**_record_fields(VALID_RECORDS[variant]))
        builds = {
            "from_json": lambda: TaskExample.from_json(record),
            "constructor": lambda: TaskExample(**_record_fields(record)),
            "replace": lambda: dataclasses.replace(valid, **_record_fields(edit)),
        }
        for how, build in builds.items():
            with pytest.raises(TaskError) as caught:
                build()
            assert str(caught.value) == message, how

    def test_check_records_of_an_unknown_variant(self):
        """No record can hold an unknown variant, so none reaches
        check_records' per-variant table, and a set checked against one
        fails on its first record's variant."""
        record = TaskExample(**_record_fields(VALID_RECORDS["ner"]))
        cfg = ModelConfig(vocab_size=40, max_seq_len=16)
        with pytest.raises(TaskError, match='variant "foo" is not'):
            check_records([dataclasses.replace(record, variant="foo")], "foo", cfg)
        with pytest.raises(FinetuneError, match="record 'r1' has variant 'ner', not 'foo'"):
            check_records([record], "foo", cfg)

    def test_generated_records_round_trip_through_json(self, world):
        for train, evals in make_task_sets(*world, 3).values():
            for ex in train + evals:
                assert TaskExample.from_json(json.loads(json.dumps(ex.to_json()))) == ex
