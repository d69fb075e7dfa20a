import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hklm import corpus as corpus_module
from hklm.corpus import (
    ALIAS_PREDICATE,
    NUM_SPECIAL,
    UNK_ID,
    CorpusError,
    SynthParams,
    Vocab,
    build_vocab,
    derive_seed,
    detokenize,
    generate_synthetic_corpus,
    iter_document_texts,
    parse_corpus,
    serialize_corpus,
    tokenize_text,
)
from conftest import doc_line
from oracles import count_terms, naive_tokenize


class TestParse:
    def test_minimal_record(self):
        line = doc_line("e1", "t", [("h", 1, ["a b"])], [("t", "p1", "o1"), ("t", "p2", "o2")])
        corpus = parse_corpus([line])
        assert len(corpus) == 1
        doc = corpus.documents[0]
        assert doc.title == "t"
        assert len(doc.sections) == 1
        assert len(doc.infobox) == 2

    def test_empty_stream(self):
        assert len(parse_corpus([])) == 0
        assert len(parse_corpus(["", "   "])) == 0

    def test_duplicate_entity_id_names_line(self):
        line1 = doc_line("e1", "t", [("h", 1, ["x"])], [])
        line2 = doc_line("e1", "u", [("h", 1, ["y"])], [])
        with pytest.raises(CorpusError, match=r"line 2.*duplicate"):
            parse_corpus([line1, line2])

    def test_malformed_json_reports_line(self):
        good = doc_line("e1", "t", [("h", 1, ["x"])], [])
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus([good, "{not json"])

    def test_missing_field_rejected(self):
        with pytest.raises(CorpusError, match="missing field"):
            parse_corpus([json.dumps({"entity_id": "e", "title": "t", "sections": [{"heading": "h", "level": 1, "paragraphs": []}]})])

    def test_empty_sections_rejected(self):
        with pytest.raises(CorpusError, match="sections"):
            parse_corpus([json.dumps({"entity_id": "e", "title": "t", "sections": [], "infobox": []})])

    def test_subject_mismatch_repaired_with_warning(self, caplog):
        line = doc_line("e1", "t", [("h", 1, ["x"])], [("other", "p", "o")])
        with caplog.at_level("WARNING"):
            corpus = parse_corpus([line])
        assert corpus.documents[0].infobox[0].subject == "t"
        assert any("rewriting subject" in rec.message for rec in caplog.records)

    def test_duplicate_predicate_object_rejected(self):
        line = doc_line("e1", "t", [("h", 1, ["x"])], [("t", "p", "o"), ("t", "p", "o")])
        with pytest.raises(CorpusError, match="duplicate"):
            parse_corpus([line])

    def test_level_must_start_at_one(self):
        line = doc_line("e1", "t", [("h", 2, ["x"])], [])
        with pytest.raises(CorpusError, match="level"):
            parse_corpus([line])

    def test_roundtrip_identity(self, synth20):
        corpus, _ = synth20
        again = parse_corpus(serialize_corpus(corpus))
        assert serialize_corpus(again) == serialize_corpus(corpus)
        assert [d.to_json() for d in again] == [d.to_json() for d in corpus]


class TestTokenizer:
    def test_punctuation_split(self, tiny_vocab):
        ids = tiny_vocab.encode("The Palace Museum,")
        assert tiny_vocab.decode(ids) == ["the", "palace", "museum", ","]

    def test_empty(self, tiny_vocab):
        assert tiny_vocab.encode("") == []

    def test_cjk_single_tokens(self):
        assert tokenize_text("北京abc") == ["北", "京", "abc"]

    def test_leading_trailing_punct_order(self):
        assert tokenize_text('"hi!"') == ['"', "hi", "!", '"']
        assert tokenize_text("((a))") == ["(", "(", "a", ")", ")"]

    def test_punct_only(self):
        assert tokenize_text("...") == [".", ".", "."]

    def test_internal_punct_kept(self):
        assert tokenize_text("well-known") == ["well-known"]

    def test_unknown_maps_to_unk(self, tiny_vocab):
        assert tiny_vocab.encode("zzzzunseen") == [UNK_ID]

    @given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=8))
    def test_roundtrip_ascii_words(self, words):
        text = " ".join(words)
        corpus = parse_corpus([doc_line("e1", "t", [("h", 1, [text])], [])])
        vocab = build_vocab(corpus, 1)
        assert detokenize(vocab.encode(text), vocab) == text

    @given(st.text(max_size=40))
    def test_total_and_deterministic(self, text):
        assert tokenize_text(text) == tokenize_text(text)

    # ASCII letters of both cases, non-ASCII letters that str.lower would fold,
    # both edges of every CJK range (一 鿿, 㐀 䶿, 豈 﫿) and the code points just
    # outside them, Unicode punctuation, and mixed (also non-ASCII) whitespace.
    _MIXED = (
        "aZqQ"
        "ÉéÀßẞİǅΣ"
        + "".join(
            chr(cp)
            for lo, hi in ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))
            for cp in (lo - 1, lo, hi, hi + 1)
        )
        + "「」—…,.!?()'\"-"
        " \t\n\u3000\u00a0\u2003\x1c"
    )

    @given(st.text(alphabet=_MIXED, max_size=30))
    def test_matches_per_character_reference(self, text):
        assert tokenize_text(text) == naive_tokenize(text)

    # ASCII letters, digits and every ASCII whitespace character, including
    # the separators (\x1c-\x1f) that str.split treats as whitespace.
    @given(st.text(alphabet="aZq09 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f", max_size=30))
    def test_plain_ascii_matches_reference(self, text):
        assert tokenize_text(text) == naive_tokenize(text)

    def test_lowercases_ascii_only(self):
        assert tokenize_text("ÉCOLE Straße 一A") == ["École", "straße", "一", "a"]

    def test_ids_always_in_range(self, synth20, synth20_vocab):
        corpus, _ = synth20
        for doc in corpus:
            for sec in doc.sections:
                for para in sec.paragraphs:
                    for t in synth20_vocab.encode(para):
                        assert 0 <= t < len(synth20_vocab)


class TestVocab:
    def test_min_freq_cutoff(self):
        corpus = parse_corpus([doc_line("e1", "t", [("h", 1, ["park park park park park tree"])], [])])
        vocab = build_vocab(corpus, 6)
        assert "park" not in vocab.token_to_id
        assert vocab.encode("park") == [UNK_ID]

    def test_tie_broken_lexicographically(self):
        corpus = parse_corpus([doc_line("e1", "t", [("h", 1, ["zeta apple zeta apple"])], [])])
        vocab = build_vocab(corpus, 2)
        assert vocab.token_to_id["apple"] < vocab.token_to_id["zeta"]

    def test_min_freq_below_one_rejected(self, tiny_corpus):
        with pytest.raises(CorpusError):
            build_vocab(tiny_corpus, 0)

    def test_ids_ordered_by_frequency(self, tiny_corpus):
        vocab = build_vocab(tiny_corpus, 1)
        counts = Counter()
        for doc in tiny_corpus:
            for sec in doc.sections:
                counts.update(tokenize_text(sec.heading))
                for para in sec.paragraphs:
                    counts.update(tokenize_text(para))
            for tr in doc.infobox:
                for el in (tr.subject, tr.predicate, tr.object):
                    counts.update(tokenize_text(el))
        freqs = [counts[tok] for tok in vocab.id_to_token[NUM_SPECIAL:]]
        assert freqs == sorted(freqs, reverse=True)

    def test_synth_vocab_matches_independent_recount(self, synth20, synth20_vocab):
        corpus, _ = synth20
        texts = []
        for doc in corpus:
            for sec in doc.sections:
                texts.append(tokenize_text(sec.heading))
                texts.extend(tokenize_text(p) for p in sec.paragraphs)
            for tr in doc.infobox:
                texts.extend(tokenize_text(el) for el in (tr.subject, tr.predicate, tr.object))
        counts = count_terms(texts)
        expected = sum(1 for c in counts.values() if c >= 1)
        assert len(synth20_vocab) == NUM_SPECIAL + expected

    def test_json_roundtrip_and_hash(self, tiny_vocab):
        clone = Vocab.from_json(tiny_vocab.to_json())
        assert clone.id_to_token == tiny_vocab.id_to_token
        assert clone.hash_hex() == tiny_vocab.hash_hex()

    def test_special_ids_fixed(self, tiny_vocab):
        assert tiny_vocab.id_to_token[:6] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[SEP0]"]
        assert tiny_vocab.id_to_token[6:14] == [f"[SEP{i}]" for i in range(1, 9)]
        assert tiny_vocab.id_to_token[14:16] == ["[ENT]", "[REL]"]


class TestEncodeMemo:
    """`Vocab.encode` memoizes each text's ids; the memo must be invisible."""

    @staticmethod
    def _texts(corpus):
        return sorted({text for doc in corpus for text in iter_document_texts(doc)})

    def test_fresh_list_each_call(self, tiny_vocab):
        first = tiny_vocab.encode("The Palace Museum,")
        second = tiny_vocab.encode("The Palace Museum,")
        assert second == first and second is not first
        first.append(UNK_ID)
        assert tiny_vocab.encode("The Palace Museum,") == second
        assert tiny_vocab.decode(second) == ["the", "palace", "museum", ","]

    def test_equals_uncached_ids(self, synth20):
        corpus, _ = synth20
        vocab = build_vocab(corpus, 1)
        unseen = ["zzzzunseen", "qqq Zzzz!", "北京", ""]
        for text in self._texts(corpus) + unseen:
            want = [vocab.token_to_id.get(tok, UNK_ID) for tok in tokenize_text(text)]
            assert vocab.encode(text) == want
            assert vocab.encode(text) == want  # a memo hit
        assert vocab.encode("zzzzunseen") == [UNK_ID]
        assert vocab.encode("qqq zzzz!") == [UNK_ID, UNK_ID, UNK_ID]

    def test_memo_outside_equality_json_and_hash(self, tiny_corpus):
        vocab = build_vocab(tiny_corpus, 1)
        clone = Vocab.from_json(vocab.to_json())
        assert clone == vocab  # one memo full, the other empty
        before = (vocab.to_json(), vocab.hash_hex())
        vocab.encode("some text never seen before")
        assert (vocab.to_json(), vocab.hash_hex()) == before
        assert clone == vocab
        assert "_ids_by_text" not in repr(vocab)

    def test_json_copy_encodes_like_built_vocab(self, synth20):
        corpus, _ = synth20
        vocab = build_vocab(corpus, 1)
        clone = Vocab.from_json(json.loads(json.dumps(vocab.to_json())))
        for text in self._texts(corpus) + ["zzzzunseen words", "Ab, cd."]:
            assert clone.encode(text) == vocab.encode(text)

    def test_each_text_tokenized_once_per_vocab(self, tiny_corpus, monkeypatch):
        calls = Counter()
        real = corpus_module.tokenize_text

        def counting(text):
            calls[text] += 1
            return real(text)

        monkeypatch.setattr(corpus_module, "tokenize_text", counting)
        vocab = build_vocab(tiny_corpus, 1)
        texts = self._texts(tiny_corpus)
        assert sorted(calls) == texts and set(calls.values()) == {1}
        for text in texts:
            vocab.encode(text)
        vocab.encode("zzzz unseen")
        vocab.encode("zzzz unseen")
        assert calls["zzzz unseen"] == 1 and set(calls.values()) == {1}
        # The memo belongs to the vocabulary object, not the module.
        Vocab.from_json(vocab.to_json()).encode(texts[0])
        assert calls[texts[0]] == 2


class TestSynthetic:
    def test_deterministic_bytes(self):
        a, ta = generate_synthetic_corpus(1, 3)
        b, tb = generate_synthetic_corpus(1, 3)
        assert serialize_corpus(a) == serialize_corpus(b)
        assert ta == tb

    def test_mention_fraction_one(self):
        params = SynthParams(mention_fraction=1.0)
        corpus, truth = generate_synthetic_corpus(5, 8, params)
        for doc, rec in zip(corpus, truth):
            paras = [tokenize_text(p) for sec in doc.sections for p in sec.paragraphs]
            for triple, mentioned in zip(doc.infobox, rec["object_mentioned"]):
                if triple.predicate == ALIAS_PREDICATE:
                    continue
                assert mentioned
                obj = tokenize_text(triple.object)
                assert any(
                    para[i : i + len(obj)] == obj
                    for para in paras
                    for i in range(len(para) - len(obj) + 1)
                )

    def test_truth_matches_brute_force_scan(self):
        corpus, truth = generate_synthetic_corpus(42, 50)
        for doc, rec in zip(corpus, truth):
            for mention in rec["mentions"]:
                para = doc.sections[mention["section"]].paragraphs[mention["paragraph"]]
                toks = tokenize_text(para)
                obj = tokenize_text(mention["o"])
                assert any(toks[i : i + len(obj)] == obj for i in range(len(toks) - len(obj) + 1))

    def test_aliases_never_in_free_text(self):
        corpus, truth = generate_synthetic_corpus(42, 50)
        all_alias = {tok for rec in truth for tok in rec["alias"]}
        for doc in corpus:
            for sec in doc.sections:
                for para in sec.paragraphs:
                    assert not all_alias.intersection(tokenize_text(para))

    def test_headings_nonempty_and_triples_in_range(self, synth20):
        corpus, _ = synth20
        for doc in corpus:
            assert doc.sections
            for sec in doc.sections:
                assert sec.heading
            assert 4 <= len(doc.infobox) <= 12
            assert 2 <= len(doc.sections) <= 6
            for tr in doc.infobox:
                assert tr.subject == doc.title

    def test_invalid_params_rejected(self):
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(1, 1, SynthParams(mention_fraction=1.5))
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(1, 0)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
