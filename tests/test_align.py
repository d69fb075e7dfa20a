import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hklm.align import (
    AlignError,
    ExactCosines,
    SparseVec,
    TfIdfIndex,
    aligned_to_json,
    build_tfidf_index,
    cosine,
    fragment_corpus,
    fragment_document,
    retrieve_triples,
    tfidf_vector,
    triple_vectors,
)
from hklm.corpus import (
    SynthParams,
    build_vocab,
    generate_synthetic_corpus,
    parse_corpus,
    triple_token_ids,
    write_jsonl,
)
from conftest import DEFAULTS, align_whole, doc_line
from oracles import naive_cosine, naive_tfidf_vector


def hand_index_docs(corpus, vocab, fragments):
    all_frags = [f for doc in corpus for f in fragments[doc.entity_id]]
    docs = [f.token_ids for f in all_frags]
    for doc in corpus:
        for t in doc.infobox:
            docs.append(triple_token_ids(t, vocab))
    return all_frags, docs


class TestFragmentation:
    def _doc(self, n_tokens):
        text = " ".join(f"w{i}" for i in range(n_tokens))
        return parse_corpus([doc_line("e", "t", [("h", 1, [text])], [])]).documents[0]

    def test_short_paragraph_single_fragment(self):
        doc = self._doc(100)
        vocab = build_vocab(parse_corpus([doc_line("e", "t", [("h", 1, [" ".join(f"w{i}" for i in range(100))])], [])]), 1)
        frags = fragment_document(doc, vocab, 400)
        assert len(frags) == 1
        assert len(frags[0].token_ids) == 100

    def test_long_paragraph_split_400_400_100(self):
        text = " ".join(f"w{i}" for i in range(900))
        corpus = parse_corpus([doc_line("e", "t", [("h", 1, [text])], [])])
        vocab = build_vocab(corpus, 1)
        frags = fragment_document(corpus.documents[0], vocab, 400)
        assert [len(f.token_ids) for f in frags] == [400, 400, 100]

    def test_max_len_minimum(self, tiny_corpus, tiny_vocab):
        with pytest.raises(AlignError):
            fragment_document(tiny_corpus.documents[0], tiny_vocab, 8)

    def test_section_boundary_not_crossed(self, tiny_corpus, tiny_vocab):
        for doc in tiny_corpus:
            for frag in fragment_document(doc, tiny_vocab, 400):
                assert 0 <= frag.section_index < len(doc.sections)
                assert frag.heading == doc.sections[frag.section_index].heading

    def test_reconstruction(self):
        corpus, _ = generate_synthetic_corpus(3, 6)
        vocab = build_vocab(corpus, 1)
        for doc in corpus:
            frags = fragment_document(doc, vocab, 60)
            for s_idx, section in enumerate(doc.sections):
                section_tokens = [t for p in section.paragraphs for t in vocab.encode(p)]
                frag_tokens = [
                    t for f in frags if f.section_index == s_idx for t in f.token_ids
                ]
                assert frag_tokens == section_tokens

    def test_greedy_packing(self):
        paras = [" ".join(f"a{i}" for i in range(30)), " ".join(f"b{i}" for i in range(30)),
                 " ".join(f"c{i}" for i in range(30))]
        corpus = parse_corpus([doc_line("e", "t", [("h", 1, paras)], [])])
        vocab = build_vocab(corpus, 1)
        frags = fragment_document(corpus.documents[0], vocab, 65)
        assert [len(f.token_ids) for f in frags] == [60, 30]
        assert (frags[0].para_start, frags[0].para_end) == (0, 2)
        assert (frags[1].para_start, frags[1].para_end) == (2, 3)


class TestTfIdf:
    def test_term_in_every_doc_weight_zero(self):
        idx = TfIdfIndex.from_token_docs([[100, 101], [100, 102], [100, 103]])
        assert idx.idf[100] == 0.0
        vec = tfidf_vector([100, 100], idx)
        assert vec.weights.get(100, 0.0) == 0.0

    def test_two_docs_idf_log2(self):
        idx = TfIdfIndex.from_token_docs([[100], [101]])
        assert idx.idf[100] == pytest.approx(math.log(2), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(AlignError):
            TfIdfIndex.from_token_docs([])

    def test_single_term_tf_factor_one(self):
        idx = TfIdfIndex.from_token_docs([[100], [101]])
        vec = tfidf_vector([100], idx)
        assert vec.weights[100] == pytest.approx(math.log(2), abs=1e-15)

    def test_unindexed_terms_contribute_zero(self):
        idx = TfIdfIndex.from_token_docs([[100], [101]])
        vec = tfidf_vector([100, 999], idx)
        assert 999 not in vec.weights
        # but the unindexed occurrence still counts in the normalizer
        assert vec.weights[100] == pytest.approx(0.5 * math.log(2), abs=1e-15)

    def test_cosine_self_is_one(self):
        vec = SparseVec.from_weights({1: 0.3, 2: 0.4})
        assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_zero_norm(self):
        z = SparseVec.from_weights({})
        v = SparseVec.from_weights({1: 1.0})
        assert cosine(z, v) == 0.0
        assert cosine(v, z) == 0.0

    @given(
        st.dictionaries(st.integers(16, 40), st.floats(0, 5), max_size=6),
        st.dictionaries(st.integers(16, 40), st.floats(0, 5), max_size=6),
    )
    def test_cosine_symmetric_and_bounded(self, w1, w2):
        a, b = SparseVec.from_weights(w1), SparseVec.from_weights(w2)
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
        assert -1e-9 <= cosine(a, b) <= 1 + 1e-9

    def test_exact_cosines_equal_cosine_bit_for_bit(self, synth20, synth20_vocab):
        corpus, _ = synth20
        fragments = fragment_corpus(corpus, synth20_vocab, max_len=24)
        _, docs = hand_index_docs(corpus, synth20_vocab, fragments)
        index = TfIdfIndex.from_token_docs(docs)
        vecs = [tfidf_vector(ids, index) for ids in docs]
        cosines = ExactCosines(vecs)
        # Each fragment or triple as a query: many others are shorter, many longer.
        for qvec in vecs + [SparseVec.from_weights({})]:
            want = np.array([cosine(qvec, vec) for vec in vecs])
            assert cosines(qvec).tobytes() == want.tobytes()

    def test_full_matrix_matches_oracle(self, hand5_corpus):
        vocab = build_vocab(hand5_corpus, 1)
        fragments = fragment_corpus(hand5_corpus, vocab, DEFAULTS.max_fragment_len)
        all_frags, docs = hand_index_docs(hand5_corpus, vocab, fragments)
        index = build_tfidf_index(hand5_corpus, vocab, fragments=fragments)
        assert len(docs) == 15  # the oracle's weights below count these documents
        for d in docs:
            mine = tfidf_vector(d, index).weights
            oracle = naive_tfidf_vector(d, docs)
            for t, w in oracle.items():
                assert abs(mine.get(t, 0.0) - w) <= 1e-12

    def test_frozen_cosine_fragment2_triple4(self, hand5_corpus):
        vocab = build_vocab(hand5_corpus, 1)
        fragments = fragment_corpus(hand5_corpus, vocab, DEFAULTS.max_fragment_len)
        all_frags, docs = hand_index_docs(hand5_corpus, vocab, fragments)
        index = build_tfidf_index(hand5_corpus, vocab, fragments=fragments)
        triples = [t for doc in hand5_corpus for t in doc.infobox]
        got = cosine(
            tfidf_vector(all_frags[2].token_ids, index),
            tfidf_vector(triple_token_ids(triples[4], vocab), index),
        )
        # frozen from the brute-force oracle before the index implementation
        assert got == pytest.approx(0.18854584866947327, abs=1e-12)


class TestRetrieval:
    def test_repeated_object_ranks_first(self, hand5_corpus):
        vocab = build_vocab(hand5_corpus, 1)
        fragments = fragment_corpus(hand5_corpus, vocab, DEFAULTS.max_fragment_len)
        index = build_tfidf_index(hand5_corpus, vocab, fragments=fragments)
        d3 = hand5_corpus.by_id("d3")
        frag = fragments["d3"][0]  # repeats "bronze bells"
        vecs = triple_vectors(d3.infobox, index, vocab)
        aligned = retrieve_triples(frag, d3.infobox, vecs, index, tau=0.0, k_max=DEFAULTS.k_max)
        assert aligned.triples[0][0].predicate == "bells"
        # oracle agreement on every candidate's score
        all_frags, docs = hand_index_docs(hand5_corpus, vocab, fragments)
        for triple, score in aligned.triples:
            oracle = naive_cosine(
                naive_tfidf_vector(frag.token_ids, docs),
                naive_tfidf_vector(triple_token_ids(triple, vocab), docs),
            )
            assert score == pytest.approx(oracle, abs=1e-12)

    def test_unreachable_threshold_empty(self, hand5_corpus):
        vocab = build_vocab(hand5_corpus, 1)
        fragments = fragment_corpus(hand5_corpus, vocab, DEFAULTS.max_fragment_len)
        index = build_tfidf_index(hand5_corpus, vocab, fragments=fragments)
        d1 = hand5_corpus.by_id("d1")
        vecs = triple_vectors(d1.infobox, index, vocab)
        aligned = retrieve_triples(fragments["d1"][0], d1.infobox, vecs, index, 1.01, DEFAULTS.k_max)
        assert aligned.triples == []

    def test_tie_preserves_infobox_order(self):
        # two triples identical up to predicate tokens that are absent from
        # the fragment produce exactly equal scores
        lines = [doc_line(
            "e", "x y",
            [("h", 1, ["x y sits near the shore"])],
            [("x y", "aaa", "qq"), ("x y", "bbb", "qq")],
        )]
        corpus = parse_corpus(lines)
        vocab = build_vocab(corpus, 1)
        fragments = fragment_corpus(corpus, vocab, DEFAULTS.max_fragment_len)
        index = build_tfidf_index(corpus, vocab, fragments=fragments)
        doc = corpus.by_id("e")
        vecs = triple_vectors(doc.infobox, index, vocab)
        aligned = retrieve_triples(fragments["e"][0], doc.infobox, vecs, index, 0.0, DEFAULTS.k_max)
        assert [t.predicate for t, _ in aligned.triples] == ["aaa", "bbb"]
        assert aligned.triples[0][1] == pytest.approx(aligned.triples[1][1], abs=0)

    def test_k_max_truncation(self, synth20, synth20_vocab):
        corpus, _ = synth20
        for af in align_whole(corpus, synth20_vocab, tau=0.0, k_max=3):
            assert len(af.triples) <= 3
            scores = [s for _, s in af.triples]
            assert scores == sorted(scores, reverse=True)

    def test_monotone_in_tau(self, synth20, synth20_vocab):
        corpus, _ = synth20
        lo = align_whole(corpus, synth20_vocab, tau=0.02)
        hi = align_whole(corpus, synth20_vocab, tau=0.3)
        for a, b in zip(lo, hi):
            lo_set = {(t.predicate, t.object) for t, _ in a.triples}
            hi_set = {(t.predicate, t.object) for t, _ in b.triples}
            assert hi_set <= lo_set

    def test_deterministic_bytes(self, synth20, synth20_vocab, tmp_path):
        corpus, _ = synth20
        p1, p2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        write_jsonl(p1, map(aligned_to_json, align_whole(corpus, synth20_vocab)))
        write_jsonl(p2, map(aligned_to_json, align_whole(corpus, synth20_vocab)))
        assert p1.read_bytes() == p2.read_bytes()


def alignment_coverage(corpus, vocab, **kw):
    """Fraction of `align_whole`'s fragments paired with at least one triple."""
    aligned = align_whole(corpus, vocab, **kw)
    return sum(1 for af in aligned if af.triples) / len(aligned)


class TestCoverage:
    def test_zero_triples_zero_coverage(self):
        corpus = parse_corpus([doc_line("e", "t", [("h", 1, ["a b c"])], [])])
        vocab = build_vocab(corpus, 1)
        assert alignment_coverage(corpus, vocab) == 0.0

    def test_coverage_matches_truth(self):
        params = SynthParams(mention_fraction=0.8)
        corpus, truth = generate_synthetic_corpus(42, 30, params)
        vocab = build_vocab(corpus, 1)
        cov = alignment_coverage(corpus, vocab, tau=0.05)

        truth_by_id = {rec["entity_id"]: rec for rec in truth}
        fragments = fragment_corpus(corpus, vocab, DEFAULTS.max_fragment_len)
        n_frag = 0
        n_alignable = 0
        for doc in corpus:
            rec = truth_by_id[doc.entity_id]
            hot = {(m["section"], m["paragraph"]) for m in rec["mentions"]}
            hot |= {tuple(tm) for tm in rec["title_mentions"]}
            for frag in fragments[doc.entity_id]:
                n_frag += 1
                if any(
                    (frag.section_index, p) in hot
                    for p in range(frag.para_start, frag.para_end)
                ):
                    n_alignable += 1
        assert cov == pytest.approx(n_alignable / n_frag, abs=0.05)
