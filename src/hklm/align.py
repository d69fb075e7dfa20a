"""Document fragmentation, TF-IDF indexing, and per-fragment triple retrieval."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import NUM_SPECIAL, Corpus, Document, Triple, Vocab, triple_token_ids


class AlignError(ValueError):
    pass


@dataclass
class Fragment:
    """A contiguous slice of one section's paragraphs, <= max_len tokens."""

    entity_id: str
    heading: str
    token_ids: list[int]
    section_index: int
    para_start: int
    para_end: int  # exclusive
    index: int = 0  # position within the document's fragment list


@dataclass
class AlignedFragment:
    fragment: Fragment
    triples: list[tuple[Triple, float]]  # score-descending


def fragment_document(doc: Document, vocab: Vocab, max_len: int) -> list[Fragment]:
    """Greedy packing of paragraphs into fragments, never crossing sections.

    A paragraph longer than max_len is split at token boundaries; every
    source token lands in exactly one fragment.
    """
    if max_len < 16:
        raise AlignError(f"max_len must be >= 16, got {max_len}")
    fragments: list[Fragment] = []

    def emit(tokens, sec_idx, p_start, p_end, heading):
        fragments.append(
            Fragment(
                entity_id=doc.entity_id,
                heading=heading,
                token_ids=tokens,
                section_index=sec_idx,
                para_start=p_start,
                para_end=p_end,
                index=len(fragments),
            )
        )

    for sec_idx, section in enumerate(doc.sections):
        cur: list[int] = []
        cur_start = 0
        for p_idx, para in enumerate(section.paragraphs):
            ptoks = vocab.encode(para)
            if not ptoks:
                continue
            if len(ptoks) > max_len:
                if cur:
                    emit(cur, sec_idx, cur_start, p_idx, section.heading)
                    cur = []
                for off in range(0, len(ptoks), max_len):
                    emit(ptoks[off : off + max_len], sec_idx, p_idx, p_idx + 1, section.heading)
                cur_start = p_idx + 1
                continue
            if cur and len(cur) + len(ptoks) > max_len:
                emit(cur, sec_idx, cur_start, p_idx, section.heading)
                cur = []
            if not cur:
                cur_start = p_idx
            cur.extend(ptoks)
        if cur:
            emit(cur, sec_idx, cur_start, len(section.paragraphs), section.heading)
    return fragments


def fragment_corpus(corpus: Corpus, vocab: Vocab, max_len: int) -> dict[str, list[Fragment]]:
    return {doc.entity_id: fragment_document(doc, vocab, max_len) for doc in corpus}


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------


def _terms(token_ids: list[int]) -> list[int]:
    # Special ids (incl. [UNK]) carry no lexical content and are not terms.
    return [t for t in token_ids if t >= NUM_SPECIAL]


@dataclass
class SparseVec:
    weights: dict[int, float]
    norm: float = field(default=0.0)

    @classmethod
    def from_weights(cls, weights: dict[int, float]) -> "SparseVec":
        return cls(weights=weights, norm=math.sqrt(sum(w * w for w in weights.values())))


def cosine(a: SparseVec, b: SparseVec) -> float:
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    if len(b.weights) < len(a.weights):
        a, b = b, a
    # A plain left-to-right sum (built-in sum compensates from Python 3.12),
    # which ExactCosines reproduces with numpy.
    dot = 0.0
    for t, w in a.weights.items():
        if t in b.weights:
            dot += w * b.weights[t]
    return dot / (a.norm * b.norm)


class ExactCosines:
    """`cosine(qvec, vec)` for every vec of a fixed list at once, bit for bit.

    `cosine` sums the products of the shorter vector's terms left to right.
    Adding each query term's products into the candidates holding it, in the
    query's term order, is that sum wherever the candidate has at least as
    many terms as the query; shorter candidates sharing a term go through
    `cosine` itself. A candidate sharing no positive-weight term scores 0.0.
    """

    def __init__(self, vecs: list[SparseVec]):
        self.vecs = vecs
        self.norms = np.array([vec.norm for vec in vecs])
        self.n_terms = np.array([len(vec.weights) for vec in vecs])
        # Term-major weights: each term's candidates and their weights.
        lists: dict[int, tuple[list[int], list[float]]] = {}
        for j, vec in enumerate(vecs):
            for term, w in vec.weights.items():
                rows, weights = lists.setdefault(term, ([], []))
                rows.append(j)
                weights.append(w)
        self.postings = {t: (np.array(rows), np.array(ws)) for t, (rows, ws) in lists.items()}

    def __call__(self, qvec: SparseVec) -> np.ndarray:
        dot = np.zeros(len(self.vecs))
        for term, w in qvec.weights.items():
            if term in self.postings:
                rows, weights = self.postings[term]
                dot[rows] += w * weights
        scores = np.zeros(len(self.vecs))
        hit = np.flatnonzero(dot > 0.0)
        scores[hit] = dot[hit] / (qvec.norm * self.norms[hit])
        for j in hit[self.n_terms[hit] < len(qvec.weights)]:
            scores[j] = cosine(qvec, self.vecs[j])
        return scores


@dataclass
class TfIdfIndex:
    """Document frequencies over the corpus of all fragments plus all triples."""

    n_docs: int
    df: dict[int, int]
    idf: dict[int, float]

    @classmethod
    def from_token_docs(cls, docs: list[list[int]]) -> "TfIdfIndex":
        if not docs:
            raise AlignError("cannot build a TF-IDF index from zero documents")
        df: Counter[int] = Counter()
        for tokens in docs:
            df.update(set(_terms(tokens)))
        n = len(docs)
        idf = {t: math.log(n / n_t) for t, n_t in df.items()}
        return cls(n_docs=n, df=dict(df), idf=idf)


def build_tfidf_index(corpus: Corpus, vocab: Vocab, fragments: dict[str, list[Fragment]]) -> TfIdfIndex:
    """Index over `fragments` (from `fragment_corpus` over this corpus) plus
    every infobox triple of the corpus."""
    if len(corpus) == 0:
        raise AlignError("cannot index an empty corpus")
    docs = [frag.token_ids for frags in fragments.values() for frag in frags]
    for doc in corpus:
        for triple in doc.infobox:
            docs.append(triple_token_ids(triple, vocab))
    return TfIdfIndex.from_token_docs(docs)


def tfidf_vector(token_ids: list[int], index: TfIdfIndex) -> SparseVec:
    """Term weight = (tf / total terms in text) * ln(N / n_t); unindexed terms drop out."""
    terms = _terms(token_ids)
    total = len(terms)
    if total == 0:
        return SparseVec.from_weights({})
    counts = Counter(terms)
    weights = {
        t: (n / total) * index.idf[t] for t, n in counts.items() if t in index.idf
    }
    return SparseVec.from_weights(weights)


def triple_vectors(triples: list[Triple], index: TfIdfIndex, vocab: Vocab) -> list[SparseVec]:
    """TF-IDF vector of each triple serialized as text, in infobox order."""
    return [tfidf_vector(triple_token_ids(triple, vocab), index) for triple in triples]


def retrieve_triples(
    fragment: Fragment,
    candidates: list[Triple],
    candidate_vecs: list[SparseVec],
    index: TfIdfIndex,
    tau: float,
    k_max: int,
) -> AlignedFragment:
    """Entity-local retrieval: candidates are the fragment's own infobox triples.

    `candidate_vecs` are the candidates' TF-IDF vectors (`triple_vectors`),
    computed once per document rather than once per fragment. Keeps
    candidates scoring >= tau, sorted by score descending with ties in
    infobox order, truncated to k_max.
    """
    fvec = tfidf_vector(fragment.token_ids, index)
    scored: list[tuple[Triple, float]] = []
    for triple, tvec in zip(candidates, candidate_vecs):
        score = cosine(fvec, tvec)
        if score >= tau:
            scored.append((triple, score))
    scored.sort(key=lambda ts: -ts[1])  # stable: ties keep infobox order
    return AlignedFragment(fragment=fragment, triples=scored[:k_max])


def align_corpus(
    corpus: Corpus,
    vocab: Vocab,
    fragments: dict[str, list[Fragment]],
    index: TfIdfIndex,
    tau: float,
    k_max: int,
) -> list[AlignedFragment]:
    """Retrieve the triples of every fragment in `fragments` (from
    `fragment_corpus` over this corpus) against `index`; output in corpus
    order."""
    aligned: list[AlignedFragment] = []
    for doc in corpus:
        vecs = triple_vectors(doc.infobox, index, vocab)
        aligned.extend(
            retrieve_triples(frag, doc.infobox, vecs, index, tau, k_max)
            for frag in fragments[doc.entity_id]
        )
    return aligned


def unaligned_corpus(corpus: Corpus, fragments: dict[str, list[Fragment]]) -> list[AlignedFragment]:
    """Every fragment paired with no triples, in corpus order (text-only modes)."""
    return [AlignedFragment(fragment=f, triples=[]) for doc in corpus for f in fragments[doc.entity_id]]


def aligned_to_json(af: AlignedFragment) -> dict:
    return {
        "entity_id": af.fragment.entity_id,
        "heading": af.fragment.heading,
        "tokens": af.fragment.token_ids,
        "triples": [
            {"s": t.subject, "p": t.predicate, "o": t.object, "score": float(f"{score:.9g}")}
            for t, score in af.triples
        ],
    }
