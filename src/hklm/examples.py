"""Pretraining example assembly: serialization layout, corruption, MLM masking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    CLS_ID,
    MASK_ID,
    MAX_TRIPLES_PER_EXAMPLE,
    NUM_SPECIAL,
    SEP0_ID,
    SEP_ID,
    SEPI_IDS,
    UNK_ID,
    Corpus,
    Triple,
    Vocab,
    derive_seed,
    write_jsonl,
)
from .align import AlignedFragment

SEG_TEXT = 0
SEG_HEADING = 1
SEG_TRIPLES = 2
N_SEGMENTS = 3  # rows of the segment embedding table


class ExampleError(ValueError):
    pass


@dataclass
class SamplerConfig:
    mask_prob: float = 0.15
    mask_token_frac: float = 0.8
    random_token_frac: float = 0.1
    p_neg_tc: float = 0.5
    p_neg_tmt: float = 0.5
    max_seq_len: int = 512
    # When set, each example serializes at most this many of its retrieved
    # triples, sampled uniformly per example. Over re-drawn epochs every
    # retrieved triple still gets serialized while the per-anchor
    # classification stays at a learnable width.
    triples_per_example: int | None = None
    # KG ablation: serialize no heading or no triple, keep each retrieved
    # triple with this probability, or hide the object of each kept triple
    # behind [UNK] with probability 1/2.
    drop_headings: bool = False
    drop_triples: bool = False
    triple_keep_fraction: float = 1.0
    value_noise: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        rates = ("mask_prob", "mask_token_frac", "random_token_frac", "p_neg_tc", "p_neg_tmt",
                 "triple_keep_fraction")
        for name in rates:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ExampleError(f"{name} must be in [0, 1], got {v}")
        # A masked token keeps its id with the probability these two leave over.
        total = self.mask_token_frac + self.random_token_frac
        if total > 1.0 + 1e-9:
            raise ExampleError(f"mask_token_frac + random_token_frac must be <= 1, got {total}")
        if self.max_seq_len < 16:
            raise ExampleError("max_seq_len must be >= 16")
        if self.triples_per_example is not None and self.triples_per_example < 1:
            raise ExampleError("triples_per_example must be >= 1 when set")
        if self.drop_triples and (self.triple_keep_fraction < 1.0 or self.value_noise):
            raise ExampleError("triple_keep_fraction < 1 and value_noise need serialized triples;"
                               " drop_triples and plain mode serialize none")


@dataclass
class SegmentLayout:
    """Position bookkeeping for one serialized example.

    Order is [CLS], text, [SEP0], heading, then ([SEPi], triple_i) for
    i = 1..k. Plain-text examples instead end with a trailing [SEP] and have
    no heading/triple spans.
    """

    text_span: tuple[int, int]
    sep0_pos: int | None
    heading_span: tuple[int, int]
    triples: list[tuple[int, tuple[int, int]]]  # ([SEPi] position, triple span)
    seg_ids: list[int]

    def sep_positions(self) -> list[int]:
        return [pos for pos, _ in self.triples]


@dataclass
class PretrainExample:
    input_ids: list[int]
    layout: SegmentLayout
    mlm_labels: list[tuple[int, int]]  # (position, original id)
    tc_labels: list[int]
    tmt_label: int | None
    seed: int
    debug: dict | None = field(default=None, compare=False, repr=False)


@dataclass
class GenStats:
    tc_skips: int = 0
    tmt_skips: int = 0


def assemble_input(
    text_ids: list[int],
    heading_ids: list[int] | None,
    triple_ids: list[list[int]],
    max_seq_len: int,
) -> tuple[list[int], SegmentLayout]:
    """Serialize [CLS] text [SEP0] heading ([SEPi] triple_i)* with length control.

    Over-long sequences shed triples from the low-scored end first, then
    heading tokens; the [CLS]/text/[SEP0] core is never touched. When the
    heading is None, [SEP0] and the heading are left out: the drop-headings
    form [CLS] text ([SEPi] triple_i)*, or with no triples given the
    plain-text form [CLS] text [SEP].
    """
    if len(triple_ids) > MAX_TRIPLES_PER_EXAMPLE:
        raise ExampleError(f"at most {MAX_TRIPLES_PER_EXAMPLE} triples per example, got {len(triple_ids)}")
    ids = [CLS_ID, *text_ids]
    text_span = (1, len(ids))
    if heading_ids is None and not triple_ids:
        ids.append(SEP_ID)  # the plain-text form: its core is the whole sequence
    sep0_pos = None if heading_ids is None else len(ids)
    core = len(ids) if heading_ids is None else len(ids) + 1
    if core > max_seq_len:
        raise ExampleError(f"core length {core} exceeds max_seq_len {max_seq_len}")
    n_triples = len(triple_ids)
    total = core + len(heading_ids or ()) + n_triples + sum(map(len, triple_ids))
    while n_triples and total > max_seq_len:
        n_triples -= 1
        total -= 1 + len(triple_ids[n_triples])
    seg = [SEG_TEXT] * len(ids)
    heading_span = (0, 0)
    if heading_ids is not None:
        # With every triple shed, the heading keeps what fits after the core.
        ids.append(SEP0_ID)
        ids.extend(heading_ids[: max_seq_len - core])
        heading_span = (core, len(ids))
        seg += [SEG_HEADING] * (len(ids) - len(seg))
    triples = []
    for i in range(n_triples):
        pos = len(ids)
        ids.append(SEPI_IDS[i])
        ids.extend(triple_ids[i])
        triples.append((pos, (pos + 1, len(ids))))
    seg += [SEG_TRIPLES] * (len(ids) - len(seg))
    return ids, SegmentLayout(text_span, sep0_pos, heading_span, triples, seg)


def resample_from_pool(value: str, pool: list[str], rng, p_neg: float) -> tuple[str, int, bool]:
    """The rule behind both TC and TMT negatives: with probability p_neg
    swap `value` for a uniform draw over the sorted distinct other values of
    `pool`. Returns (value, label, skipped); label 1 means intact, and
    skipped means a swap was drawn but the pool held no other value."""
    if rng.random() < p_neg:
        alternatives = sorted(set(pool) - {value})
        if not alternatives:
            return value, 1, True
        return alternatives[int(rng.integers(0, len(alternatives)))], 0, False
    return value, 1, False


def corrupt_triple(
    triple: Triple, predicates: list[str], rng, p_neg: float
) -> tuple[Triple, int, bool]:
    """Attribute resampling: the predicate resampled over the KG's
    attributes; subject and object are never altered."""
    predicate, label, skipped = resample_from_pool(triple.predicate, predicates, rng, p_neg)
    return (triple if label else Triple(triple.subject, predicate, triple.object)), label, skipped


def apply_mlm_mask(
    input_ids: list[int], vocab_size: int, rng, config: SamplerConfig
) -> tuple[list[int], list[tuple[int, int]]]:
    """BERT-style masking over non-special positions.

    Each position with id >= NUM_SPECIAL is independently selected with
    probability mask_prob; selected positions become [MASK] with probability
    mask_token_frac, a random non-special id with probability
    random_token_frac, and otherwise stay put. Three fixed-length
    draws keep the stream deterministic regardless of what gets selected.
    """
    n = len(input_ids)
    select_draw = rng.random(n).tolist()
    action_draw = rng.random(n).tolist()
    random_ids = (
        rng.integers(NUM_SPECIAL, vocab_size, size=n).tolist()
        if vocab_size > NUM_SPECIAL
        else [MASK_ID] * n
    )
    mask_prob = config.mask_prob
    mask_cut = config.mask_token_frac
    rand_cut = config.mask_token_frac + config.random_token_frac
    masked = list(input_ids)
    labels: list[tuple[int, int]] = []
    for pos, draw in enumerate(select_draw):
        if draw < mask_prob and input_ids[pos] >= NUM_SPECIAL:
            labels.append((pos, input_ids[pos]))
            if action_draw[pos] < mask_cut:
                masked[pos] = MASK_ID
            elif action_draw[pos] < rand_cut:
                masked[pos] = random_ids[pos]
            # else: keep the original id
    return masked, labels


# ---------------------------------------------------------------------------
# Example generation
# ---------------------------------------------------------------------------


@dataclass
class SerializedExamples:
    """Serialized examples whose MLM masks are drawn when first asked for.

    Until `masked(i)` draws them, `examples[i]` holds its serialized ids and
    no MLM labels, and `streams[i]` its own stream where its corruption draws
    left it, or None when they drew nothing (the stream is then created at
    the mask draws). No two examples share a stream, so the order in which
    they are masked cannot change them.
    """

    examples: list[PretrainExample]
    streams: dict[int, np.random.Generator | None]
    vocab_size: int
    config: SamplerConfig

    def masked(self, i: int) -> PretrainExample:
        ex = self.examples[i]
        if i in self.streams:
            rng = self.streams.pop(i)
            if rng is None:
                rng = np.random.default_rng(ex.seed)
            ex.input_ids, ex.mlm_labels = apply_mlm_mask(ex.input_ids, self.vocab_size, rng, self.config)
        return ex

    def all_masked(self) -> list[PretrainExample]:
        for i in list(self.streams):
            self.masked(i)
        return self.examples


def serialize_pretrain_examples(
    corpus: Corpus,
    aligned: list[AlignedFragment],
    vocab: Vocab,
    config: SamplerConfig,
    keep_debug: bool = False,
) -> tuple[SerializedExamples, GenStats]:
    """Degrade, corrupt and serialize every aligned fragment; masking is
    left to `SerializedExamples.masked`.

    Per-example rng seeds derive from (master seed, entity_id, fragment
    index), so generation order and parallelism cannot change the output.
    The KG ablation's keep and noise coins come from streams of their own,
    so keep_fraction=1 with no noise is bit-identical to no ablation.
    Corruption draws happen before masking draws, on the same stream.
    """
    stats = GenStats()
    predicates = corpus.predicates()
    headings_by_id = {doc.entity_id: doc.headings() for doc in corpus}
    per_example = config.triples_per_example
    examples: list[PretrainExample] = []
    streams: dict[int, np.random.Generator | None] = {}
    for af in aligned:
        frag = af.fragment
        triples = [] if config.drop_triples else [t for t, _score in af.triples]
        if config.triple_keep_fraction < 1.0:
            krng = np.random.default_rng(derive_seed(config.seed, "keep", frag.entity_id, frag.index))
            triples = [t for t in triples if krng.random() < config.triple_keep_fraction]
        noised = [False] * len(triples)
        if config.value_noise:
            nrng = np.random.default_rng(derive_seed(config.seed, "noise", frag.entity_id, frag.index))
            noised = [nrng.random() < 0.5 for _ in triples]
        chosen = list(zip(triples, noised))

        ex_seed = derive_seed(config.seed, frag.entity_id, frag.index)
        # The triple choice and the corruptions draw only with a triple or a heading.
        rng = np.random.default_rng(ex_seed) if chosen or not config.drop_headings else None
        if per_example is not None and len(chosen) > per_example:
            picked = rng.choice(len(chosen), size=per_example, replace=False).tolist()
            chosen = [chosen[i] for i in sorted(picked)]

        tmt_label: int | None = None
        heading = heading_ids = None
        if not config.drop_headings:
            heading, tmt_label, skipped = resample_from_pool(
                frag.heading, headings_by_id[frag.entity_id], rng, config.p_neg_tmt
            )
            stats.tmt_skips += skipped
            heading_ids = vocab.encode(heading)

        tc_labels: list[int] = []
        serialized_triples: list[Triple] = []
        triple_ids: list[list[int]] = []
        for triple, noise in chosen:
            out_triple, label, skipped = corrupt_triple(triple, predicates, rng, config.p_neg_tc)
            stats.tc_skips += skipped
            tc_labels.append(label)
            serialized_triples.append(out_triple)
            obj = vocab.encode(out_triple.object)
            if noise:
                obj = [UNK_ID] * len(obj)
            triple_ids.append(vocab.encode(out_triple.subject) + vocab.encode(out_triple.predicate) + obj)

        # No heading and no triples gives the plain-text form.
        ids, layout = assemble_input(frag.token_ids, heading_ids, triple_ids, config.max_seq_len)
        # Truncation may have shed low-scored triples; align the labels.
        n_kept = len(layout.triples)
        debug = None
        if keep_debug and config.drop_headings and not chosen:
            debug = {"heading": None, "predicates": []}
        elif keep_debug:
            debug = {
                "heading": frag.heading,
                "serialized_heading": heading,
                "predicates": [t.predicate for t, _noise in chosen[:n_kept]],
                "serialized_predicates": [t.predicate for t in serialized_triples[:n_kept]],
            }
        streams[len(examples)] = rng
        examples.append(
            PretrainExample(
                input_ids=ids,
                layout=layout,
                mlm_labels=[],
                tc_labels=tc_labels[:n_kept],
                tmt_label=tmt_label,
                seed=ex_seed,
                debug=debug,
            )
        )
    return SerializedExamples(examples, streams, len(vocab), config), stats


def generate_pretrain_examples(
    corpus: Corpus,
    aligned: list[AlignedFragment],
    vocab: Vocab,
    config: SamplerConfig,
    keep_debug: bool = False,
) -> tuple[list[PretrainExample], GenStats]:
    """Degrade, corrupt, serialize, and mask every aligned fragment: the
    examples of `serialize_pretrain_examples`, each one masked."""
    serialized, stats = serialize_pretrain_examples(corpus, aligned, vocab, config, keep_debug)
    return serialized.all_masked(), stats


# ---------------------------------------------------------------------------
# Example file format
# ---------------------------------------------------------------------------

FORMAT_TAG = "hklm-ex"
FORMAT_VERSION = 1


def example_to_json(ex: PretrainExample) -> dict:
    return {
        "ids": list(ex.input_ids),
        "seg": list(ex.layout.seg_ids),
        "sep0": -1 if ex.layout.sep0_pos is None else ex.layout.sep0_pos,
        "seps": ex.layout.sep_positions(),
        "mlm": [[p, o] for p, o in ex.mlm_labels],
        "tc": list(ex.tc_labels),
        "tmt": -1 if ex.tmt_label is None else ex.tmt_label,
        "seed": ex.seed,
    }


def write_examples(examples: list[PretrainExample], path, vocab_hash: str) -> None:
    """The format header line, then one line per example."""
    header = {"format": FORMAT_TAG, "version": FORMAT_VERSION, "vocab_hash": vocab_hash}
    write_jsonl(path, [header, *map(example_to_json, examples)])
