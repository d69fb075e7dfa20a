"""Pretraining example assembly: serialization layout, corruption, MLM masking."""

from __future__ import annotations

import json
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
)
from .align import AlignedFragment, Fragment

SEG_TEXT = 0
SEG_HEADING = 1
SEG_TRIPLES = 2


class ExampleError(ValueError):
    pass


@dataclass
class SamplerConfig:
    mask_prob: float = 0.15
    mask_token_frac: float = 0.8
    random_token_frac: float = 0.1
    keep_frac: float = 0.1
    p_neg_tc: float = 0.5
    p_neg_tmt: float = 0.5
    max_seq_len: int = 512
    # When set, each example serializes at most this many of its retrieved
    # triples, sampled uniformly per example. Over re-drawn epochs every
    # retrieved triple still gets serialized while the per-anchor
    # classification stays at a learnable width.
    triples_per_example: int | None = None
    seed: int = 0

    def validate(self) -> None:
        for name in ("mask_prob", "p_neg_tc", "p_neg_tmt"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ExampleError(f"{name} must be in [0, 1], got {v}")
        total = self.mask_token_frac + self.random_token_frac + self.keep_frac
        if abs(total - 1.0) > 1e-9:
            raise ExampleError(f"mask split must sum to 1, got {total}")
        if self.max_seq_len < 16:
            raise ExampleError("max_seq_len must be >= 16")
        if self.triples_per_example is not None and self.triples_per_example < 1:
            raise ExampleError("triples_per_example must be >= 1 when set")


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

    @property
    def length(self) -> int:
        return len(self.seg_ids)

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
    n_examples: int = 0
    tc_skips: int = 0
    tmt_skips: int = 0
    triples_kept: int = 0
    triples_dropped: int = 0
    objects_noised: int = 0


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
        ids.append(SEP_ID)
        if len(ids) > max_seq_len:
            raise ExampleError(f"text length {len(ids)} exceeds max_seq_len {max_seq_len}")
        return ids, SegmentLayout(text_span, None, (0, 0), [], [SEG_TEXT] * len(ids))

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


def corrupt_triple(
    triple: Triple, predicates: list[str], rng, p_neg: float
) -> tuple[Triple, int, bool]:
    """Attribute resampling: with probability p_neg swap the predicate for a
    uniform draw over the other attributes in the KG. Subject and object are
    never altered. Returns (triple, label, skipped); label 1 means intact.
    """
    if rng.random() < p_neg:
        alternatives = [p for p in predicates if p != triple.predicate]
        if not alternatives:
            return triple, 1, True
        new_pred = alternatives[int(rng.integers(0, len(alternatives)))]
        return Triple(triple.subject, new_pred, triple.object), 0, False
    return triple, 1, False


def corrupt_heading(
    heading: str, doc_headings: list[str], rng, p_neg: float
) -> tuple[str, int, bool]:
    """Heading resampling over the other headings of the same document."""
    if rng.random() < p_neg:
        alternatives = sorted(set(doc_headings) - {heading})
        if not alternatives:
            return heading, 1, True
        return alternatives[int(rng.integers(0, len(alternatives)))], 0, False
    return heading, 1, False


def apply_mlm_mask(
    input_ids: list[int], vocab_size: int, rng, config: SamplerConfig
) -> tuple[list[int], list[tuple[int, int]]]:
    """BERT-style masking over non-special positions.

    Each position with id >= NUM_SPECIAL is independently selected with
    probability mask_prob; selected positions become [MASK] / a random
    non-special id / stay put at the configured split. Three fixed-length
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
# Ablation and example generation
# ---------------------------------------------------------------------------


@dataclass
class AblationConfig:
    drop_headings: bool = False
    drop_triples: bool = False
    triple_keep_fraction: float = 1.0
    value_noise: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.triple_keep_fraction <= 1.0:
            raise ExampleError(f"triple_keep_fraction must be in [0, 1], got {self.triple_keep_fraction}")
        if self.drop_triples and self.triple_keep_fraction < 1.0:
            raise ExampleError("drop_triples conflicts with triple_keep_fraction < 1")

    @property
    def is_identity(self) -> bool:
        return (
            not self.drop_headings
            and not self.drop_triples
            and self.triple_keep_fraction >= 1.0
            and not self.value_noise
        )


@dataclass
class AblatedFragment:
    fragment: Fragment
    include_heading: bool
    triples: list[tuple[Triple, float, bool]]  # (triple, score, noise_object)


def apply_ablation(
    aligned: list[AlignedFragment], ablation: AblationConfig, master_seed: int
) -> tuple[list[AblatedFragment], GenStats]:
    """Structural KG-degradation pass over the aligned stream.

    Keep/noise coins use rng streams derived separately from the corruption
    and masking streams, so keep_fraction=1 with no noise is bit-identical
    to the unablated pipeline.
    """
    ablation.validate()
    stats = GenStats()
    out: list[AblatedFragment] = []
    for af in aligned:
        frag = af.fragment
        triples: list[tuple[Triple, float, bool]] = []
        if not ablation.drop_triples:
            kept = list(af.triples)
            if ablation.triple_keep_fraction < 1.0:
                krng = np.random.default_rng(
                    derive_seed(master_seed, "keep", frag.entity_id, frag.index)
                )
                kept = [ts for ts in kept if krng.random() < ablation.triple_keep_fraction]
                stats.triples_dropped += len(af.triples) - len(kept)
            noise_flags = [False] * len(kept)
            if ablation.value_noise:
                nrng = np.random.default_rng(
                    derive_seed(master_seed, "noise", frag.entity_id, frag.index)
                )
                noise_flags = [nrng.random() < 0.5 for _ in kept]
                stats.objects_noised += sum(noise_flags)
            triples = [(t, s, nf) for (t, s), nf in zip(kept, noise_flags)]
            stats.triples_kept += len(triples)
        else:
            stats.triples_dropped += len(af.triples)
        out.append(
            AblatedFragment(
                fragment=frag,
                include_heading=not ablation.drop_headings,
                triples=triples,
            )
        )
    return out, stats


def generate_pretrain_examples(
    corpus: Corpus,
    aligned: list[AlignedFragment],
    vocab: Vocab,
    config: SamplerConfig,
    ablation: AblationConfig | None = None,
    keep_debug: bool = False,
) -> tuple[list[PretrainExample], GenStats]:
    """Corrupt, serialize, and mask every aligned fragment.

    Per-example rng seeds derive from (master seed, entity_id, fragment
    index), so generation order and parallelism cannot change the output.
    Corruption draws happen before masking draws; structural ablation uses
    its own derived streams.
    """
    config.validate()
    ablation = ablation or AblationConfig()
    ablated, stats = apply_ablation(aligned, ablation, config.seed)

    predicates = corpus.predicates()
    headings_by_id = {doc.entity_id: doc.headings() for doc in corpus}
    vocab_size = len(vocab)
    per_example = config.triples_per_example
    examples: list[PretrainExample] = []
    for ab in ablated:
        frag = ab.fragment
        ex_seed = derive_seed(config.seed, frag.entity_id, frag.index)
        rng = np.random.default_rng(ex_seed)

        chosen = ab.triples
        if per_example is not None and len(chosen) > per_example:
            picked = rng.choice(len(chosen), size=per_example, replace=False).tolist()
            chosen = [chosen[i] for i in sorted(picked)]

        tmt_label: int | None = None
        heading = heading_ids = None
        if ab.include_heading:
            heading, tmt_label, skipped = corrupt_heading(
                frag.heading, headings_by_id[frag.entity_id], rng, config.p_neg_tmt
            )
            stats.tmt_skips += skipped
            heading_ids = vocab.encode(heading)

        tc_labels: list[int] = []
        serialized_triples: list[Triple] = []
        triple_ids: list[list[int]] = []
        for triple, _score, noise in chosen:
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
        masked, mlm_labels = apply_mlm_mask(ids, vocab_size, rng, config)
        debug = None
        if keep_debug and not ab.include_heading and not ab.triples:
            debug = {"heading": None, "predicates": []}
        elif keep_debug:
            debug = {
                "heading": frag.heading,
                "serialized_heading": heading,
                "predicates": [t.predicate for t, _s, _n in chosen[:n_kept]],
                "serialized_predicates": [t.predicate for t in serialized_triples[:n_kept]],
            }
        examples.append(
            PretrainExample(
                input_ids=masked,
                layout=layout,
                mlm_labels=mlm_labels,
                tc_labels=tc_labels[:n_kept],
                tmt_label=tmt_label,
                seed=ex_seed,
                debug=debug,
            )
        )
    stats.n_examples += len(examples)
    return examples, stats


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


def example_from_json(obj: dict) -> PretrainExample:
    ids = list(obj["ids"])
    seg = list(obj["seg"])
    sep0 = obj["sep0"]
    seps = list(obj["seps"])
    n = len(ids)
    if sep0 < 0:
        # Plain form [CLS] text [SEP], or headingless ablation.
        if seps:
            text_end = seps[0]
        elif n and ids[-1] == SEP_ID:
            text_end = n - 1
        else:
            text_end = n
        heading_span = (0, 0)
        sep0_pos = None
    else:
        text_end = sep0
        sep0_pos = sep0
        heading_end = seps[0] if seps else n
        heading_span = (sep0 + 1, heading_end)
    triples = []
    for j, pos in enumerate(seps):
        end = seps[j + 1] if j + 1 < len(seps) else n
        triples.append((pos, (pos + 1, end)))
    layout = SegmentLayout(
        text_span=(1, text_end),
        sep0_pos=sep0_pos,
        heading_span=heading_span,
        triples=triples,
        seg_ids=seg,
    )
    return PretrainExample(
        input_ids=ids,
        layout=layout,
        mlm_labels=[(int(p), int(o)) for p, o in obj["mlm"]],
        tc_labels=[int(x) for x in obj["tc"]],
        tmt_label=None if obj["tmt"] < 0 else int(obj["tmt"]),
        seed=int(obj["seed"]),
    )


def write_examples(
    examples: list[PretrainExample], path, vocab_hash: str, debug_sidecar: bool = False
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": FORMAT_TAG, "version": FORMAT_VERSION, "vocab_hash": vocab_hash}) + "\n")
        for ex in examples:
            fh.write(json.dumps(example_to_json(ex)) + "\n")
    if debug_sidecar:
        with open(str(path) + ".debug.jsonl", "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(json.dumps(ex.debug or {}) + "\n")


def read_examples(path) -> tuple[list[PretrainExample], str]:
    """Returns (examples, vocab_hash); raises on version mismatch or truncation."""
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ExampleError("truncated or corrupt example file header") from exc
        if header.get("format") != FORMAT_TAG:
            raise ExampleError(f"unrecognized example file format {header.get('format')!r}")
        if header.get("version") != FORMAT_VERSION:
            raise ExampleError(
                f"example file version {header.get('version')} != supported {FORMAT_VERSION}"
            )
        examples = []
        for lineno, line in enumerate(fh, start=2):
            if not line.endswith("\n"):
                raise ExampleError(f"truncated example file at line {lineno}")
            try:
                examples.append(example_from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ExampleError(f"corrupt example record at line {lineno}") from exc
    return examples, header["vocab_hash"]
