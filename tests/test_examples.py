import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import align_whole
from hklm.corpus import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIAL,
    SEP0_ID,
    SEP_ID,
    SEPI_IDS,
    UNK_ID,
    Triple,
    build_vocab,
    generate_synthetic_corpus,
)
from hklm.corpus import derive_seed
from hklm.examples import (
    SEG_HEADING,
    SEG_TEXT,
    ExampleError,
    PretrainExample,
    SamplerConfig,
    SegmentLayout,
    apply_mlm_mask,
    assemble_input,
    corrupt_triple,
    example_to_json,
    generate_pretrain_examples,
    resample_from_pool,
    write_examples,
)


@pytest.fixture(scope="module")
def synth_aligned():
    corpus, _ = generate_synthetic_corpus(11, 12)
    vocab = build_vocab(corpus, 1)
    aligned = align_whole(corpus, vocab)
    return corpus, vocab, aligned


class TestAssemble:
    def test_zero_triples(self):
        ids, layout = assemble_input([20, 21, 22], [30], [], 64)
        assert ids == [CLS_ID, 20, 21, 22, SEP0_ID, 30]
        assert layout.sep0_pos == 4
        assert layout.seg_ids == [0, 0, 0, 0, 1, 1]
        assert layout.triples == []
        assert not any(i in SEPI_IDS for i in ids)

    def test_two_triples_sep_order(self):
        ids, layout = assemble_input([20], [30], [[40, 41], [50]], 64)
        assert ids == [CLS_ID, 20, SEP0_ID, 30, SEPI_IDS[0], 40, 41, SEPI_IDS[1], 50]
        assert layout.sep_positions() == [4, 7]
        assert layout.triples[0][1] == (5, 7)
        assert layout.triples[1][1] == (8, 9)

    def test_segment_ids(self):
        ids, layout = assemble_input([20], [30], [[40]], 64)
        assert layout.seg_ids == [0, 0, 1, 1, 2, 2]

    def test_plain_form(self):
        ids, layout = assemble_input([20, 21], None, [], 64)
        assert ids == [CLS_ID, 20, 21, SEP_ID]
        assert layout.sep0_pos is None
        assert layout.seg_ids == [0, 0, 0, 0]

    def test_truncation_sheds_triples_then_heading(self):
        # core = 3, heading = 2, triples 2x2 tokens -> total 3+2+6 = 11
        ids, layout = assemble_input([20], [30, 31], [[40, 41], [50, 51]], 8)
        # one triple dropped (lowest-scored end), heading intact
        assert ids == [CLS_ID, 20, SEP0_ID, 30, 31, SEPI_IDS[0], 40, 41]
        assert len(layout.triples) == 1
        assert layout.seg_ids == [0, 0, 1, 1, 1, 2, 2, 2]
        # all triples dropped, heading still whole
        ids2, layout2 = assemble_input([20], [30, 31], [[40, 41], [50, 51]], 5)
        assert ids2 == [CLS_ID, 20, SEP0_ID, 30, 31]
        assert layout2.triples == []
        # heading tokens shed from the end, [SEP0] core untouched
        ids3, layout3 = assemble_input([20], [30, 31], [[40, 41], [50, 51]], 4)
        assert ids3 == [CLS_ID, 20, SEP0_ID, 30]
        assert layout3.sep0_pos == 2
        assert layout3.seg_ids == [0, 0, 1, 1]

    def test_core_overflow_raises(self):
        with pytest.raises(ExampleError):
            assemble_input(list(range(20, 60)), [30], [], 16)

    def test_too_many_triples_raises(self):
        with pytest.raises(ExampleError):
            assemble_input([20], [30], [[40]] * 9, 512)

    def test_headingless_form(self):
        ids, layout = assemble_input([20], None, [[40, 41], [50]], 64)
        assert ids == [CLS_ID, 20, SEPI_IDS[0], 40, 41, SEPI_IDS[1], 50]
        assert layout.sep0_pos is None
        assert layout.triples == [(2, (3, 5)), (5, (6, 7))]
        assert layout.seg_ids == [0, 0, 2, 2, 2, 2, 2]
        assert SEP0_ID not in ids and SEP_ID not in ids

    def test_headingless_truncation_sheds_triples(self):
        ids, layout = assemble_input([20], None, [[40, 41], [50, 51]], 5)
        assert ids == [CLS_ID, 20, SEPI_IDS[0], 40, 41]
        assert len(layout.triples) == 1
        # Every triple cut: [CLS] text with no trailing [SEP], unlike the plain form.
        ids2, layout2 = assemble_input([20, 21], None, [[40, 41]], 3)
        assert ids2 == [CLS_ID, 20, 21]
        assert layout2.triples == [] and layout2.sep0_pos is None
        assert layout2.seg_ids == [0, 0, 0]

    def test_headingless_core_overflow_raises(self):
        with pytest.raises(ExampleError, match="core length"):
            assemble_input(list(range(20, 40)), None, [[40]], 16)

    def test_headingless_too_many_triples_raises(self):
        with pytest.raises(ExampleError):
            assemble_input([20], None, [[40]] * 9, 512)

    @settings(max_examples=300)
    @given(
        st.lists(st.integers(16, 99), max_size=20),
        st.one_of(st.none(), st.lists(st.integers(16, 99), max_size=4)),
        st.lists(st.lists(st.integers(16, 99), min_size=1, max_size=4), max_size=8),
        st.integers(16, 40),
    )
    def test_matches_reference_assemblers(self, text, heading, triples, max_len):
        """All three forms equal the former separate assemblers, truncation
        and errors included."""
        try:
            if heading is None and triples:
                expected = oracles.assemble_headingless(text, triples, max_len)
            else:
                expected = oracles.assemble_input(text, heading, triples, max_len)
        except ExampleError as exc:
            with pytest.raises(ExampleError, match=re.escape(str(exc))):
                assemble_input(text, heading, triples, max_len)
            return
        assert assemble_input(text, heading, triples, max_len) == expected

    @given(
        st.lists(st.integers(16, 99), min_size=1, max_size=20),
        st.lists(st.integers(16, 99), min_size=1, max_size=3),
        st.lists(st.lists(st.integers(16, 99), min_size=1, max_size=4), max_size=8),
    )
    def test_roundtrip_reconstruction(self, text, heading, triples):
        ids, layout = assemble_input(text, heading, triples, 512)
        sep0 = layout.sep0_pos
        assert ids[1:sep0] == text
        heading_end = layout.triples[0][0] if layout.triples else len(ids)
        assert ids[sep0 + 1:heading_end] == heading
        assert layout.seg_ids[:heading_end] == [SEG_TEXT] * sep0 + [SEG_HEADING] * (heading_end - sep0)
        got_triples = [ids[ts:te] for _, (ts, te) in layout.triples]
        assert got_triples == triples
        for k, (pos, _) in enumerate(layout.triples):
            assert ids[pos] == SEPI_IDS[k]


class TestCorruption:
    def test_p_neg_zero_always_positive(self):
        rng = np.random.default_rng(0)
        t = Triple("s", "p", "o")
        for _ in range(50):
            out, label, skipped = corrupt_triple(t, ["p", "q"], rng, 0.0)
            assert (out, label, skipped) == (t, 1, False)

    def test_two_element_universe_forced(self):
        rng = np.random.default_rng(0)
        t = Triple("s", "location", "o")
        seen = set()
        for _ in range(200):
            out, label, _ = corrupt_triple(t, ["area", "location"], rng, 1.0)
            assert label == 0
            assert out.predicate == "area"
            assert out.subject == "s" and out.object == "o"
            seen.add(out.predicate)
        assert seen == {"area"}

    def test_singleton_universe_skips(self):
        rng = np.random.default_rng(0)
        t = Triple("s", "p", "o")
        out, label, skipped = corrupt_triple(t, ["p"], rng, 1.0)
        assert (out, label, skipped) == (t, 1, True)

    def test_replacement_never_equals_original(self):
        rng = np.random.default_rng(3)
        preds = [f"p{i}" for i in range(10)]
        t = Triple("s", "p4", "o")
        for _ in range(2000):
            out, label, _ = corrupt_triple(t, preds, rng, 1.0)
            assert out.predicate != "p4"

    def test_uniformity_small(self):
        rng = np.random.default_rng(5)
        preds = [f"p{i}" for i in range(10)]
        t = Triple("s", "p0", "o")
        counts = {}
        n = 30000
        for _ in range(n):
            out, _, _ = corrupt_triple(t, preds, rng, 1.0)
            counts[out.predicate] = counts.get(out.predicate, 0) + 1
        assert len(counts) == 9
        for c in counts.values():
            assert abs(c / n - 1 / 9) < 0.01

    def test_heading_forced_replacement(self):
        rng = np.random.default_rng(0)
        out, label, _ = resample_from_pool("Abstract", ["Abstract", "History"], rng, 1.0)
        assert (out, label) == ("History", 0)

    def test_heading_p_neg_one_always_negative(self):
        rng = np.random.default_rng(0)
        headings = ["a", "b", "c"]
        for _ in range(100):
            out, label, _ = resample_from_pool("a", headings, rng, 1.0)
            assert label == 0
            assert out != "a"

    def test_heading_singleton_skips(self):
        rng = np.random.default_rng(0)
        out, label, skipped = resample_from_pool("a", ["a"], rng, 1.0)
        assert (out, label, skipped) == ("a", 1, True)

    def test_heading_uniformity(self):
        rng = np.random.default_rng(9)
        headings = [f"h{i}" for i in range(5)]
        counts = {}
        n = 20000
        for _ in range(n):
            out, _, _ = resample_from_pool("h0", headings, rng, 1.0)
            counts[out] = counts.get(out, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / n - 0.25) < 0.01


class TestMasking:
    def _cfg(self, **kw):
        base = dict(mask_prob=0.15, seed=0)
        base.update(kw)
        return SamplerConfig(**base)

    def test_mask_prob_zero_noop(self):
        rng = np.random.default_rng(0)
        ids = [CLS_ID] + list(range(20, 40))
        masked, labels = apply_mlm_mask(ids, 100, rng, self._cfg(mask_prob=0.0))
        assert masked == ids
        assert labels == []

    def test_all_special_no_labels(self):
        rng = np.random.default_rng(0)
        ids = [CLS_ID, SEP0_ID, SEPI_IDS[0], SEP_ID, UNK_ID]
        masked, labels = apply_mlm_mask(ids, 100, rng, self._cfg(mask_prob=1.0))
        assert masked == ids
        assert labels == []

    def test_labels_record_originals(self):
        rng = np.random.default_rng(1)
        ids = [CLS_ID] + list(range(20, 120))
        masked, labels = apply_mlm_mask(ids, 200, rng, self._cfg(mask_prob=0.5))
        for pos, orig in labels:
            assert ids[pos] == orig
            assert orig >= NUM_SPECIAL
        unmasked = set(range(len(ids))) - {p for p, _ in labels}
        for pos in unmasked:
            assert masked[pos] == ids[pos]

    def test_random_replacements_nonspecial(self):
        rng = np.random.default_rng(2)
        ids = [CLS_ID] + [50] * 5000
        masked, labels = apply_mlm_mask(ids, 200, rng, self._cfg())
        for pos, orig in labels:
            assert masked[pos] == MASK_ID or masked[pos] >= NUM_SPECIAL

    @pytest.mark.parametrize("vocab_size", [NUM_SPECIAL, NUM_SPECIAL + 1, 500])
    @pytest.mark.parametrize("mask_prob", [0.0, 0.15, 1.0])
    def test_matches_reference_and_draw_count(self, vocab_size, mask_prob):
        cfg = self._cfg(mask_prob=mask_prob, mask_token_frac=0.5, random_token_frac=0.3)
        source = np.random.default_rng(4)
        for n in (0, 1, 7, 45, 300):
            ids = [int(x) for x in source.integers(0, vocab_size + 4, n)]
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = apply_mlm_mask(ids, vocab_size, rng, cfg)
            assert got == oracles.apply_mlm_mask(ids, vocab_size, ref_rng, cfg)
            assert all(type(x) is int for x in got[0])
            assert all(type(p) is int and type(o) is int for p, o in got[1])
            # The same number of draws: the streams stay in step.
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_monte_carlo_rates(self):
        cfg = self._cfg()
        n_positions = 0
        n_selected = 0
        n_masked = n_rand = n_keep = 0
        rng = np.random.default_rng(42)
        ids = [77] * 2000
        for _ in range(50):
            masked, labels = apply_mlm_mask(ids, 500, rng, cfg)
            n_positions += len(ids)
            n_selected += len(labels)
            for pos, orig in labels:
                if masked[pos] == MASK_ID:
                    n_masked += 1
                elif masked[pos] == orig:
                    n_keep += 1
                else:
                    n_rand += 1
        assert abs(n_selected / n_positions - 0.15) < 0.01
        assert abs(n_masked / n_selected - 0.8) < 0.02
        assert abs(n_rand / n_selected - 0.1) < 0.02
        assert abs(n_keep / n_selected - 0.1) < 0.02


class TestGeneration:
    def test_label_soundness_via_debug(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        cfg = SamplerConfig(seed=3)
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg, keep_debug=True)
        assert len(examples) == len(aligned)
        n_neg_tc = n_neg_tmt = 0
        for ex in examples:
            assert (ex.tmt_label == 0) == (ex.debug["serialized_heading"] != ex.debug["heading"])
            for label, orig, ser in zip(
                ex.tc_labels, ex.debug["predicates"], ex.debug["serialized_predicates"]
            ):
                assert (label == 0) == (orig != ser)
                n_neg_tc += label == 0
            n_neg_tmt += ex.tmt_label == 0
        assert n_neg_tc > 0 and n_neg_tmt > 0

    def test_stream_deterministic(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        cfg = SamplerConfig(seed=3)
        a, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
        b, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
        assert [example_to_json(x) for x in a] == [example_to_json(x) for x in b]

    def test_masked_positions_inside_spans(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, SamplerConfig(seed=3))
        for ex in examples:
            # Text, heading and triples: every position but the separators.
            separators = {0, ex.layout.sep0_pos, *ex.layout.sep_positions()}
            for pos, _ in ex.mlm_labels:
                assert 0 <= pos < len(ex.input_ids) and pos not in separators
                assert ex.input_ids[pos] != CLS_ID

    def test_drop_headings_removes_sep0(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, SamplerConfig(seed=3, drop_headings=True))
        for ex in examples:
            assert SEP0_ID not in ex.input_ids
            assert ex.tmt_label is None

    def test_drop_triples_removes_sepi(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, SamplerConfig(seed=3, drop_triples=True))
        for ex in examples:
            assert not set(SEPI_IDS) & set(ex.input_ids)
            assert ex.tc_labels == []

    def test_drop_both_equals_plain_form(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        cfg = SamplerConfig(seed=3, drop_headings=True, drop_triples=True)
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
        for ex in examples:
            assert ex.input_ids[0] == CLS_ID and ex.input_ids[-1] == SEP_ID
            assert ex.layout.sep0_pos is None and not ex.layout.triples

    def test_identity_ablation_is_noop(self, synth_aligned):
        # Below 1 the keep coins are drawn, from a stream of their own; the
        # largest float below 1 keeps every triple.
        corpus, vocab, aligned = synth_aligned
        cfg = SamplerConfig(seed=3)
        keep_all = SamplerConfig(seed=3, triple_keep_fraction=float(np.nextafter(1.0, 0.0)))
        a, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
        b, _ = generate_pretrain_examples(corpus, aligned, vocab, keep_all)
        assert [example_to_json(x) for x in a] == [example_to_json(x) for x in b]

    def test_keep_fraction_count(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        total = sum(len(af.triples) for af in aligned)

        def serialized(**kw):
            # Long enough that the length budget sheds no triple.
            cfg = SamplerConfig(seed=3, max_seq_len=4096, **kw)
            examples, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
            return sum(len(ex.layout.triples) for ex in examples)

        assert serialized() == total
        assert abs(serialized(triple_keep_fraction=0.5) / total - 0.5) < 0.1

    def test_value_noise_replaces_objects_with_unk(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        cfg = SamplerConfig(seed=3, mask_prob=0.0, p_neg_tc=0.0, p_neg_tmt=0.0, value_noise=True)
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
        aligned_iter = iter(aligned)
        n_noised = 0
        for ex, af in zip(examples, aligned_iter):
            for (pos, (ts, te)), (triple, _score) in zip(ex.layout.triples, af.triples):
                obj_ids = vocab.encode(triple.object)
                tail = ex.input_ids[te - len(obj_ids) : te]
                if all(t == UNK_ID for t in tail):
                    n_noised += 1
        total = sum(len(ex.layout.triples) for ex in examples)
        assert n_noised / total > 0.3

    def test_conflicting_flags_rejected(self):
        with pytest.raises(ExampleError):
            SamplerConfig(drop_triples=True, triple_keep_fraction=0.5)


class TestMaskedWhenFirstRead:
    """A generated epoch masks each example the first time it is read, from
    the example's own stream, so no order of reads changes a byte."""

    MODES = {
        "hklm": SamplerConfig(seed=3),
        "plain": SamplerConfig(seed=3, drop_headings=True, drop_triples=True),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    @given(reads=st.lists(st.integers(-10**6, 10**6), max_size=40))
    def test_any_read_order_gives_the_in_order_examples(self, synth_aligned, mode, reads):
        corpus, vocab, aligned = synth_aligned
        cfg = self.MODES[mode]
        want = [example_to_json(ex) for ex in generate_pretrain_examples(corpus, aligned, vocab, cfg)[0]]
        assert any(ex["mlm"] for ex in want)
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
        n = len(examples)
        for read in reads:
            i = read % (2 * n) - n  # an index from -n to n - 1
            assert example_to_json(examples[i]) == want[i], i
        assert [example_to_json(ex) for ex in examples] == want

    def test_negative_index_is_masked_and_slices_refused(self, synth_aligned):
        corpus, vocab, aligned = synth_aligned
        cfg = self.MODES["hklm"]
        want = list(generate_pretrain_examples(corpus, aligned, vocab, cfg)[0])
        examples, _ = generate_pretrain_examples(corpus, aligned, vocab, cfg)
        n = len(examples)
        assert examples.lengths == [len(ex.input_ids) for ex in want]
        assert example_to_json(examples[-1]) == example_to_json(want[-1])
        assert examples[-1] is examples[n - 1]
        for index in (slice(0, 2), slice(None), 1.0, "0"):
            with pytest.raises(TypeError):
                examples[index]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                examples[index]
        assert list(examples) == want


class TestGenerationMatchesReference:
    """Generation equals the former per-position numpy loop byte for byte,
    debug records and statistics included."""

    @pytest.fixture(scope="class")
    def short_fragments(self):
        # 48-token fragments under a 50-token budget: triples get cut for
        # length, some of them all the way.
        corpus, _ = generate_synthetic_corpus(11, 12)
        vocab = build_vocab(corpus, 1)
        return corpus, vocab, align_whole(corpus, vocab, max_len=48)

    CASES = {
        "hklm": {},
        "plain": dict(drop_headings=True, drop_triples=True),
        "drop-headings": dict(drop_headings=True),
        "drop-triples": dict(drop_triples=True),
        "keep-half": dict(triple_keep_fraction=0.5),
        "value-noise": dict(value_noise=True),
        "one-per-example": dict(triples_per_example=1),
        "two-per-example-noisy": dict(triples_per_example=2, value_noise=True, triple_keep_fraction=0.7),
        "all-negative": dict(p_neg_tc=1.0, p_neg_tmt=1.0, mask_prob=0.5),
    }

    @staticmethod
    def _assert_same(got, want):
        (got_ex, got_stats), (want_ex, want_stats) = got, want
        assert [example_to_json(x) for x in got_ex] == [example_to_json(x) for x in want_ex]
        assert [x.debug for x in got_ex] == [x.debug for x in want_ex]
        assert list(got_ex) == want_ex
        assert got_stats == want_stats

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, synth_aligned, case):
        corpus, vocab, aligned = synth_aligned
        for epoch_seed in (3, derive_seed(3, "epoch", 1)):  # two epochs' streams
            cfg = SamplerConfig(seed=epoch_seed, **self.CASES[case])
            got = generate_pretrain_examples(corpus, aligned, vocab, cfg, keep_debug=True)
            want = oracles.generate_pretrain_examples(corpus, aligned, vocab, cfg, keep_debug=True)
            self._assert_same(got, want)

    @pytest.mark.parametrize("drop_headings", [False, True])
    def test_truncated_triples(self, short_fragments, drop_headings):
        corpus, vocab, aligned = short_fragments
        cfg = SamplerConfig(seed=5, max_seq_len=50, drop_headings=drop_headings)
        got = generate_pretrain_examples(corpus, aligned, vocab, cfg, keep_debug=True)
        want = oracles.generate_pretrain_examples(corpus, aligned, vocab, cfg, keep_debug=True)
        self._assert_same(got, want)
        cut = [ex for ex, af in zip(got[0], aligned) if af.triples and not ex.layout.triples]
        assert cut, "no example lost every triple to the length budget"
        if drop_headings:
            assert all(ex.input_ids[-1] != SEP_ID and ex.layout.sep0_pos is None for ex in cut)


class TestExampleIO:
    def _random_examples(self, n, rng):
        out = []
        for i in range(n):
            n_text = int(rng.integers(1, 12))
            n_tr = int(rng.integers(0, 4))
            text = [int(x) for x in rng.integers(16, 90, n_text)]
            triples = [[int(x) for x in rng.integers(16, 90, int(rng.integers(1, 4)))] for _ in range(n_tr)]
            ids, layout = assemble_input(text, [int(rng.integers(16, 90))], triples, 512)
            n_mask = int(rng.integers(0, max(1, n_text // 2) + 1))
            mlm = [(1 + int(p), ids[1 + int(p)]) for p in rng.choice(n_text, n_mask, replace=False)]
            out.append(
                PretrainExample(
                    input_ids=ids,
                    layout=layout,
                    mlm_labels=sorted(mlm),
                    tc_labels=[int(rng.integers(0, 2)) for _ in range(n_tr)],
                    tmt_label=int(rng.integers(0, 2)),
                    seed=int(rng.integers(0, 2**63)),
                )
            )
        return out

    @staticmethod
    def _read(path):
        """The header object and the record lines of an example file."""
        header, *records = path.read_text().splitlines()
        return json.loads(header), records

    def test_roundtrip_field_for_field(self, tmp_path):
        rng = np.random.default_rng(0)
        examples = self._random_examples(50, rng)
        path = tmp_path / "ex.jsonl"
        write_examples(examples, path, "cafe01")
        header, records = self._read(path)
        assert header == {"format": "hklm-ex", "version": 1, "vocab_hash": "cafe01"}
        assert records == [json.dumps(example_to_json(ex)) for ex in examples]

    def test_empty_list_header_only(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        write_examples([], path, "00")
        header, records = self._read(path)
        assert header["format"] == "hklm-ex"
        assert records == []

    def test_10k_roundtrip_checksum_stable(self, tmp_path):
        def checksum(seed):
            rng = np.random.default_rng(seed)
            examples = self._random_examples(10000, rng)
            path = tmp_path / f"ex{seed}.jsonl"
            write_examples(examples, path, "h")
            assert self._read(path)[1] == [json.dumps(example_to_json(ex)) for ex in examples]
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert checksum(7) == checksum(7)

    def test_plain_form_roundtrip(self):
        ids, layout = assemble_input([20, 21], None, [], 64)
        ex = PretrainExample(ids, layout, [(1, 20)], [], None, 5)
        assert json.loads(json.dumps(example_to_json(ex))) == {
            "ids": [CLS_ID, 20, 21, SEP_ID], "seg": [0, 0, 0, 0], "sep0": -1, "seps": [],
            "mlm": [[1, 20]], "tc": [], "tmt": -1, "seed": 5,
        }
