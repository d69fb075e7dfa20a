import json
from collections import Counter

import numpy as np
import pytest

from hklm import align, pretrain
from hklm.checkpoint import save_checkpoint
from hklm.corpus import SEP0_ID, SEPI_IDS, build_vocab, generate_synthetic_corpus
from hklm.encoder import param_names
from hklm.pretrain import (
    ConfigError,
    DivergenceError,
    MetricsRecord,
    TrainConfig,
    build_aligned,
    build_examples,
    evaluate_pretrain_heads,
    head_accuracy,
    init_params_seeded,
    run_pretraining,
    split_corpus,
    unigram_baseline_accuracy,
    write_metrics,
)


def small_cfg(**kw):
    base = dict(
        mode="hklm", steps=8, eval_every=4, seed=5, batch_size=8,
        d_model=32, n_layers=1, n_heads=2, heldout_fraction=0.15,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus30():
    corpus, _ = generate_synthetic_corpus(13, 30)
    return corpus


class TestConfig:
    def test_plain_mode_rejects_kg_degradation(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="plain", triple_keep_fraction=0.5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(mode="plain", value_noise=True).validate()

    def test_conflicting_ablations_rejected(self):
        with pytest.raises(Exception):
            TrainConfig(mode="hklm", drop_triples=True, triple_keep_fraction=0.5).validate()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="bert").validate()

    def test_json_roundtrip(self):
        cfg = small_cfg(lam=0.5, value_noise=True)
        again = TrainConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_json({"modex": 1})

    def test_effective_lr(self):
        assert small_cfg(lr=3e-5, lr_scale=10.0).effective_lr() == pytest.approx(3e-4)


class TestSplit:
    def test_split_sizes_and_disjoint(self, corpus30):
        train, held = split_corpus(corpus30, 0.1, 7)
        assert len(train) + len(held) == len(corpus30)
        assert len(held) == 3
        assert not {d.entity_id for d in train} & {d.entity_id for d in held}

    def test_too_small_rejected(self):
        corpus, _ = generate_synthetic_corpus(1, 1)
        with pytest.raises(ConfigError, match="too small"):
            split_corpus(corpus, 0.05, 0)

    def test_seeded_and_deterministic(self, corpus30):
        a1, _ = split_corpus(corpus30, 0.1, 7)
        a2, _ = split_corpus(corpus30, 0.1, 7)
        b, _ = split_corpus(corpus30, 0.1, 8)
        assert [d.entity_id for d in a1] == [d.entity_id for d in a2]
        assert [d.entity_id for d in a1] != [d.entity_id for d in b]


class TestBuildAligned:
    def test_fragments_each_split_once_and_triples_once_per_document(
        self, synth20, synth20_vocab, monkeypatch
    ):
        corpus, _ = synth20
        real_fragment = pretrain.fragment_corpus
        real_triple_ids = align.triple_token_ids
        fragmented: list[list[str]] = []
        triple_ids_calls: Counter[int] = Counter()

        def counting_fragment(sub, *args, **kwargs):
            fragmented.append([doc.entity_id for doc in sub])
            return real_fragment(sub, *args, **kwargs)

        def counting_triple_ids(triple, vocab):
            triple_ids_calls[id(triple)] += 1
            return real_triple_ids(triple, vocab)

        monkeypatch.setattr(pretrain, "fragment_corpus", counting_fragment)
        monkeypatch.setattr(align, "fragment_corpus", counting_fragment)
        monkeypatch.setattr(align, "triple_token_ids", counting_triple_ids)

        cfg = small_cfg(max_fragment_len=48)
        train, held = build_aligned(cfg, corpus, synth20_vocab)
        train_corpus, held_corpus = split_corpus(corpus, cfg.heldout_fraction, cfg.seed)
        assert fragmented == [
            [doc.entity_id for doc in train_corpus],
            [doc.entity_id for doc in held_corpus],
        ]
        # Documents hold several fragments each, so per-fragment work would show.
        assert len(train) > 2 * len(train_corpus) and len(held) > 2 * len(held_corpus)
        # A training triple is serialized once for the TF-IDF index and once
        # for retrieval; a held-out triple only for retrieval.
        expected = Counter({id(t): 2 for doc in train_corpus for t in doc.infobox})
        expected.update(id(t) for doc in held_corpus for t in doc.infobox)
        assert triple_ids_calls == expected


class TestRunPretraining:
    def test_steps_zero_checkpoint_equals_init(self, corpus30, tmp_path):
        cfg = small_cfg(steps=0)
        res = run_pretraining(cfg, corpus30)
        assert res.metrics == []
        init = init_params_seeded(res.model_config, cfg.seed)
        for name in param_names(res.model_config):
            np.testing.assert_array_equal(res.params[name], init[name])

    def test_deterministic_checkpoint_and_metrics(self, corpus30, tmp_path):
        cfg = small_cfg()
        paths = []
        for run in range(2):
            res = run_pretraining(cfg, corpus30)
            ckpt = tmp_path / f"run{run}.ckpt"
            metrics = tmp_path / f"run{run}.jsonl"
            save_checkpoint(ckpt, res.params, res.model_config, res.vocab.hash_hex())
            write_metrics(res.metrics, metrics)
            paths.append((ckpt, metrics))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_drop_both_lambda_mu_zero_trace_equals_plain(self, corpus30):
        hklm_cfg = small_cfg(
            lam=0.0, mu=0.0, drop_headings=True, drop_triples=True, steps=6
        )
        plain_cfg = small_cfg(mode="plain", steps=6)
        rh = run_pretraining(hklm_cfg, corpus30)
        rp = run_pretraining(plain_cfg, corpus30)
        assert rh.loss_trace == rp.loss_trace
        for (t, m, _tc, _tmt) in rh.loss_trace:
            assert t == m

    def test_lambda_sensitivity_of_tc_head(self, corpus30):
        base = small_cfg(steps=4, mu=0.0)
        res_on = run_pretraining(base, corpus30)
        init = init_params_seeded(res_on.model_config, base.seed)
        assert np.abs(res_on.params["tc_w"] - init["tc_w"]).max() > 0

        off = small_cfg(steps=4, lam=0.0, mu=0.0)
        res_off = run_pretraining(off, corpus30)
        np.testing.assert_array_equal(res_off.params["tc_w"], init["tc_w"])
        np.testing.assert_array_equal(res_off.params["tc_b"], init["tc_b"])

    def test_divergence_aborts(self, corpus30):
        cfg = small_cfg(steps=50, lr=1e18, lr_scale=1e18)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            run_pretraining(cfg, corpus30)

    def test_metrics_schema(self, corpus30):
        cfg = small_cfg(steps=4, eval_every=2)
        res = run_pretraining(cfg, corpus30)
        assert [m.step for m in res.metrics] == [2, 4]
        for m in res.metrics:
            obj = m.to_json()
            assert "wallclock" not in obj
            assert set(obj) == {
                "step", "loss_total", "loss_mlm", "loss_tc", "loss_tmt",
                "tc_acc", "tmt_acc", "mlm_acc",
            }
            assert np.isfinite(obj["loss_total"])
            timed = m.to_json(include_timing=True)
            assert timed["wallclock"] >= 0

    def test_grad_accumulation_runs(self, corpus30):
        cfg = small_cfg(steps=2, grad_accum=2)
        res = run_pretraining(cfg, corpus30)
        assert len(res.loss_trace) == 2


class TestHeads:
    def test_random_init_binary_heads_near_chance(self, corpus30):
        cfg = small_cfg(steps=0, heldout_fraction=0.5)
        vocab = build_vocab(corpus30, 1)
        train_ex, held_ex = build_examples(cfg, corpus30, vocab)
        params = init_params_seeded(cfg.model_config(len(vocab)), cfg.seed)
        ev = evaluate_pretrain_heads(params, cfg.model_config(len(vocab)), train_ex + held_ex)
        assert ev["n_tc"] > 300 and ev["n_tmt"] > 80
        assert abs(ev["tc"] - 0.5) < 0.06
        assert abs(ev["tmt"] - 0.5) < 0.08

    def test_oracle_logits_give_accuracy_one(self):
        labels = np.array([0, 1, 1, 0])
        logits = np.zeros((4, 2))
        logits[np.arange(4), labels] = 5.0
        correct, total = head_accuracy(logits, labels)
        assert (correct, total) == (4, 4)

    def test_no_support_returns_none(self, corpus30):
        cfg = small_cfg(mode="plain", steps=0)
        vocab = build_vocab(corpus30, 1)
        train_ex, held_ex = build_examples(cfg, corpus30, vocab)
        params = init_params_seeded(cfg.model_config(len(vocab)), cfg.seed)
        ev = evaluate_pretrain_heads(params, cfg.model_config(len(vocab)), held_ex)
        assert ev["tc"] is None and ev["tmt"] is None
        assert ev["mlm"] is not None

    def test_plain_mode_heads_stay_at_init(self, corpus30):
        cfg = small_cfg(mode="plain", steps=4)
        res = run_pretraining(cfg, corpus30)
        init = init_params_seeded(res.model_config, cfg.seed)
        np.testing.assert_array_equal(res.params["tc_w"], init["tc_w"])
        np.testing.assert_array_equal(res.params["tmt_w"], init["tmt_w"])

    def test_unigram_baseline_bounds(self, corpus30):
        cfg = small_cfg(steps=0)
        vocab = build_vocab(corpus30, 1)
        train_ex, held_ex = build_examples(cfg, corpus30, vocab)
        acc = unigram_baseline_accuracy(train_ex, held_ex)
        assert 0.0 <= acc <= 0.5
