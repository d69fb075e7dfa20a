import dataclasses
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from hklm import align, pretrain
from hklm import examples as hklm_examples
from hklm.checkpoint import save_checkpoint
from hklm.corpus import (
    SEP0_ID,
    SEPI_IDS,
    build_vocab,
    check_json_fields,
    derive_seed,
    generate_synthetic_corpus,
    write_jsonl,
)
from hklm.encoder import HEADS, ModelConfig, param_names
from hklm.examples import ExampleError, SamplerConfig, generate_pretrain_examples
from hklm.pretrain import (
    ConfigError,
    DivergenceError,
    MetricsRecord,
    TrainConfig,
    build_aligned,
    evaluate_pretrain_heads,
    head_accuracy,
    init_params_seeded,
    run_pretraining,
    split_corpus,
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
        """Plain mode, like drop_triples, serializes no triple to thin out or noise."""
        for kw in (dict(mode="plain", triple_keep_fraction=0.5), dict(mode="plain", value_noise=True),
                   dict(mode="hklm", drop_triples=True, value_noise=True)):
            with pytest.raises(ExampleError, match="need serialized triples"):
                TrainConfig(**kw)

    def test_conflicting_ablations_rejected(self):
        with pytest.raises(Exception):
            TrainConfig(mode="hklm", drop_triples=True, triple_keep_fraction=0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="bert")

    def test_json_roundtrip(self):
        cfg = small_cfg(lam=0.5, value_noise=True)
        again = TrainConfig(**check_json_fields(TrainConfig, json.loads(json.dumps(cfg.to_json())), ConfigError))
        assert again == cfg

    def test_int_accepted_for_float_and_optional_int(self):
        cfg = TrainConfig(**check_json_fields(TrainConfig, {"peak_lr": 1, "lam": 2, "triples_per_example": 3},
                                              ConfigError))
        assert (cfg.peak_lr, cfg.lam, cfg.triples_per_example) == (1, 2, 3)
        fields = check_json_fields(TrainConfig, {"triples_per_example": None}, ConfigError)
        assert TrainConfig(**fields).triples_per_example is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig(**check_json_fields(TrainConfig, {"modex": 1}, ConfigError))

    def test_sub_configs_take_every_field_but_their_own(self):
        # A field renamed on one side alone would silently keep its default.
        names = {f.name for f in dataclasses.fields(TrainConfig)}
        for cls, own in ((ModelConfig, {"vocab_size"}), (SamplerConfig, set())):
            assert {f.name for f in dataclasses.fields(cls)} - names == own

    def test_sub_configs_of_the_default_take_their_own_defaults(self):
        # ModelConfig and SamplerConfig each define max_seq_len.
        assert TrainConfig().model_config(100) == ModelConfig(vocab_size=100)
        assert TrainConfig().sampler_config() == SamplerConfig()

    def test_triples_serialized_per_example_bound_the_retrieval_cap(self):
        TrainConfig(k_max=12, triples_per_example=8)
        TrainConfig(k_max=8, triples_per_example=12)

    def test_default_peak_lr_keeps_the_bits_of_its_product(self):
        # The rate the retired lr * lr_scale gave, not the float nearest 3e-4.
        assert TrainConfig().peak_lr == 3e-5 * 10.0
        assert repr(TrainConfig().peak_lr) == "0.00030000000000000003"


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
            write_jsonl(metrics, (rec.to_json() for rec in res.metrics))
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
        cfg = small_cfg(steps=50, peak_lr=1e36)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="at step"):
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

    @pytest.mark.parametrize("mode", ["plain", "hklm"])
    def test_head_without_targets_logs_null(self, corpus30, monkeypatch, mode):
        """A recorded head loss is None when the step's batch had no target
        for the head, and a float when it had one. At 48-token fragments some
        batches of short examples hold no triple."""
        real_backward = pretrain.backward_batch
        targets = []  # each step's target count per head

        def counting_backward(params, model_cfg, batch, *args):
            targets.append({head: len(getattr(batch, f"{head}_label")) for head in HEADS})
            return real_backward(params, model_cfg, batch, *args)

        monkeypatch.setattr(pretrain, "backward_batch", counting_backward)
        cfg = small_cfg(mode=mode, steps=8, eval_every=1, max_fragment_len=48)
        res = run_pretraining(cfg, corpus30)
        nulls = set()
        for m in res.metrics:
            for head in HEADS:
                loss = getattr(m, f"loss_{head}")
                assert (loss is None) == (targets[m.step - 1][head] == 0), (m.step, head)
                if loss is None:
                    nulls.add(head)
                    assert f'"loss_{head}": null' in json.dumps(m.to_json())
        assert np.isfinite([m.loss_total for m in res.metrics]).all()
        assert nulls == ({"tc", "tmt"} if mode == "plain" else {"tc"})

    def test_step_buffers_freed_before_next_forward(self, corpus30, monkeypatch):
        """When a training forward starts, every earlier activation cache and
        every earlier gradient dict is gone."""
        real_forward, real_backward = pretrain.forward_batch, pretrain.backward_batch
        caches: list[weakref.ref] = []
        grads: list[weakref.ref] = []
        live_at_forward: list[tuple[list[int], list[int]]] = []

        class Grads(dict):  # a plain dict cannot be weakly referenced
            pass

        def tracking_forward(params, model_cfg, batch, want_cache=False):
            if want_cache:
                live_at_forward.append((
                    [i for i, ref in enumerate(caches) if ref() is not None],
                    [i for i, ref in enumerate(grads) if ref() is not None],
                ))
            res = real_forward(params, model_cfg, batch, want_cache)
            if want_cache:
                caches.append(weakref.ref(res))
            return res

        def tracking_backward(*args):
            loss, g = real_backward(*args)
            g = Grads(g)
            grads.append(weakref.ref(g))
            return loss, g

        monkeypatch.setattr(pretrain, "forward_batch", tracking_forward)
        monkeypatch.setattr(pretrain, "backward_batch", tracking_backward)
        steps = 3
        res = run_pretraining(small_cfg(steps=steps, eval_every=2), corpus30)
        assert len(res.loss_trace) == steps
        assert len(live_at_forward) == steps
        for n, (live_caches, live_grads) in enumerate(live_at_forward):
            assert live_caches == [], f"forward {n}"
            assert live_grads == [], f"forward {n}"

    def test_each_epoch_drawn_when_its_first_batch_is_needed(self, corpus30, monkeypatch):
        """Epoch 0 is generated once, before the first step, with the config's
        sampler. The k-th training forward comes after exactly k batches were
        built and, in every epoch, after exactly their examples were masked;
        so before the first `progress` call, one batch's examples are masked
        and built. Epoch 1 is generated in the step that needs its first
        batch, with the sampler reseeded to derive_seed(seed, "epoch", 1).
        The held-out examples are drawn once, at the first evaluation, or
        after the last step when eval_every is 0.
        """
        real_generate, real_mask = pretrain.generate_pretrain_examples, hklm_examples.apply_mlm_mask
        real_batch, real_forward = pretrain.make_batch, pretrain.forward_batch
        real_evaluate = pretrain.evaluate_pretrain_heads
        count = Counter()  # masks, training batches built and their examples, progress calls, forwards
        calls = []  # (progress calls, training forwards, evaluations, the sampler) per call
        at_forward = []  # (masks, batches built, examples batched, evaluations) at each training forward

        def counting_generate(corpus, aligned, vocab, sampler, *args, **kwargs):
            calls.append((count["progress"], count["train"], count["eval"], sampler))
            return real_generate(corpus, aligned, vocab, sampler, *args, **kwargs)

        def counting_mask(*args):
            count["mask"] += 1
            return real_mask(*args)

        def counting_batch(chunk, *args, **kwargs):
            if not count["evaluating"]:
                count["batch"] += 1
                count["batched"] += len(chunk)
            return real_batch(chunk, *args, **kwargs)

        def counting_forward(params, model_cfg, batch, want_cache=False):
            if want_cache:
                count["train"] += 1
                at_forward.append((count["mask"], count["batch"], count["batched"], count["eval"]))
            return real_forward(params, model_cfg, batch, want_cache)

        def counting_evaluate(*args):
            count["evaluating"] = 1
            try:
                return real_evaluate(*args)
            finally:
                count["evaluating"] = 0
                count["eval"] += 1

        def progress(_step, _breakdown):
            if not count["progress"]:
                assert count["batch"] == 1
                assert count["mask"] == count["batched"] == at_forward[0][2]
            count["progress"] += 1

        monkeypatch.setattr(pretrain, "generate_pretrain_examples", counting_generate)
        monkeypatch.setattr(hklm_examples, "apply_mlm_mask", counting_mask)
        monkeypatch.setattr(pretrain, "make_batch", counting_batch)
        monkeypatch.setattr(pretrain, "forward_batch", counting_forward)
        monkeypatch.setattr(pretrain, "evaluate_pretrain_heads", counting_evaluate)
        cfg = small_cfg(max_fragment_len=48, batch_size=32, eval_every=0)
        res = run_pretraining(dataclasses.replace(cfg, steps=0), corpus30)
        n_train, n_held = len(res.train_examples), len(res.held_examples)
        per_epoch = -(-n_train // cfg.batch_size)
        within = per_epoch  # the most steps that stay in epoch 0
        assert within >= 2
        sampler = cfg.sampler_config()
        epoch_1 = dataclasses.replace(sampler, seed=derive_seed(cfg.seed, "epoch", 1))
        for steps, eval_every in ((0, 0), (within, 0), (within + 1, 0), (within + 1, 2)):
            count.clear()
            calls.clear()
            at_forward.clear()
            run_pretraining(dataclasses.replace(cfg, steps=steps, eval_every=eval_every), corpus30,
                            progress=progress)
            assert count["progress"] == steps and len(at_forward) == steps
            for k, (masks, built, batched, evaluations) in enumerate(at_forward, start=1):
                assert built == k, (steps, k)
                assert masks == batched + n_held * bool(evaluations), (steps, k)
            first_eval = [(eval_every - 1, eval_every, 0, sampler)] if eval_every else []
            after_loop = [] if eval_every else [(steps, steps, 0, sampler)]
            evaluated = within // eval_every if eval_every else 0
            next_epoch = [(within, per_epoch, evaluated, epoch_1)] if steps > within else []
            assert calls == [(0, 0, 0, sampler)] + sorted(first_eval + next_epoch) + after_loop, steps
            # After the loop: the rest of epoch 0, then the held-out split when
            # no evaluation ran; epoch 1's examples outside its built batches stay unmasked.
            assert count["mask"] == max(count["batched"], n_train) + n_held

    @pytest.mark.parametrize("mode", ["hklm", "plain"])
    def test_returned_examples_are_the_generated_ones(self, corpus30, mode):
        """`train_examples` is all of epoch 0 and `held_examples` the held-out
        split, masked, as `generate_pretrain_examples` makes them, whether no
        step, one step or a run past the first epoch boundary masked some of
        them first, and whether the held-out examples were drawn at an
        evaluation (eval_every = steps) or after the loop (steps 0)."""
        cfg = small_cfg(mode=mode, max_fragment_len=48, batch_size=32)
        vocab = build_vocab(corpus30)
        train_aligned, held_aligned = build_aligned(cfg, corpus30, vocab)
        want_train = list(generate_pretrain_examples(corpus30, train_aligned, vocab, cfg.sampler_config())[0])
        want_held = list(generate_pretrain_examples(corpus30, held_aligned, vocab, cfg.sampler_config())[0])
        assert any(ex.mlm_labels for ex in want_train) and any(ex.mlm_labels for ex in want_held)
        per_epoch = -(-len(want_train) // cfg.batch_size)
        for steps in (0, 1, per_epoch + 1):
            res = run_pretraining(dataclasses.replace(cfg, steps=steps, eval_every=steps), corpus30)
            assert res.train_examples == want_train, steps
            assert res.held_examples == want_held, steps

    def test_weights_after_step_k_equal_a_k_step_run(self, corpus30, monkeypatch):
        """A k-step run is a snapshot of a longer run: warmup, the epoch order
        and each epoch's corruptions and masks depend on the step and the
        epoch, never on `steps`. So a schedule that does (LR decay) fails."""
        ks, steps = (5, 14), 16
        cfg = small_cfg(max_fragment_len=48, batch_size=32, warmup_steps=8, eval_every=0)
        real_step = pretrain.adamw_step
        snapshots = {}

        def snapshotting_step(params, grads, state, lr):
            real_step(params, grads, state, lr)
            if state.step in ks:
                snapshots[state.step] = {name: arr.copy() for name, arr in params.items()}

        monkeypatch.setattr(pretrain, "adamw_step", snapshotting_step)
        res = run_pretraining(dataclasses.replace(cfg, steps=steps), corpus30)
        per_epoch = -(-len(res.train_examples) // cfg.batch_size)
        # One snapshot before the first epoch boundary, one after it.
        assert ks[0] <= per_epoch < ks[1]
        monkeypatch.setattr(pretrain, "adamw_step", real_step)
        for k in ks:
            short = run_pretraining(dataclasses.replace(cfg, steps=k), corpus30).params
            assert list(short) == list(snapshots[k])
            for name, arr in short.items():
                np.testing.assert_array_equal(arr, snapshots[k][name], err_msg=f"step {k}: {name}")


class TestHeads:
    def test_random_init_binary_heads_near_chance(self, corpus30):
        res = run_pretraining(small_cfg(steps=0, heldout_fraction=0.5), corpus30)
        ev = evaluate_pretrain_heads(
            res.params, res.model_config, res.train_examples + res.held_examples
        )
        assert ev["n_tc"] > 300 and ev["n_tmt"] > 80
        assert abs(ev["tc"] - 0.5) < 0.06
        assert abs(ev["tmt"] - 0.5) < 0.08

    def test_evaluation_runs_on_length_bucketed_batches(self, corpus30, monkeypatch):
        """Held-out evaluation runs its examples in order of length, at most
        _EVAL_BATCH to a batch, each batch as wide as its longest example,
        and counts what evaluating them one at a time counts."""
        res = run_pretraining(small_cfg(steps=2, heldout_fraction=0.5), corpus30)
        examples = res.train_examples + res.held_examples
        shapes = []
        forward = pretrain.forward_batch

        def recording(params, cfg, batch, *args):
            shapes.append(batch.ids.shape)
            return forward(params, cfg, batch, *args)

        monkeypatch.setattr(pretrain, "forward_batch", recording)
        ev = evaluate_pretrain_heads(res.params, res.model_config, examples)
        lengths = sorted(len(ex.input_ids) for ex in examples)
        size = pretrain._EVAL_BATCH
        assert len(examples) > 2 * size
        assert shapes == [(len(lengths[i : i + size]), lengths[i : i + size][-1])
                          for i in range(0, len(lengths), size)]
        one_by_one = [evaluate_pretrain_heads(res.params, res.model_config, [ex]) for ex in examples]
        for head in ("mlm", "tc", "tmt"):
            n = [e[f"n_{head}"] for e in one_by_one]
            assert ev[f"n_{head}"] == sum(n)
            correct = sum(round(e[head] * k) for e, k in zip(one_by_one, n) if k)
            assert ev[head] == correct / sum(n)

    def test_oracle_logits_give_accuracy_one(self):
        labels = np.array([0, 1, 1, 0])
        logits = np.zeros((4, 2))
        logits[np.arange(4), labels] = 5.0
        correct, total = head_accuracy(logits, labels)
        assert (correct, total) == (4, 4)

    def test_no_rows_count_zero(self):
        assert head_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)) == (0, 0)

    def test_no_support_returns_none(self, corpus30):
        res = run_pretraining(small_cfg(mode="plain", steps=0), corpus30)
        ev = evaluate_pretrain_heads(res.params, res.model_config, res.held_examples)
        assert ev["tc"] is None and ev["tmt"] is None
        assert ev["mlm"] is not None

    def test_plain_mode_heads_stay_at_init(self, corpus30):
        cfg = small_cfg(mode="plain", steps=4)
        res = run_pretraining(cfg, corpus30)
        init = init_params_seeded(res.model_config, cfg.seed)
        np.testing.assert_array_equal(res.params["tc_w"], init["tc_w"])
        np.testing.assert_array_equal(res.params["tmt_w"], init["tmt_w"])
