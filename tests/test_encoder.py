import ctypes
import dataclasses
import json
import os
import platform
import threading
import types

import numpy as np
import pytest

from hklm import encoder, finetune, optim, pretrain
from hklm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from hklm.encoder import (
    ModelConfig,
    ModelError,
    backward_batch,
    encode,
    encoder_backward,
    forward_batch,
    init_params,
    joint_loss,
    layer_norm,
    make_batch,
    pad_tokens,
    param_names,
    softmax,
    token_batch,
)
from hklm.examples import PretrainExample, SegmentLayout, assemble_input
from hklm.finetune import _cls_rows
from hklm.optim import AdamWState, DivergenceError, adamw_step
from hklm.pretrain import TrainConfig, run_pretraining
import oracles
from oracles import naive_mean_nll

V = 60


def mk_example(text, heading, triples, mlm, tc, tmt, max_len=128):
    ids, layout = assemble_input(text, heading, triples, max_len)
    return PretrainExample(
        input_ids=ids, layout=layout, mlm_labels=mlm, tc_labels=tc, tmt_label=tmt, seed=0
    )


@pytest.fixture()
def rich_example():
    return mk_example(
        text=[20, 21, 22, 23], heading=[30, 31], triples=[[40, 41, 42], [43, 44]],
        mlm=[(1, 25), (9, 45)], tc=[1, 0], tmt=1,
    )


@pytest.fixture()
def plain_example():
    ids, layout = assemble_input([20, 21, 22], None, [], 128)
    return PretrainExample(ids, layout, [(2, 26)], [], None, 0)


def forward_one(params, cfg, example, want_cache=False):
    batch = make_batch([example], dtype=cfg.np_dtype)
    return forward_batch(params, cfg, batch, want_cache)


def backward_one(params, cfg, example, lam, mu):
    batch = make_batch([example], dtype=cfg.np_dtype)
    return backward_batch(params, cfg, batch, forward_one(params, cfg, example, True), lam, mu)


def tiny_config(**kw):
    base = dict(vocab_size=V, d_model=16, n_heads=2, n_layers=1, max_seq_len=64,
                dtype="float64", init_std=0.35)
    base.update(kw)
    return ModelConfig(**base)


class TestForward:
    def test_shapes_and_views(self, rich_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        res = forward_one(params, cfg, rich_example)
        batch = make_batch([rich_example], dtype=cfg.np_dtype)
        hidden, _ = encode(params, cfg, batch, np.arange(batch.ids.size))
        layout = rich_example.layout
        assert hidden.shape == (len(rich_example.input_ids), cfg.d_model)
        assert res.mlm_logits.shape == (2, V)
        assert res.tc_logits.shape == (2, 2)
        assert res.tmt_logits.shape == (1, 2)
        assert hidden[1:layout.sep0_pos].shape == (4, cfg.d_model)
        assert hidden[layout.sep0_pos].shape == (cfg.d_model,)
        assert hidden[layout.sep_positions()].shape == (2, cfg.d_model)

    def test_plain_mode_accepted(self, plain_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        res = forward_one(params, cfg, plain_example)
        assert res.tc_logits.shape == (0, 2)
        assert res.tmt_logits.shape == (0, 2)
        assert plain_example.layout.sep0_pos is None  # no heading state

    def test_zero_projections_degenerate_to_layernormed_embeddings(self, rich_example):
        cfg = tiny_config(n_layers=2)
        params = init_params(cfg, 0)
        for name in params:
            if ".q_w" in name or ".k_w" in name or ".v_w" in name or ".o_w" in name \
               or ".ffn_w" in name or name.endswith("_b") and name.startswith("layers"):
                params[name][:] = 0.0
        batch = make_batch([rich_example], dtype=np.float64)
        hidden, _ = encode(params, cfg, batch, np.arange(batch.ids.size))
        ids = np.array(rich_example.input_ids)
        seg = np.array(rich_example.layout.seg_ids)
        emb = params["tok_emb"][ids] + params["pos_emb"][: len(ids)] + params["seg_emb"][seg]
        x, _ = layer_norm(emb, params["emb_ln_g"], params["emb_ln_b"], encoder.LN_EPS)
        for i in range(cfg.n_layers):
            x, _ = layer_norm(x, params[f"layers.{i}.ln1_g"], params[f"layers.{i}.ln1_b"], encoder.LN_EPS)
            x, _ = layer_norm(x, params[f"layers.{i}.ln2_g"], params[f"layers.{i}.ln2_b"], encoder.LN_EPS)
        np.testing.assert_allclose(hidden, x, atol=1e-12)

    def test_uniform_attention_when_qk_zero(self, rich_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        for name in list(params):
            if ".q_w" in name or ".k_w" in name or ".q_b" in name or ".k_b" in name:
                params[name][:] = 0.0
        batch = make_batch([rich_example], dtype=np.float64)
        res = forward_batch(params, cfg, batch, want_cache=True)
        probs = res.cache["layers"][0]["probs"]
        l = len(rich_example.input_ids)
        np.testing.assert_allclose(probs, np.full_like(probs, 1.0 / l), atol=1e-12)

    def test_triple_permutation_symmetry_with_zero_positions(self):
        # permuting the two triples permutes tc logits when the position table
        # is zeroed; the [SEPi] anchors also encode index identity, so their
        # embeddings are equalized as part of the same ablation
        cfg = tiny_config()
        params = init_params(cfg, 1)
        params["pos_emb"][:] = 0.0
        for sep_id in range(7, 14):
            params["tok_emb"][sep_id] = params["tok_emb"][6]
        ex_a = mk_example([20], [30], [[40, 41], [50]], [], [1, 1], 1)
        ex_b = mk_example([20], [30], [[50], [40, 41]], [], [1, 1], 1)
        ra = forward_batch(params, cfg, make_batch([ex_a], dtype=np.float64))
        rb = forward_batch(params, cfg, make_batch([ex_b], dtype=np.float64))
        np.testing.assert_allclose(ra.tc_logits[0], rb.tc_logits[1], atol=1e-10)
        np.testing.assert_allclose(ra.tc_logits[1], rb.tc_logits[0], atol=1e-10)

    def test_bitwise_reproducible_across_runs(self, rich_example):
        cfg = ModelConfig(vocab_size=V, d_model=32, n_heads=4, n_layers=2, max_seq_len=64)
        batch = make_batch([rich_example])
        outs = []
        for _ in range(2):
            params = init_params(cfg, 12)
            res = forward_batch(params, cfg, batch)
            outs.append((res.mlm_logits.tobytes(), res.tc_logits.tobytes(), res.tmt_logits.tobytes()))
        assert outs[0] == outs[1]

    def test_overlong_sequence_rejected(self):
        cfg = tiny_config(max_seq_len=8)
        params = init_params(cfg, 0)
        ex = mk_example(list(range(20, 30)), [30], [], [], [], 1, max_len=128)
        with pytest.raises(ModelError):
            forward_one(params, cfg, ex)

    def test_vocab_mismatch_rejected(self, rich_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        bad = mk_example([V + 5], [30], [], [], [], 1)
        with pytest.raises(ModelError):
            forward_one(params, cfg, bad)

    def test_negative_token_id_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        bad = mk_example([20, -3], [30], [], [], [], 1)
        with pytest.raises(ModelError, match="vocabulary"):
            forward_one(params, cfg, bad)

    def test_token_batch_has_tokens_and_no_head_targets(self, rich_example):
        sequences = [[2, 20, 21, 3], [2, 22, 3]]
        batch = token_batch(sequences, np.float32)
        targets = make_batch([rich_example]).targets("mlm")
        assert [t.dtype for t in targets] == [np.int64, np.int64, np.int64, np.float64]
        for head in encoder.HEADS:
            got = batch.targets(head)
            assert [t.shape for t in got] == [(0,)] * 4
            assert [t.dtype for t in got] == [t.dtype for t in targets]
        want = pad_tokens(sequences, np.float32)
        for got, expected in zip((batch.ids, batch.seg, batch.mask), want):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        assert batch.size == len(sequences)


class TestLoss:
    def test_lambda_mu_zero_reduces_to_mlm(self, rich_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        batch = make_batch([rich_example], dtype=np.float64)
        res = forward_batch(params, cfg, batch)
        lb, _ = joint_loss(res, batch, 0.0, 0.0)
        assert lb.total == lb.mlm

    def test_uniform_logits_log_v(self, rich_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        batch = make_batch([rich_example], dtype=np.float64)
        res = forward_batch(params, cfg, batch)
        res.mlm_logits[:] = 0.0
        lb, _ = joint_loss(res, batch, 0.0, 0.0)
        assert lb.mlm == pytest.approx(np.log(V), abs=1e-12)

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(0)
        cfg = tiny_config()
        params = init_params(cfg, 0)
        for trial in range(20):
            n_tr = int(rng.integers(0, 3))
            triples = [[int(x) for x in rng.integers(16, V, 2)] for _ in range(n_tr)]
            ex = mk_example(
                [int(x) for x in rng.integers(16, V, int(rng.integers(1, 6)))],
                [int(rng.integers(16, V))],
                triples,
                mlm=[(1, int(rng.integers(16, V)))] if rng.random() < 0.8 else [],
                tc=[int(rng.integers(0, 2)) for _ in range(n_tr)],
                tmt=int(rng.integers(0, 2)),
            )
            batch = make_batch([ex], dtype=np.float64)
            res = forward_batch(params, cfg, batch)
            lam, mu = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
            lb, _ = joint_loss(res, batch, lam, mu)
            # oracle components recomputed naively from the raw logits
            o_mlm = naive_mean_nll(res.mlm_logits, batch.mlm_label)
            o_tc = naive_mean_nll(res.tc_logits, batch.tc_label)
            o_tmt = naive_mean_nll(res.tmt_logits, batch.tmt_label)
            assert abs(lb.total - (o_mlm + lam * o_tc + mu * o_tmt)) <= 1e-12

    def test_no_support_contributes_zero(self, plain_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        batch = make_batch([plain_example], dtype=np.float64)
        res = forward_batch(params, cfg, batch)
        lb, _ = joint_loss(res, batch, 2.0, 3.0)
        assert lb.tc == 0.0 and lb.tmt == 0.0
        assert lb.total == lb.mlm


def sample_gradcheck(params, grads, loss_at, rng, coords_per_tensor, h=1e-5):
    worst = 0.0
    worst_name = None
    for name, g in grads.items():
        flat = params[name].reshape(-1)
        gflat = g.reshape(-1)
        idxs = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_at()
            flat[i] = orig - h
            lm = loss_at()
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            rel = abs(num - gflat[i]) / max(1e-5, abs(num) + abs(gflat[i]))
            if rel > worst:
                worst, worst_name = rel, name
    return worst, worst_name


class TestBackward:
    def test_unused_head_zero_grad(self, plain_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        _loss, grads = backward_one(params, cfg, plain_example, 1.0, 1.0)
        assert not grads["tc_w"].any()
        assert not grads["tc_b"].any()
        assert not grads["tmt_w"].any()
        assert not grads["tmt_b"].any()

    def test_lambda_linearity(self, rich_example):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        _l1, g1 = backward_one(params, cfg, rich_example, 1.0, 1.0)
        _l2, g2 = backward_one(params, cfg, rich_example, 2.0, 1.0)
        np.testing.assert_allclose(g2["tc_w"], 2.0 * g1["tc_w"], rtol=1e-12)
        np.testing.assert_allclose(g2["mlm_w"], g1["mlm_w"], rtol=0, atol=0)

    # The ids' `True` names the tied MLM decoder, the only one there is.
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_layers", [1, 2], ids=["True-1", "True-2"])
    def test_one_gradient_per_parameter(self, rich_example, plain_example, n_layers, dtype):
        """Exactly one gradient per parameter, in declaration order, shaped and
        typed like it: also when a head has no target in the batch."""
        cfg = tiny_config(n_layers=n_layers, dtype=dtype)
        params = init_params(cfg, 1)
        unmasked = mk_example(text=[20, 21], heading=[30], triples=[[40, 41]], mlm=[], tc=[1], tmt=0)
        for examples in ([rich_example, plain_example], [plain_example], [unmasked]):
            batch = make_batch(examples, dtype=cfg.np_dtype)
            res = forward_batch(params, cfg, batch, want_cache=True)
            _loss, grads = backward_batch(params, cfg, batch, res, 1.0, 1.0)
            assert list(grads) == param_names(cfg)
            for name, g in grads.items():
                assert (g.shape, g.dtype) == (params[name].shape, params[name].dtype), name

    # The ids' `True` names the tied MLM decoder, the only one there is.
    @pytest.mark.parametrize("n_layers", [pytest.param(1, id="True"), pytest.param(2, id="True-2layers")])
    def test_gradcheck_small(self, rich_example, plain_example, n_layers):
        cfg = tiny_config(n_layers=n_layers)
        params = init_params(cfg, 3)
        batch = make_batch([rich_example, plain_example], dtype=np.float64)
        res = forward_batch(params, cfg, batch, want_cache=True)
        _loss, grads = backward_batch(params, cfg, batch, res, 0.7, 1.3)

        def loss_at():
            r = forward_batch(params, cfg, batch)
            return joint_loss(r, batch, 0.7, 1.3)[0].total

        worst, name = sample_gradcheck(params, grads, loss_at, np.random.default_rng(0), 12)
        assert worst <= 1e-4, f"worst {worst} at {name}"


class TestAdamW:
    def test_zero_grad_no_decay_noop(self):
        params = {"w": np.ones((3, 3))}
        grads = {"w": np.zeros((3, 3))}
        state = AdamWState.for_params(params)
        adamw_step(params, grads, state, 0.1)
        np.testing.assert_array_equal(params["w"], np.ones((3, 3)))

    def test_first_step_closed_form(self):
        g = np.array([0.5, -2.0, 1e-3])
        params = {"w": np.zeros(3)}
        state = AdamWState.for_params(params)
        lr = 0.01
        adamw_step(params, {"w": g.copy()}, state, lr)
        expected = -lr * g / (np.abs(g) + optim.EPS)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-9)

    def test_quadratic_bowl_descends(self):
        params = {"w": np.array([5.0, -3.0])}
        state = AdamWState.for_params(params)
        losses = []
        for _ in range(100):
            g = 2.0 * params["w"]
            losses.append(float((params["w"] ** 2).sum()))
            adamw_step(params, {"w": g}, state, 0.05)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_nonfinite_gradient_aborts(self):
        params = {"w": np.ones(2)}
        state = AdamWState.for_params(params)
        before = params["w"].copy()
        with pytest.raises(DivergenceError, match="'w' at step 0"):
            adamw_step(params, {"w": np.array([1.0, np.nan])}, state, 3e-4)
        np.testing.assert_array_equal(params["w"], before)
        assert state.step == 0


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = ModelConfig(vocab_size=V, d_model=16, n_heads=2, n_layers=2)
        params = init_params(cfg, 5)
        state = AdamWState.for_params(params)
        state.step = 7
        for name in params:
            state.m[name] += 0.25
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg, "beef", opt_state=state)
        p2, cfg2, vh, st2 = load_checkpoint(path)
        assert vh == "beef"
        assert cfg2 == cfg
        assert st2.step == 7
        for name in param_names(cfg):
            np.testing.assert_array_equal(p2[name], params[name])
            np.testing.assert_array_equal(st2.m[name], state.m[name])
            np.testing.assert_array_equal(st2.v[name], state.v[name])
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(path2, p2, cfg2, vh, opt_state=st2)
        assert path.read_bytes() == path2.read_bytes()

    def test_config_roundtrip_keeps_every_field(self, tmp_path):
        cfg = ModelConfig(vocab_size=V, d_model=16, n_heads=2, n_layers=1, ffn_mult=2,
                          max_seq_len=32, dtype="float64", init_std=0.05, attn_init_std=0.3,
                          pos_init_scale=0.2)
        assert set(cfg.to_json()) == {f.name for f in dataclasses.fields(ModelConfig)}
        assert ModelConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(cfg, 5), cfg, "x")
        assert load_checkpoint(path)[1] == cfg

    @pytest.mark.parametrize("kw", [{}, {"dtype": "float64", "ffn_mult": 3, "pos_init_scale": 0.2}], ids=repr)
    def test_init_params_matches_oracle(self, kw):
        cfg = ModelConfig(**{"vocab_size": V, "d_model": 16, "n_heads": 2, "n_layers": 2,
                             "max_seq_len": 20, **kw})
        got, want = init_params(cfg, 11), oracles.init_params(cfg, 11)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_array_equal(got[name], want[name])

    def test_header_without_init_fields_takes_defaults(self):
        cfg = ModelConfig(vocab_size=V, d_model=16, n_heads=2, n_layers=1)
        old_header = {k: v for k, v in cfg.to_json().items() if k not in ("attn_init_std", "pos_init_scale")}
        loaded = ModelConfig.from_json(old_header)
        assert loaded == cfg
        assert (loaded.attn_init_std, loaded.pos_init_scale) == (0.1, 0.05)

    # The config of a header written while ModelConfig still had the fields
    # n_segments, tie_mlm, pos_init and ln_eps, each at the value every model
    # was built with.
    OLD_CONFIG = {"vocab_size": V, "d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_mult": 4,
                  "max_seq_len": 512, "n_segments": 3, "tie_mlm": True, "dtype": "float32",
                  "init_std": 0.02, "attn_init_std": 0.1, "pos_init": "sinusoidal",
                  "pos_init_scale": 0.05, "ln_eps": 1e-05}

    def test_header_with_retired_keys_at_their_built_values_loads(self, tmp_path):
        cfg = ModelConfig(vocab_size=V, d_model=16, n_heads=2, n_layers=1)
        params = init_params(cfg, 5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg, "x")
        header_line, tensors = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        assert set(self.OLD_CONFIG) - set(header["config"]) == {"n_segments", "tie_mlm", "pos_init", "ln_eps"}
        header["config"] = self.OLD_CONFIG
        path.write_bytes(json.dumps(header).encode() + b"\n" + tensors)
        got, loaded, _, _ = load_checkpoint(path)
        assert loaded == cfg
        assert list(got) == list(params)
        for name in params:
            assert_identical(got[name], params[name])

    @pytest.mark.parametrize("key, value", [("tie_mlm", False), ("pos_init", "normal"), ("n_segments", 4),
                                            ("ln_eps", 1e-6), ("tie_mlm", 1), ("n_segments", 3.0)])
    def test_retired_key_at_another_value_rejected(self, key, value):
        with pytest.raises(ModelError, match=key):
            ModelConfig.from_json(dict(self.OLD_CONFIG, **{key: value}))

    @pytest.mark.parametrize("key, value", [("dtype", 32), ("init_std", "0.02")])
    def test_header_value_of_another_json_type_rejected(self, key, value):
        """The check a --config file gets (the CLI tests cover ints: 16.0 and true)."""
        with pytest.raises(ModelError, match=key):
            ModelConfig.from_json(dict(self.OLD_CONFIG, **{key: value}))

    @pytest.mark.parametrize("step", [True, -3], ids=["bool", "negative"])
    def test_optimizer_step_not_a_nonnegative_int_rejected(self, tmp_path, step):
        cfg = ModelConfig(vocab_size=V, d_model=8, n_heads=1, n_layers=1)
        params = init_params(cfg, 5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg, "x", opt_state=AdamWState.for_params(params))
        header_line, tensors = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["opt"]["step"] = step
        path.write_bytes(json.dumps(header).encode() + b"\n" + tensors)
        with pytest.raises(CheckpointError, match='"opt" must be null'):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        cfg = ModelConfig(vocab_size=V, d_model=16, n_heads=2, n_layers=1)
        params = init_params(cfg, 5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, cfg, "x")
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_config_wider_than_tensors_rejected(self, tmp_path):
        cfg = ModelConfig(vocab_size=V, d_model=8, n_heads=1, n_layers=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(cfg, 5), cfg, "x")
        header_line, tensors = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["config"]["d_model"] = 7
        path.write_bytes(json.dumps(header).encode() + b"\n" + tensors)
        with pytest.raises(CheckpointError, match="tok_emb"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b'{"format": "zzz", "version": 1}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestNumerics:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 7)) * 30
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 8)) * 3 + 2
        out, _ = layer_norm(x, np.ones(8), np.zeros(8), 1e-12)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose((out**2).mean(axis=-1), 1.0, atol=1e-6)


class TestHeapPolicy:
    """The first `encode` of a process sets its heap policy, and no later one."""

    @pytest.fixture(autouse=True)
    def fresh_process_policy(self):
        encoder._keep_freed_heap.cache_clear()
        yield
        encoder._keep_freed_heap.cache_clear()  # the next encode sets the real policy

    @staticmethod
    def encode_once(example):
        cfg = tiny_config()
        encode(init_params(cfg, 0), cfg, make_batch([example], dtype=cfg.np_dtype), [0])

    def fake_libc(self, monkeypatch, confstr):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(os, "confstr", confstr)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        return calls

    def test_glibc_policy_set_at_first_encode_only(self, rich_example, monkeypatch):
        calls = self.fake_libc(monkeypatch, lambda name: "glibc 2.99")
        self.encode_once(rich_example)
        assert calls == [(-3, 32 << 20), (-1, 2**31 - 1), (-8, 1)]
        self.encode_once(rich_example)
        assert len(calls) == 3

    def test_first_scoring_call_sets_policy_before_workers_encode(self, monkeypatch):
        """In a process whose first `encode` is a scoring call on a thread
        pool, the calling thread sets the policy, arena cap included, before
        any worker encodes: glibc fixes its arena limit when a second thread
        first needs an arena."""
        events = []
        libc = types.SimpleNamespace(
            mallopt=lambda param, value: events.append(("mallopt", param, threading.get_ident())))
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.99")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        real_encode = finetune.encode

        def logged_encode(*args, **kwargs):
            events.append(("encode", None, threading.get_ident()))
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(finetune, "encode", logged_encode)
        monkeypatch.setattr(finetune, "_usable_cores", lambda: 2)
        cfg = tiny_config()
        params = init_params(cfg, 0) | {"head_w": np.ones((cfg.d_model, 2)), "head_b": np.zeros(2)}
        seqs = [[2, 20 + i % 30, 3] for i in range(3 * finetune.SCORE_BATCH)]
        assert finetune._head_logits(params, cfg, seqs, _cls_rows).shape == (len(seqs), 2)
        caller = threading.get_ident()
        assert events[:3] == [("mallopt", -3, caller), ("mallopt", -1, caller), ("mallopt", -8, caller)]
        assert [what for what, _param, _thread in events[3:]] == ["encode"] * 3
        assert caller not in {thread for _what, _param, thread in events[3:]}

    @pytest.mark.parametrize("error", [None, ValueError, OSError, AttributeError])
    def test_other_c_library_untouched(self, rich_example, monkeypatch, error):
        def confstr(name):
            if error is not None:
                raise error(name)
            return None

        calls = self.fake_libc(monkeypatch, confstr)
        self.encode_once(rich_example)
        assert calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_freed_heap_stays_in_the_process(self, rich_example):
        def rss():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        self.encode_once(rich_example)
        mib = 1 << 20
        arrays = [np.ones(mib // 2) for _ in range(16)]  # 16 × 4 MiB, heap-served
        held = rss()
        del arrays
        assert held - rss() < 8 * mib


def assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def kernel_input(shape, dtype, seed, scale=3.0):
    return (np.random.default_rng(seed).normal(size=shape) * scale).astype(dtype)


# One row; 1377 rows of the FFN width (21.5 GELU blocks); a 3-D activation;
# the MLM head's d_model width; a vocabulary-wide row block.
KERNEL_SHAPES = [(1, 512), (1377, 512), (3, 43, 512), (37, 128), (5, 2999)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
class TestKernelsMatchPlainNumpy:
    """Every training-step kernel equals its plain numpy expression (kept in
    tests/oracles.py) bit for bit, and leaves its inputs untouched."""

    def test_gelu(self, shape, dtype):
        x = kernel_input(shape, dtype, 0)
        dout = kernel_input(shape, dtype, 1)
        x0, dout0 = x.copy(), dout.copy()
        want_act, t = oracles.gelu_forward(x)
        assert_identical(encoder.gelu_forward(x), want_act)
        assert_identical(encoder.gelu_grad(x, np.ones_like(x)), oracles.gelu_grad(x, t))
        d = dout.copy()
        got = encoder.gelu_grad(x, dout=d)
        assert got is d
        assert_identical(got, dout * oracles.gelu_grad(x, t))
        assert_identical(x, x0)
        # The same pass re-derives the forward's output, into a buffer of its
        # own or over the input it reads.
        d, act = dout.copy(), np.empty_like(x)
        assert encoder.gelu_grad(x, dout=d, act=act) is d
        assert_identical(d, dout * oracles.gelu_grad(x, t))
        assert_identical(act, want_act)
        d, x_over = dout.copy(), x.copy()
        encoder.gelu_grad(x_over, dout=d, act=x_over)
        assert_identical(d, dout * oracles.gelu_grad(x, t))
        assert_identical(x_over, want_act)
        assert_identical(x, x0)

    def test_layer_norm(self, shape, dtype):
        x = kernel_input(shape, dtype, 2) + 1.5
        g = kernel_input(shape[-1:], dtype, 3, scale=1.0)
        b = kernel_input(shape[-1:], dtype, 4, scale=1.0)
        dout = kernel_input(shape, dtype, 5)
        inputs = (x, g, b, dout)
        before = [a.copy() for a in inputs]
        out, (xn, inv) = encoder.layer_norm(x, g, b, 1e-5)
        want_out, want_cache = oracles.layer_norm(x, g, b, 1e-5)
        for got, want in zip((out, xn, inv), (want_out, *want_cache)):
            assert_identical(got, want)
        got = encoder.layer_norm_backward(dout, (xn, inv), g)
        want = oracles.layer_norm_backward(dout, want_cache, g)
        for got_part, want_part in zip(got, want):
            assert_identical(got_part, want_part)
        for a, a0 in zip(inputs + (xn, inv), before + list(want_cache)):
            assert_identical(a, a0)

    def test_softmax_and_its_backward(self, shape, dtype):
        x = kernel_input(shape, dtype, 6)
        x[..., -1] += encoder.NEG_INF  # a masked key column
        d_probs = kernel_input(shape, dtype, 7)
        x0, d_probs0 = x.copy(), d_probs.copy()
        probs = encoder.softmax(x)
        assert_identical(probs, oracles.softmax(x))
        assert_identical(x, x0)
        probs0 = probs.copy()
        d = d_probs.copy()
        got = encoder._softmax_backward(d, probs)
        assert got is d
        assert_identical(got, oracles.softmax_backward(d_probs, probs))
        assert_identical(probs, probs0)
        assert_identical(d_probs, d_probs0)

    def test_segment_grad(self, shape, dtype):
        d_emb = kernel_input(shape, dtype, 8).reshape(-1, shape[-1])
        seg = np.random.default_rng(9).integers(0, 3, len(d_emb))
        seg_emb = np.zeros((3, shape[-1]), dtype=dtype)
        before = (d_emb.copy(), seg.copy())
        got = encoder._segment_grad(d_emb, seg, seg_emb)
        assert_identical(got, oracles.segment_grad(d_emb, seg, seg_emb))
        assert_identical(d_emb, before[0])
        assert np.array_equal(seg, before[1]) and not seg_emb.any()

    def test_adamw_step(self, shape, dtype):
        # "h" is float64 whatever the encoder's dtype, like a fine-tuning head
        shapes = {"w": shape, "b": shape[-1:], "h": (shape[-1], 2)}
        dtypes = {"w": dtype, "b": dtype, "h": np.float64}

        def fresh():
            params = {k: kernel_input(s, dtypes[k], i) for i, (k, s) in enumerate(shapes.items())}
            return params, AdamWState.for_params(params)

        got_p, got_s = fresh()
        want_p, want_s = fresh()
        for step in range(3):
            lr = 1e-3 * (step + 1)
            grads = {
                k: kernel_input(s, dtypes[k], 10 + step + i) for i, (k, s) in enumerate(shapes.items())
            }
            grads0 = {k: g.copy() for k, g in grads.items()}
            adamw_step(got_p, grads, got_s, lr)
            oracles.adamw_step(want_p, grads0, want_s, lr)
            for k in shapes:
                assert_identical(grads[k], grads0[k])
        assert got_s.step == want_s.step == 3
        for k in shapes:
            assert_identical(got_p[k], want_p[k])
            assert_identical(got_s.m[k], want_s.m[k])
            assert_identical(got_s.v[k], want_s.v[k])


# Attention-score shapes on both sides of softmax's switch to a column loop
# for the row max (8 rows per key): a joint-short training step, batch-1
# scoring, one [CLS] query row per example, and 8 * L rows exactly and less.
SOFTMAX_SHAPES = [(32, 4, 43, 43), (1, 4, 11, 11), (32, 4, 1, 59), (40, 5), (39, 5), (3, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
def test_softmax_row_max_matches_plain_numpy(shape, dtype):
    """softmax equals the plain numpy expression bit for bit whichever way it
    takes the row max: with masked key columns, a fully masked row, many
    ties and zeros of both signs."""
    x = np.round(kernel_input(shape, dtype, 11, scale=2.0))  # small integers: ties in every row
    x[..., ::3] += encoder.NEG_INF  # masked key columns
    x.reshape(-1, shape[-1])[0] = encoder.NEG_INF  # a fully masked row
    x.reshape(-1)[1::7] = -0.0
    x0 = x.copy()
    assert np.array_equal(encoder._row_max(x), x.max(axis=-1, keepdims=True))
    assert_identical(encoder.softmax(x), oracles.softmax(x))
    assert_identical(x, x0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, d, vocab", [(1376, 128, 900), (50, 8, 3), (7, 5, 1), (0, 4, 6)])
def test_add_rows_at_matches_row_scatter(n, d, vocab, dtype):
    """The flat scatter adds into each element in the order np.add.at's row
    scatter does: equal bytes, with Zipf-distributed (heavily repeated) row
    ids, into a zero array and into one that already holds values."""
    rng = np.random.default_rng(n)
    rows = np.minimum(rng.zipf(1.3, n), vocab) - 1
    values = kernel_input((n, d), dtype, 12)
    values0 = values.copy()
    for start in (np.zeros((vocab, d), dtype=dtype), kernel_input((vocab, d), dtype, 13)):
        got, want = start.copy(), start.copy()
        encoder._add_rows_at(got, rows, values)
        np.add.at(want, rows, values)
        assert_identical(got, want)
    assert_identical(values, values0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(272, 770), (1, 2), (5, 2999), (0, 7)])
def test_weighted_nll_matches_plain_numpy(shape, dtype):
    """The in-place loss and logit gradient equal the plain expression's bytes
    and leave the logits untouched, in float32 and in float64 (where the
    float64 copy must still be a copy)."""
    logits = kernel_input(shape, dtype, 14)
    rng = np.random.default_rng(15)
    labels = rng.integers(0, shape[1], shape[0])
    weights = rng.uniform(0.01, 0.1, shape[0])
    logits0 = logits.copy()
    loss, grad = encoder._weighted_nll(logits, labels, weights)
    want_loss, want_grad = oracles.weighted_nll(logits, labels, weights)
    assert loss == want_loss
    assert_identical(grad, want_grad)
    assert_identical(logits, logits0)


def joint_train_config(**kw):
    base = dict(mode="hklm", steps=5, eval_every=5, batch_size=16, max_fragment_len=48,
                triples_per_example=1, seed=3, d_model=32, n_heads=2,
                n_layers=2)
    base.update(kw)
    return TrainConfig(**base)


def test_training_steps_match_plain_numpy_kernels(synth20, monkeypatch):
    """Five joint training steps with the plain numpy kernels swapped in end at
    the same bytes as with the blocked, in-place ones."""
    corpus, _ = synth20
    cfg = joint_train_config()
    fast = run_pretraining(cfg, corpus)
    for name in ("layer_norm", "layer_norm_backward", "softmax"):
        monkeypatch.setattr(encoder, name, getattr(oracles, name))

    def plain_gelu_grad(x, dout, act=None):
        act_x, t = oracles.gelu_forward(x)  # the tanh, re-derived from x alone
        d = dout * oracles.gelu_grad(x, t)
        if act is not None:  # the forward's GELU output, likewise
            act[...] = act_x
        return d

    monkeypatch.setattr(encoder, "gelu_forward", lambda x: oracles.gelu_forward(x)[0])
    monkeypatch.setattr(encoder, "gelu_grad", plain_gelu_grad)
    monkeypatch.setattr(encoder, "_softmax_backward", oracles.softmax_backward)
    monkeypatch.setattr(encoder, "_affine", oracles.affine)
    monkeypatch.setattr(encoder, "_segment_grad", oracles.segment_grad)
    monkeypatch.setattr(encoder, "_weighted_nll", oracles.weighted_nll)
    monkeypatch.setattr(pretrain, "adamw_step", oracles.adamw_step)
    plain = run_pretraining(cfg, corpus)
    assert fast.loss_trace == plain.loss_trace
    assert list(fast.params) == list(plain.params)
    for name in fast.params:
        assert_identical(fast.params[name], plain.params[name])


def test_backward_consumes_forward_cache(synth20):
    """A backward frees the activation cache as it reads it: every entry of the
    ForwardResult's cache and of each layer's and the embedding's cache is
    gone afterwards, and a second backward over it raises ModelError, as does
    encoder_backward over a cache an earlier one consumed. A fresh forward
    then gives the same loss and gradient bytes. (That no in-place kernel
    writes a cached array before its last read is held by the plain-numpy
    kernel tests and the gradient checks.)"""
    corpus, _ = synth20
    run = run_pretraining(joint_train_config(steps=2), corpus)
    params, cfg = run.params, run.model_config
    batch = make_batch(run.train_examples[:16])
    res = forward_batch(params, cfg, batch, want_cache=True)
    parts = [res.cache["emb"], res.cache["mlm"], *res.cache["layers"]]
    loss1, grads1 = backward_batch(params, cfg, batch, res, 1.0, 1.0)
    assert res.cache == {} and all(part == {} for part in parts)
    with pytest.raises(ModelError, match="consumed"):
        backward_batch(params, cfg, batch, res, 1.0, 1.0)
    loss2, grads2 = backward_batch(params, cfg, batch, forward_batch(params, cfg, batch, want_cache=True),
                                   1.0, 1.0)
    assert loss1 == loss2
    for name in param_names(cfg):
        assert_identical(grads2[name], grads1[name])

    hidden, cache = encode(params, cfg, batch, encoder.head_rows(batch)[0], want_cache=True)
    encoder_backward(params, cfg, cache, np.ones_like(hidden))
    assert cache == {}
    with pytest.raises(ModelError, match="consumed"):
        encoder_backward(params, cfg, cache, np.ones_like(hidden))


@pytest.fixture(scope="module")
def mode_runs(synth20):
    """Zero-step pretraining runs in each mode: their examples and vocabulary."""
    corpus, _ = synth20
    return {mode: run_pretraining(joint_train_config(mode=mode, steps=0, eval_every=0), corpus)
            for mode in ("hklm", "plain")}


def _cache_nbytes(obj, seen):
    """Bytes of the distinct arrays a cache holds, through dicts, lists and
    tuples (an array held twice counts once)."""
    if isinstance(obj, np.ndarray):
        new = id(obj) not in seen
        seen.add(id(obj))
        return obj.nbytes if new else 0
    if isinstance(obj, dict):
        obj = list(obj.values())
    return sum(_cache_nbytes(item, seen) for item in obj) if isinstance(obj, (list, tuple)) else 0


def test_activation_cache_holds_what_the_backward_cannot_rebuild(mode_runs):
    """Per block the cache keeps the queries, keys, values and attention
    probabilities, the GELU input and each layer norm's (xn, inv): no
    layer-norm output, attention context or GELU tanh, which the backward
    rebuilds. Its bytes are those of the listed arrays and nothing more."""
    run = mode_runs["hklm"]
    cfg = dataclasses.replace(run.model_config, dtype="float64")
    params = init_params(cfg, 5)
    batch = make_batch(run.train_examples[:5], dtype=np.float64)
    b, l = batch.ids.shape
    n, d, f, h = b * l, cfg.d_model, cfg.d_ffn, cfg.n_heads
    rows, head_r = encoder.head_rows(batch)
    r, r_max, m = len(rows), int(np.bincount(rows // l).max()), len(head_r[0])

    def ln(k):  # xn and inv
        return k * d + k

    # Elements, all 8 bytes (float64 activations, int64 indices).
    emb = 2 * n + ln(n)  # ids, seg
    full_block = 3 * n * d + h * b * l * l + ln(n) + n * f + ln(n)
    last_block = 2 * r + b * r_max * d + 2 * n * d + h * b * r_max * l + ln(r) + r * f + ln(r)
    encoder_elems = emb + (cfg.n_layers - 1) * full_block + last_block
    block_keys = {"rows", "slot", "q", "k", "v", "probs", "ln1", "ffn_pre", "ln2"}

    _, cache = encode(params, cfg, batch, rows, want_cache=True)
    assert set(cache) == {"emb", "layers"} and set(cache["emb"]) == {"ids", "seg", "l", "ln"}
    assert [set(c) for c in cache["layers"]] == [block_keys] * cfg.n_layers
    assert _cache_nbytes(cache, set()) == 8 * encoder_elems

    cache = forward_batch(params, cfg, batch, want_cache=True).cache
    assert set(cache) == {"emb", "layers", "head_rows", "head_in", "mlm"}
    assert [set(c) for c in cache["layers"]] == [block_keys] * cfg.n_layers
    assert set(cache["mlm"]) == {"g", "pre", "ln"}
    assert cache["mlm"]["g"] is cache["head_in"]["mlm"]
    n_targets = sum(len(t) for t in head_r)
    # head_rows and head_in: an index and a hidden row per target; the MLM
    # head: its GELU input and layer norm at each masked row.
    heads = n_targets + n_targets * d + m * d + ln(m)
    assert _cache_nbytes(cache, set()) == 8 * (encoder_elems + heads)


def assert_grads_close(got, want, rtol):
    """Each gradient within rtol of its tensor's largest entry. A key bias's
    exact gradient is 0 (softmax ignores a shift shared by all keys), so both
    sides hold rounding noise; it is held to the scale of its key weights."""
    assert list(got) == list(want)
    for name, w in want.items():
        ref = want[name[:-1] + "w"] if name.endswith(".k_b") else w
        assert np.abs(got[name] - w).max() <= rtol * np.abs(ref).max(), name


def mixed_rows(b, l):
    """Unsorted flat rows of a (b >= 5, l >= 6) batch: 3 rows of example 0 and
    of example 3, out of order, 1 of examples 1 and 4, none of example 2."""
    return np.array([3 * l + 2, 0, b * l - 1, 2, l, 3 * l, 1, 3 * l + 5])


class TestHeadRowsMatchFullRows:
    """The last block run only at the rows the heads read gives, in float64,
    the logits, losses and gradients of the full-row pass kept in
    tests/oracles.py, within 1e-10 relative."""

    # The ids' `True` names the tied MLM decoder, the only one there is.
    @pytest.mark.parametrize("n_examples", [1, 8])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("mode", ["hklm", "plain"], ids=["hklm-True", "plain-True"])
    def test_joint_step(self, mode_runs, mode, n_layers, n_examples):
        run = mode_runs[mode]
        cfg = dataclasses.replace(run.model_config, n_layers=n_layers, dtype="float64")
        rng = np.random.default_rng(n_layers)
        params = {k: v + rng.normal(0.0, 0.05, v.shape) for k, v in init_params(cfg, 4).items()}
        batch = make_batch(run.train_examples[:n_examples], dtype=np.float64)
        assert len(batch.mlm_b) and (mode == "plain" or len(batch.tc_b) and len(batch.tmt_b))

        res = forward_batch(params, cfg, batch, want_cache=True)
        want_res = oracles.forward_batch(params, cfg, batch, want_cache=True)
        rows = encoder.head_rows(batch)[0]
        assert res.hidden.shape == (len(rows), cfg.d_model) and len(rows) < batch.ids.size
        np.testing.assert_allclose(res.hidden, want_res.hidden.reshape(-1, cfg.d_model)[rows],
                                   rtol=0, atol=1e-10 * np.abs(want_res.hidden).max())
        for got, want in ((res.mlm_logits, want_res.mlm_logits), (res.tc_logits, want_res.tc_logits),
                          (res.tmt_logits, want_res.tmt_logits)):
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-10 * np.abs(want).max(initial=0.0)

        loss, grads = backward_batch(params, cfg, batch, res, 0.7, 1.3)
        want_loss, want_grads = oracles.backward_batch(params, cfg, batch, want_res, 0.7, 1.3)
        for part in ("total", "mlm", "tc", "tmt"):
            assert getattr(loss, part) == pytest.approx(getattr(want_loss, part), rel=1e-10, abs=0)
        assert_grads_close(grads, want_grads, 1e-10)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_encode_at_rows_matches_full_rows(self, mode_runs, n_layers):
        run = mode_runs["plain"]
        cfg = dataclasses.replace(run.model_config, n_layers=n_layers, dtype="float64")
        params = init_params(cfg, 6)
        batch = make_batch(run.train_examples[:5], dtype=np.float64)
        b, l = batch.ids.shape
        rows = np.array([3 * l + 2, 0, b * l - 1, l])  # unsorted, across examples
        hidden, cache = encode(params, cfg, batch, want_cache=True, rows=rows)
        full, full_cache = oracles.encode(params, cfg, batch, want_cache=True)
        d = cfg.d_model
        np.testing.assert_allclose(hidden, full.reshape(-1, d)[rows], rtol=0, atol=1e-10)
        d_hidden = np.random.default_rng(1).normal(size=hidden.shape)
        d_full = np.zeros((b * l, d))
        d_full[rows] = d_hidden
        assert_grads_close(encoder_backward(params, cfg, cache, d_hidden),
                           oracles.encoder_backward(params, cfg, full_cache, d_full.reshape(b, l, d)),
                           1e-10)

    @pytest.mark.parametrize("rows_of", ["mixed", "cls", "empty"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_query_slots_match_full_attention_reference(self, mode_runs, n_layers, rows_of):
        """At `rows`, attention from per-example query slots gives, in float64,
        the hidden states and every encoder gradient of the reference in
        tests/oracles.py, whose last block attends from every token, within
        1e-10: on a padded batch, for unsorted rows with 0, 1 and 3 rows per
        example, for each example's [CLS] (one slot) and for no rows."""
        run = mode_runs["hklm"]
        cfg = dataclasses.replace(run.model_config, n_layers=n_layers, dtype="float64")
        rng = np.random.default_rng(n_layers)
        params = {k: v + rng.normal(0.0, 0.05, v.shape) for k, v in init_params(cfg, 5).items()}
        batch = make_batch(run.train_examples[:5], dtype=np.float64)
        assert not batch.mask.all()
        rows = {"mixed": mixed_rows(*batch.ids.shape), "cls": _cls_rows(batch),
                "empty": np.zeros(0, dtype=np.int64)}[rows_of]
        hidden, cache = encode(params, cfg, batch, want_cache=True, rows=rows)
        want, want_cache = oracles.encode(params, cfg, batch, want_cache=True, rows=rows)
        assert hidden.shape == want.shape == (len(rows), cfg.d_model)
        np.testing.assert_allclose(hidden, want, rtol=0, atol=1e-10)
        d_hidden = rng.normal(size=hidden.shape)
        got_grads = encoder_backward(params, cfg, cache, d_hidden)
        want_grads = oracles.encoder_backward(params, cfg, want_cache, d_hidden)
        assert list(got_grads) == list(want_grads)
        for name, want_grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name], want_grad, rtol=0, atol=1e-10, err_msg=name)

    def test_last_block_attends_from_query_slots(self, mode_runs):
        """At `rows` the last layer caches (B, H, R_max, L) attention
        probabilities, R_max being the most rows one example has, and its query
        slots hold each example's row queries in the order of `rows`, then
        exact zeros."""
        run = mode_runs["hklm"]
        cfg = dataclasses.replace(run.model_config, dtype="float64")
        params = init_params(cfg, 5)
        p = f"layers.{cfg.n_layers - 1}."
        params[p + "q_b"] += 0.5  # so a padding slot holding the bias alone is not zero
        batch = make_batch(run.train_examples[:5], dtype=np.float64)
        b, l = batch.ids.shape
        for rows in (mixed_rows(b, l), _cls_rows(batch), encoder.head_rows(batch)[0]):
            _, cache = encode(params, cfg, batch, want_cache=True, rows=rows)
            last = cache["layers"][-1]
            # The encoder keeps no block input; the reference caches it.
            x_last = oracles.encode(params, cfg, batch, want_cache=True, rows=rows)[1]["layers"][-1]["x"]
            per_example = [[r for r in rows if r // l == k] for k in range(b)]
            r_max = max(len(e) for e in per_example)
            assert last["probs"].shape == (b, cfg.n_heads, r_max, l)
            q = last["q"].transpose(0, 2, 1, 3).reshape(b, r_max, cfg.d_model)
            for k, ex_rows in enumerate(per_example):
                n = len(ex_rows)
                want = x_last[ex_rows] @ params[p + "q_w"] + params[p + "q_b"]
                np.testing.assert_allclose(q[k, :n], want, rtol=0, atol=1e-12)
                assert (q[k, n:] == 0.0).all()
        assert r_max < l  # the head rows leave most query rows out

    @pytest.mark.parametrize("rows", [[0, 0], [-1], [10**6], [[0]], [0.0]])
    def test_bad_rows_rejected(self, rich_example, rows):
        cfg = tiny_config()
        with pytest.raises(ModelError, match="rows|row index"):
            encode(init_params(cfg, 0), cfg, make_batch([rich_example], dtype=np.float64), rows=rows)
