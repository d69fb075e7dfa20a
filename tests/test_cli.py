import hashlib
import json

import pytest

from hklm import tasks
from hklm.align import aligned_to_json
from hklm.checkpoint import load_checkpoint
from hklm.cli import run
from hklm.corpus import build_vocab, check_json_fields, load_corpus, write_jsonl
from hklm.examples import example_to_json
from hklm.manifest import sha256_file
from hklm.pretrain import ConfigError, TrainConfig, build_aligned, run_pretraining


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small end-to-end CLI pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    c = root / "c.jsonl"
    assert run(["synth-corpus", "--seed", "42", "--entities", "10", "--out", str(c),
                "--tasks-out", str(root / "tasks")]) == 0
    (root / "train.json").write_text(json.dumps({"heldout_fraction": 0.15}))
    assert run(["align", *_prep_flags(root), "--out", str(root / "aligned.jsonl")]) == 0
    assert run(["gen-examples", *_prep_flags(root), "--out", str(root / "ex.jsonl")]) == 0
    return root


def _prep_flags(root):
    """`align` and `gen-examples` flags for the pipeline's corpus at seed 42."""
    return ["--corpus", str(root / "c.jsonl"), "--seed", "42", "--config", str(root / "train.json")]


@pytest.fixture(scope="module")
def checkpoint(pipeline_dir, tmp_path_factory):
    """A one-step pretraining checkpoint of a tiny model over the pipeline's corpus."""
    rundir = tmp_path_factory.mktemp("tiny-run")
    cfg = rundir / "cfg.json"
    cfg.write_text(json.dumps({"d_model": 16, "n_layers": 1, "n_heads": 2,
                               "heldout_fraction": 0.15, "batch_size": 8}))
    assert run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                "--steps", "1", "--config", str(cfg), "--out", str(rundir)]) == 0
    return rundir / "model.ckpt"


class TestSynthCorpus:
    def test_writes_corpus_truth_manifest(self, pipeline_dir):
        assert (pipeline_dir / "c.jsonl").exists()
        assert (pipeline_dir / "c.truth.jsonl").exists()
        man = json.loads((pipeline_dir / "c.jsonl.manifest.json").read_text())
        assert man["subcommand"] == "synth-corpus"
        assert man["seed"] == 42
        assert str(pipeline_dir / "c.jsonl") in man["outputs"]

    # SHA-256 of each `synth-corpus --seed 42 --entities 10 --tasks-out` file:
    # any change that moves the generator's random stream moves them.
    DIGESTS = {
        "c.jsonl": "675ca6be4af3a041b5e9be414940348aa761f21a2199824d0ca6355bbd686eee",
        "c.truth.jsonl": "fc835cd6f8c77772ac5c997e72bac44ca41e0d9c647f2a7587aff4581f04ff32",
        "tasks/ner-train.jsonl": "636d1326cdeee45893dec5951cf5788531788711a33cc8a5a01129c88fa35556",
        "tasks/ner-eval.jsonl": "011e9e778e471de82542ded52e622bb2fbad1b84eff97bffa34ef2c09789649f",
        "tasks/et-train.jsonl": "46b464f7c4ce86c6fda76652422711a1ef82e893c908b024611ba8e45a3d9b2e",
        "tasks/et-eval.jsonl": "2b5a0dc484a59baf950db406bb6bfa8a1bac478f687aa1110fb511f0011c870c",
        "tasks/oie-train.jsonl": "9ffb357d62952dcf99ecbe037a7a067352c89efecf5e775baea5ffc92ca9c893",
        "tasks/oie-eval.jsonl": "1a33c28acd72a646657e8ea088786f9eedbdf5513210810eb98d9e52ca39b874",
        "tasks/qa-train.jsonl": "ce66245dbeed26e42b5cb9e84b6368b7e798788405eff75258c80b0f12150926",
        "tasks/qa-eval.jsonl": "eeca04ad30f46e8c4dbcefcd234867be36a3838e8e0b5426e1cbe9c2c640478d",
        "tasks/dialog-train.jsonl": "d389613aa2365ec757c239f2163fcf0a9474677d82136da20b09bdb8392fe0d3",
        "tasks/dialog-eval.jsonl": "12d42ede5f2287a7ffc9930dab044f72676b3d29ee2baa988c85b89a88f83c6a",
    }

    def test_outputs_match_pinned_digests(self, pipeline_dir):
        assert {name: sha(pipeline_dir / name) for name in self.DIGESTS} == self.DIGESTS

    def test_tasks_out_builds_one_rank_pool(self, tmp_path, monkeypatch):
        calls = []
        real = tasks._entity_sentences
        monkeypatch.setattr(tasks, "_entity_sentences", lambda corpus, vocab: calls.append(1) or real(corpus, vocab))
        assert run(["synth-corpus", "--seed", "7", "--entities", "6", "--out", str(tmp_path / "c.jsonl"),
                    "--tasks-out", str(tmp_path / "tasks")]) == 0
        assert len(calls) == 1

    def test_task_sets_emitted(self, pipeline_dir):
        for task in ("ner", "et", "oie", "qa", "dialog"):
            assert (pipeline_dir / "tasks" / f"{task}-train.jsonl").exists()
            assert (pipeline_dir / "tasks" / f"{task}-eval.jsonl").exists()

    def test_missing_seed_exits_one(self, tmp_path, capsys):
        code = run(["synth-corpus", "--entities", "3", "--out", str(tmp_path / "c.jsonl")])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["synth-corpus", "--seed", "7", "--entities", "4", "--out", str(a)]) == 0
        assert run(["synth-corpus", "--seed", "7", "--entities", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_unknown_subcommand_exit_one(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exit_one(self, capsys):
        assert run(["synth-corpus", "--seed", "1", "--entities", "2", "--out", "x", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_input_file_exit_one(self, tmp_path, capsys):
        assert run(["align", "--corpus", str(tmp_path / "nope.jsonl"), "--seed", "1",
                    "--out", str(tmp_path / "a.jsonl")]) == 1

    def test_malformed_corpus_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert run(["align", "--corpus", str(bad), "--seed", "1", "--out", str(tmp_path / "a.jsonl")]) == 1
        assert f"error: {bad}: line 1: invalid JSON" in capsys.readouterr().err

    def test_divergence_exit_two(self, pipeline_dir, tmp_path):
        import numpy as np

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 40, "peak_lr": 1e36,
                                   "d_model": 32, "n_layers": 1, "n_heads": 2,
                                   "heldout_fraction": 0.15, "batch_size": 8}))
        with np.errstate(all="ignore"):
            code = run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                        "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2


class TestAlignAndExamples:
    def test_inputs_not_mutated(self, pipeline_dir):
        man = json.loads((pipeline_dir / "aligned.jsonl.manifest.json").read_text())
        for path, digest in man["inputs"].items():
            assert sha256_file(path) == digest

    def test_example_file_readable_and_hash_consistent(self, pipeline_dir):
        header, *records = (pipeline_dir / "ex.jsonl").read_text().splitlines()
        header = json.loads(header)
        assert (header["format"], header["version"]) == ("hklm-ex", 1)
        assert records and all(set(json.loads(r)) >= {"ids", "seg", "mlm"} for r in records)
        man = json.loads((pipeline_dir / "ex.jsonl.manifest.json").read_text())
        assert man["extra"]["vocab_hash"] == header["vocab_hash"]
        assert man["outputs"] == [str(pipeline_dir / "ex.jsonl")]

    def test_align_rerun_identical(self, pipeline_dir, tmp_path):
        a1, a2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        assert run(["align", *_prep_flags(pipeline_dir), "--out", str(a1)]) == 0
        assert run(["align", *_prep_flags(pipeline_dir), "--out", str(a2)]) == 0
        assert a1.read_bytes() == a2.read_bytes()
        assert a1.read_bytes() == (pipeline_dir / "aligned.jsonl").read_bytes()

    def test_gen_examples_rerun_identical(self, pipeline_dir, tmp_path):
        e2 = tmp_path / "e2.jsonl"
        assert run(["gen-examples", *_prep_flags(pipeline_dir), "--out", str(e2)]) == 0
        assert e2.read_bytes() == (pipeline_dir / "ex.jsonl").read_bytes()

    def test_debug_sidecar_records_joint_serialization(self, pipeline_dir, tmp_path):
        out = tmp_path / "ex.jsonl"
        assert run(["gen-examples", *_prep_flags(pipeline_dir), "--out", str(out), "--debug-sidecar"]) == 0
        lines = [json.loads(line) for line in (tmp_path / "ex.jsonl.debug.jsonl").read_text().splitlines()]
        assert len(lines) == len(out.read_text().splitlines()) - 1  # minus the header
        assert all(isinstance(rec["heading"], str) and "predicates" in rec for rec in lines)
        assert any(rec["predicates"] for rec in lines)
        assert out.read_bytes() == (pipeline_dir / "ex.jsonl").read_bytes()
        man = json.loads((tmp_path / "ex.jsonl.manifest.json").read_text())
        assert man["outputs"] == [str(out), str(tmp_path / "ex.jsonl.debug.jsonl")]

    def test_debug_sidecar_writes_non_ascii_unescaped(self, pipeline_dir, tmp_path):
        heading = "Frühgeschichte – 歴史"
        corpus = load_corpus(pipeline_dir / "c.jsonl")
        for doc in corpus:
            doc.sections[0].heading = heading
        c, out = tmp_path / "c.jsonl", tmp_path / "ex.jsonl"
        write_jsonl(c, (doc.to_json() for doc in corpus))
        assert run(["gen-examples", "--corpus", str(c), "--seed", "42", "--config", str(pipeline_dir / "train.json"),
                    "--out", str(out), "--debug-sidecar"]) == 0
        raw = (tmp_path / "ex.jsonl.debug.jsonl").read_bytes()
        assert heading.encode("utf-8") in raw and b"\\u" not in raw
        assert heading in {json.loads(line)["heading"] for line in raw.decode("utf-8").splitlines()}

    # SHA-256 of the `align`, `gen-examples`, `gen-examples --debug-sidecar`
    # and `pretrain --steps 0` outputs on the pipeline's corpus and config.
    DIGESTS = {
        "aligned.jsonl": "688fba938f8161d772394f800990504033aa35b332d9894466fa19752503a715",
        "ex.jsonl": "4cb565c0f5ca8c1db16a841dd7df2d8c6dc07624f4f41fd63592cedc6e8a5507",
        "ex.jsonl.debug.jsonl": "cb5dfba476dec98b42ee4993ed95803aee618c3ef519b4c69d2c149ae4396f9e",
        "vocab.json": "1ecfac86cdb02d6599cdbe0cb61e89bbf32926bbe90051bf80ba5f90d4b8a585",
    }

    def test_outputs_match_pinned_digests(self, pipeline_dir, tmp_path):
        assert run(["gen-examples", *_prep_flags(pipeline_dir), "--out", str(tmp_path / "ex.jsonl"),
                    "--debug-sidecar"]) == 0
        assert run(["pretrain", *_prep_flags(pipeline_dir), "--steps", "0", "--out", str(tmp_path / "run")]) == 0
        paths = {"aligned.jsonl": pipeline_dir / "aligned.jsonl", "ex.jsonl": pipeline_dir / "ex.jsonl",
                 "ex.jsonl.debug.jsonl": tmp_path / "ex.jsonl.debug.jsonl",
                 "vocab.json": tmp_path / "run" / "vocab.json"}
        assert {name: sha(path) for name, path in paths.items()} == self.DIGESTS

    # Joint mode at the trend-study sampler settings, and plain mode.
    PREP_CONFIGS = [
        {"heldout_fraction": 0.15, "triples_per_example": 1, "max_fragment_len": 48},
        {"heldout_fraction": 0.15, "mode": "plain", "max_fragment_len": 48},
    ]

    def _prep(self, pipeline_dir, tmp_path, command, obj):
        """Runs `command` on the pipeline's corpus under config `obj`; returns
        its output lines, the TrainConfig pretraining runs for it, and the
        corpus."""
        cfg, out = tmp_path / "prep.json", tmp_path / "out.jsonl"
        cfg.write_text(json.dumps(obj))
        corpus = pipeline_dir / "c.jsonl"
        assert run([command, "--corpus", str(corpus), "--seed", "42", "--config", str(cfg),
                    "--out", str(out)]) == 0
        fields = dict(obj, seed=42, steps=0, d_model=16, n_heads=2, n_layers=1)
        config = TrainConfig(**check_json_fields(TrainConfig, fields, ConfigError))
        return out.read_text().splitlines(), config, load_corpus(corpus)

    @pytest.mark.parametrize("obj", PREP_CONFIGS, ids=lambda obj: obj.get("mode", "hklm"))
    def test_gen_examples_writes_pretrainings_first_epoch(self, pipeline_dir, tmp_path, obj):
        lines, config, corpus = self._prep(pipeline_dir, tmp_path, "gen-examples", obj)
        train_examples = run_pretraining(config, corpus).train_examples
        assert lines[1:] == [json.dumps(example_to_json(ex)) for ex in train_examples]

    @pytest.mark.parametrize("obj", PREP_CONFIGS, ids=lambda obj: obj.get("mode", "hklm"))
    def test_align_writes_training_split(self, pipeline_dir, tmp_path, obj):
        lines, config, corpus = self._prep(pipeline_dir, tmp_path, "align", obj)
        train_aligned, _ = build_aligned(config, corpus, build_vocab(corpus))
        assert lines == [json.dumps(aligned_to_json(af), ensure_ascii=False) for af in train_aligned]


class TestPretrainFinetune:
    def test_full_chain_smoke(self, pipeline_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        rundir = tmp_path / "run"
        code = run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "42",
                    "--steps", "6", "--config", str(self._cfg(tmp_path)), "--out", str(rundir)])
        assert code == 0
        for name in ("model.ckpt", "metrics.jsonl", "vocab.json", "manifest.json"):
            assert (rundir / name).exists()
        blas_env = json.loads((rundir / "manifest.json").read_text())["extra"]["blas_thread_env"]
        assert set(blas_env) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert blas_env["OPENBLAS_NUM_THREADS"] == "1" and blas_env["MKL_NUM_THREADS"] is None
        assert (rundir / "metrics.jsonl").read_text().strip()

        ft = tmp_path / "ft"
        code = run(["finetune", "--checkpoint", str(rundir / "model.ckpt"), "--task", "ner",
                    "--train", str(pipeline_dir / "tasks" / "ner-train.jsonl"),
                    "--eval", str(pipeline_dir / "tasks" / "ner-eval.jsonl"),
                    "--out", str(ft), "--seed", "3", "--epochs", "1"])
        assert code == 0
        rec = json.loads((ft / "metrics.jsonl").read_text().splitlines()[-1])
        assert rec["task"] == "ner" and "f1" in rec

        ft2 = tmp_path / "ft2"
        code = run(["finetune", "--checkpoint", str(rundir / "model.ckpt"), "--task", "ner",
                    "--train", str(pipeline_dir / "tasks" / "ner-train.jsonl"),
                    "--eval", str(pipeline_dir / "tasks" / "ner-eval.jsonl"),
                    "--out", str(ft2), "--seed", "3", "--epochs", "1"])
        assert code == 0
        assert json.loads((ft2 / "metrics.jsonl").read_text().splitlines()[-1]) == rec

    # The metric key each --task's evaluation reports, and no other of these.
    METRIC_KEYS = {"et": "micro_f1", "oie": "f1", "qa": "map", "dialog": "hits@1"}

    @pytest.mark.parametrize("task", sorted(METRIC_KEYS))
    def test_every_task_end_to_end(self, pipeline_dir, checkpoint, tmp_path, task):
        """Each --task trains its adapters on its `synth-corpus --tasks-out`
        files and writes its own metrics."""
        ft = tmp_path / "ft"
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(pipeline_dir / "tasks" / f"{task}-train.jsonl"),
                    "--eval", str(pipeline_dir / "tasks" / f"{task}-eval.jsonl"),
                    "--out", str(ft), "--seed", "3", "--epochs", "1"])
        assert code == 0
        [line] = (ft / "metrics.jsonl").read_text().splitlines()
        rec = json.loads(line)
        assert rec["task"] == task
        assert {key for key in self.METRIC_KEYS.values() if key in rec} == {self.METRIC_KEYS[task]}

    def _cfg(self, tmp_path):
        p = tmp_path / "train.json"
        p.write_text(json.dumps({"d_model": 32, "n_layers": 1, "n_heads": 2,
                                 "heldout_fraction": 0.15, "batch_size": 8, "eval_every": 3}))
        return p

    def test_pretrain_rerun_bit_identical(self, pipeline_dir, tmp_path):
        outs = []
        for i in range(2):
            rundir = tmp_path / f"run{i}"
            assert run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "9",
                        "--steps", "4", "--config", str(self._cfg(tmp_path)), "--out", str(rundir)]) == 0
            outs.append((sha(rundir / "model.ckpt"), sha(rundir / "metrics.jsonl")))
        assert outs[0] == outs[1]

    def test_config_flag_precedence(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"steps": 999, "d_model": 32, "n_layers": 1, "n_heads": 2,
                                   "heldout_fraction": 0.15, "batch_size": 8}))
        rundir = tmp_path / "run"
        assert run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                    "--steps", "2", "--config", str(cfg), "--out", str(rundir)]) == 0
        man = json.loads((rundir / "manifest.json").read_text())
        assert man["config"]["steps"] == 2

    def test_flag_settles_a_conflict_in_the_config_file(self, pipeline_dir, tmp_path):
        """Plain mode with value noise is no config, but --mode hklm over the
        file's mode makes one: the config is checked once the flags are on."""
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"mode": "plain", "value_noise": True, "d_model": 16, "n_layers": 1,
                                   "n_heads": 2, "heldout_fraction": 0.15, "batch_size": 8}))
        rundir = tmp_path / "run"
        assert run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1", "--mode", "hklm",
                    "--steps", "1", "--config", str(cfg), "--out", str(rundir)]) == 0
        man = json.loads((rundir / "manifest.json").read_text())
        assert (man["config"]["mode"], man["config"]["value_noise"]) == ("hklm", True)


def _assert_one_line_error(code, capsys):
    """Exit 1 with one `error:` line on stderr and nothing on stdout; returns
    the line."""
    out = capsys.readouterr()
    assert code == 1
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error:")
    assert "Traceback" not in out.err and not out.out
    return out.err


class TestMalformedInputs:
    """Malformed input exits 1 with one `error:` line, a diverging run 2 with
    one `divergence:` line; never a traceback."""

    @pytest.mark.parametrize(
        "config",
        [
            [{"steps": 3}],
            "steps",
            None,
            {"steps": "10"},
            {"steps": 2.5},
            {"batch_size": True},
            {"lr": "1e-3"},
            {"lr": False},
            {"drop_headings": 1},
            {"mode": 1},
            {"triples_per_example": 1.5},
            {"triples_per_example": "1"},
            {"lr": -1},
            {"lr": 0},
            {"lr_scale": 0},
            {"warmup_steps": -1},
            {"eval_every": -1},
            {"weight_decay": -0.01},
            {"bogus_field": 1},
            # Python's json reads NaN and Infinity; 1e400 reads as inf.
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"lr": float("inf")},
            {"peak_lr": "1e-3"},
            {"peak_lr": False},
            {"peak_lr": -1},
            {"peak_lr": 0},
            {"peak_lr": float("inf")},
            # Retired keys, at the values runs used to set.
            {"lr": 3e-5},
            {"lr_scale": 10},
            {"weight_decay": 0.01},
            {"grad_accum": 2},
            {"mask_token_frac": float("nan")},
            {"init_std": float("nan")},
            {"pos_init_scale": float("inf")},
            {"tau": float("nan")},
            {"tau": -1},
            {"tau": 1.5},
            {"k_max": 0},
            {"k_max": 12},
            {"triples_per_example": 9, "k_max": 9},
            {"d_model": 30, "n_heads": 4},
            {"pos_init": "uniform"},
            {"init_std": -0.02},
            {"attn_init_std": -1},
            {"mask_token_frac": 1.2, "random_token_frac": -0.3},
            {"mask_token_frac": 0.8, "random_token_frac": 0.3},
            {"keep_frac": 0.1},
            {"tie_mlm": False},
            {"n_layers": 0},
            {"vocab_min_freq": 0},
            {"vocab_min_freq": 1},
            {"max_fragment_len": 8},
            {"max_fragment_len": 600, "max_seq_len": 64},
        ],
        ids=repr,
    )
    def test_bad_pretrain_config(self, pipeline_dir, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                    "--steps", "1", "--config", str(cfg), "--out", str(tmp_path / "run")])
        err = _assert_one_line_error(code, capsys)
        assert not isinstance(config, dict) or any(name in err for name in config)
        assert not (tmp_path / "run").exists()  # rejected before data preparation

    @pytest.mark.parametrize("text", ["{steps: 3}", "", json.dumps([{"steps": 3}]), json.dumps({"lr": 3e-5})],
                             ids=["not-json", "empty", "list", "retired-key"])
    def test_config_file_error_names_the_file(self, pipeline_dir, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                    "--steps", "1", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert _assert_one_line_error(code, capsys).startswith(f"error: {cfg}: ")
        assert not (tmp_path / "run").exists()

    def test_flag_error_does_not_name_the_config_file(self, pipeline_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        code = run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                    "--config", str(cfg), "--steps", "-1", "--out", str(tmp_path / "run")])
        err = _assert_one_line_error(code, capsys)
        assert "steps" in err and str(cfg) not in err

    def test_value_out_of_range_in_the_config_file(self, pipeline_dir, tmp_path, capsys):
        """The file parses as a config, so the error names the value alone."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 2}))
        code = run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                    "--config", str(cfg), "--steps", "1", "--out", str(tmp_path / "run")])
        assert _assert_one_line_error(code, capsys) == "error: tau must be in [0, 1], got 2\n"
        assert not (tmp_path / "run").exists()

    def test_task_sets_of_too_few_entities(self, tmp_path, capsys):
        """One entity goes to the eval split and leaves the training split
        none to draw task examples from."""
        code = run(["synth-corpus", "--seed", "1", "--entities", "1", "--out", str(tmp_path / "c.jsonl"),
                    "--tasks-out", str(tmp_path / "tasks")])
        err = _assert_one_line_error(code, capsys)
        assert "ner task" in err and "training split" in err
        for name in ("c.jsonl", "c.truth.jsonl", "c.jsonl.manifest.json", "tasks"):
            assert not (tmp_path / name).exists(), name

    @pytest.mark.parametrize("empty", ["train", "eval"])
    @pytest.mark.parametrize("task", ["ner", "et", "oie", "qa", "dialog"])
    def test_empty_task_file(self, pipeline_dir, checkpoint, tmp_path, capsys, task, empty):
        files = {split: pipeline_dir / "tasks" / f"{task}-{split}.jsonl" for split in ("train", "eval")}
        files[empty] = tmp_path / "empty.jsonl"
        files[empty].write_text("\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert f"--{empty} file {files[empty]}" in err
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("split", ["train", "eval"])
    @pytest.mark.parametrize("task, other", [("ner", "et"), ("et", "oie"), ("oie", "ner"),
                                             ("qa", "ner"), ("dialog", "et")])
    def test_task_file_of_another_variant(self, pipeline_dir, checkpoint, tmp_path, capsys,
                                          task, other, split):
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        files[split] = pipeline_dir / "tasks" / f"{other}-{split}.jsonl"
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        want = "rank" if task in ("qa", "dialog") else task
        assert str(files[split]) in err and f"{other!r}" in err and f"{want!r}" in err
        assert not (tmp_path / "ft" / "metrics.jsonl").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--epochs", "0"), ("--epochs", "-1"), ("--lr", "0"), ("--lr", "-1"), ("--lr", "nan"),
         ("--batch-size", "0")],
    )
    def test_bad_finetune_flag(self, pipeline_dir, checkpoint, tmp_path, capsys, flag, value):
        tasks = pipeline_dir / "tasks"
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", "ner",
                    "--train", str(tasks / "ner-train.jsonl"), "--eval", str(tasks / "ner-eval.jsonl"),
                    "--out", str(tmp_path / "ft"), "--seed", "3", flag, value])
        assert flag in _assert_one_line_error(code, capsys)
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["config"].update(bogus=1),
            lambda h: h["config"].update(dtype="float16"),
            lambda h: h.pop("config"),
            lambda h: h["config"].update(d_model=14),  # over 16-wide tensors
            lambda h: h["config"].update(n_heads=0),
            lambda h: h["tensors"][0].update(shape=[1]),
            lambda h: h.update(opt={"step": 1}),
            lambda h: h["tensors"].append({"name": "extra", "shape": [1]}),
            lambda h: h.update(tensors=None),
            # Retired keys load only at the value every model was built with.
            lambda h: h["config"].update(tie_mlm=False),
            lambda h: h["config"].update(pos_init="normal"),
            lambda h: h["config"].update(n_segments=4),
            # Values of another JSON type than their field's, even where they
            # compare equal to the checkpoint's own (16 and 1 layer).
            lambda h: h["config"].update(d_model=16.0),
            lambda h: h["config"].update(n_layers=True),
            lambda h: h["config"].update(vocab_size=float(h["config"]["vocab_size"])),
        ],
        ids=["unknown-key", "float16", "no-config", "narrow-d-model", "zero-heads", "shape", "no-moments",
             "extra-tensor", "no-tensors", "untied-decoder", "normal-positions", "four-segments",
             "float-d-model", "bool-layers", "float-vocab-size"],
    )
    def test_malformed_checkpoint_header(self, pipeline_dir, checkpoint, tmp_path, capsys, edit):
        header_line, tensors = checkpoint.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        edit(header)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + tensors)
        tasks = pipeline_dir / "tasks"
        code = run(["finetune", "--checkpoint", str(bad), "--task", "ner",
                    "--train", str(tasks / "ner-train.jsonl"), "--eval", str(tasks / "ner-eval.jsonl"),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        assert "checkpoint" in _assert_one_line_error(code, capsys)

    @pytest.mark.parametrize(
        "data, message",
        [(b"\xff\n", "'utf-8' codec can't decode byte 0xff"),
         (json.dumps({"entity_id": "e", "title": "t", "infobox": [],
                      "sections": [{"heading": "h", "level": True, "paragraphs": ["a"]}]}).encode(),
          "line 1: section 0: level must be an integer >= 1"),
         (json.dumps({"entity_id": "e", "title": "t", "infobox": 5,
                      "sections": [{"heading": "h", "level": 1, "paragraphs": ["a"]}]}).encode(),
          "line 1: infobox must be a list")],
        ids=["not-utf-8", "level-true", "infobox-not-a-list"],
    )
    def test_malformed_corpus_names_the_file(self, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        code = run(["align", "--corpus", str(bad), "--seed", "1", "--out", str(tmp_path / "a.jsonl")])
        assert _assert_one_line_error(code, capsys).startswith(f"error: {bad}: {message}")
        assert not (tmp_path / "a.jsonl").exists()

    def test_task_file_not_utf8_is_named(self, pipeline_dir, checkpoint, tmp_path, capsys):
        tasks = pipeline_dir / "tasks"
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes((tasks / "ner-train.jsonl").read_bytes() + b"\xff\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", "ner",
                    "--train", str(bad), "--eval", str(tasks / "ner-eval.jsonl"),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        assert _assert_one_line_error(code, capsys).startswith(f"error: {bad}: 'utf-8' codec can't decode")
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize(
        "record",
        [{"variant": "ner", "tokens": [20]}, {"id": "x", "tokens": [20]}, {"id": "x", "variant": "ner"},
         {"id": "x", "variant": "ner", "tokens": 20}, [1, 2], "ner",
         # Tags outside the BIO scheme: a bare type and a prefix without one.
         {"id": "x", "variant": "ner", "tokens": [20], "tags": ["building"]},
         {"id": "x", "variant": "ner", "tokens": [20], "tags": ["B-"]},
         # An id that is not a string, one that line 1 has, and a tag past the tokens.
         {"id": [1], "variant": "ner", "tokens": [20], "tags": ["O"]},
         {"id": "ner-tr-00000", "variant": "ner", "tokens": [20], "tags": ["O"]},
         {"id": "x", "variant": "ner", "tokens": [20], "tags": ["O", "O"]}],
        ids=repr,
    )
    def test_malformed_task_record(self, pipeline_dir, checkpoint, tmp_path, capsys, record):
        tasks = pipeline_dir / "tasks"
        bad = tmp_path / "bad.jsonl"
        bad.write_text((tasks / "ner-train.jsonl").read_text().splitlines()[0] + "\n" + json.dumps(record) + "\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", "ner",
                    "--train", str(bad), "--eval", str(tasks / "ner-eval.jsonl"),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        assert "line 2" in _assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("task, split, field", [("ner", "eval", "tags"), ("et", "eval", "labels"),
                                                    ("oie", "train", "triples"), ("qa", "train", "gold")])
    def test_task_record_without_its_variants_field(self, pipeline_dir, checkpoint, tmp_path, capsys,
                                                    task, split, field):
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        first, second = files[split].read_text().splitlines()[:2]
        record = json.loads(second)
        del record[field]
        files[split] = tmp_path / "bad.jsonl"
        files[split].write_text(first + "\n" + json.dumps(record) + "\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert str(files[split]) in err and "line 2" in err and repr(field) in err
        assert not (tmp_path / "ft" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("task, field, edit, shown", [
        ("qa", "gold", lambda record: record.update(gold=99), "99"),
        ("oie", "pred", lambda record: record["triples"][0].update(pred=[0, 99]), "99"),
        ("qa", "gold", lambda record: record.update(gold=True), "true"),
        ("oie", "pred", lambda record: record["triples"][0].update(pred=[False, True]), "[false, true]"),
    ], ids=["qa-gold-99", "oie-pred-0-99", "qa-gold-true", "oie-pred-false-true"])
    def test_task_record_index_out_of_range(self, pipeline_dir, checkpoint, tmp_path, capsys,
                                            task, field, edit, shown):
        """A rank gold outside the candidates and a span past the tokens are
        rejected when the file is read, not hit as an IndexError in training;
        so are booleans, which would read as indices 0 and 1."""
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        first, second = files["train"].read_text().splitlines()[:2]
        record = json.loads(second)
        edit(record)
        files["train"] = tmp_path / "bad.jsonl"
        files["train"].write_text(first + "\n" + json.dumps(record) + "\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert str(files["train"]) in err and "line 2" in err and field in err and shown in err
        assert not (tmp_path / "ft" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("task, field, value", [("et", "labels", "person"), ("ner", "tags", "OOO"),
                                                    ("et", "labels", ["person", 1])],
                             ids=["et-labels-string", "ner-tags-string", "et-labels-int"])
    def test_task_record_with_labels_or_tags_not_a_list_of_strings(self, pipeline_dir, checkpoint, tmp_path,
                                                                     capsys, task, field, value):
        """A string would read as one label or tag per character: "person"
        would score 0.0, and "OOO" on three tokens would train as three O
        tags."""
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        first, second, *rest = files["train"].read_text().splitlines()
        record = json.loads(second)
        record[field] = value
        if task == "ner":  # as many tags as tokens
            record["tokens"] = record["tokens"][:len(value)]
        files["train"] = tmp_path / "bad.jsonl"
        files["train"].write_text("\n".join([first, json.dumps(record), *rest]) + "\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert str(files["train"]) in err and "line 2" in err and field in err and json.dumps(value) in err
        assert not (tmp_path / "ft" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("task, bad", [("ner", -3), ("ner", True), ("ner", 2.7), ("qa", -3)],
                             ids=["ner-negative", "ner-true", "ner-fraction", "qa-candidate-negative"])
    def test_task_record_with_a_bad_token_id(self, pipeline_dir, checkpoint, tmp_path, capsys, task, bad):
        """Token ids, of the tokens and of each rank candidate, are integers
        >= 0: -3 would read the embedding table from its end, true would read
        as id 1 and 2.7 as id 2."""
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        first, *rest = files["train"].read_text().splitlines()
        record = json.loads(first)
        (record["candidates"][-1] if task == "qa" else record["tokens"])[0] = bad
        files["train"] = tmp_path / "bad.jsonl"
        files["train"].write_text("\n".join([json.dumps(record), *rest]) + "\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert str(files["train"]) in err and "line 1" in err and json.dumps(bad) in err
        assert not (tmp_path / "ft" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("task, edit", [
        ("ner", lambda record: record.update(tags=["O"] * len(record["tags"]))),
        ("et", lambda record: record.update(labels=[])),
        ("oie", lambda record: record.update(triples=[])),
        ("qa", lambda record: record.update(candidates=[record["candidates"][record["gold"]]], gold=0)),
        ("dialog", lambda record: record.update(candidates=[record["candidates"][record["gold"]]], gold=0)),
    ], ids=["ner-every-tag-O", "et-no-label", "oie-no-triple", "qa-gold-only", "dialog-gold-only"])
    def test_train_file_with_nothing_to_learn(self, pipeline_dir, checkpoint, tmp_path, capsys, task, edit):
        """A tag set of O alone, an empty label set, no predicate span or no
        candidate besides the gold one would train and score 0.0 or a
        ranking learnt from positive pairs alone (or fail later, naming no
        file)."""
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        records = [json.loads(line) for line in files["train"].read_text().splitlines()]
        for record in records:
            edit(record)
        files["train"] = tmp_path / "bad.jsonl"
        write_jsonl(files["train"], records)
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert f"--train file {files['train']}" in err and "nothing to learn" in err
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("task, edit", [
        ("ner", lambda record: record.update(tags=["O"] * len(record["tags"]))),
        ("et", lambda record: record.update(labels=[])),
        ("oie", lambda record: record.update(triples=[])),
        ("qa", lambda record: record.update(candidates=[record["candidates"][record["gold"]]], gold=0)),
    ], ids=["ner-every-tag-O", "et-no-label", "oie-no-triple", "qa-gold-only"])
    def test_eval_file_with_nothing_to_score(self, pipeline_dir, checkpoint, tmp_path, capsys, task, edit):
        """An eval set with no span, label or triple would score 0.0, and one
        with no candidate besides the gold one a perfect ranking; either is
        named before fine-tuning."""
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        records = [json.loads(line) for line in files["eval"].read_text().splitlines()]
        for record in records:
            edit(record)
        files["eval"] = tmp_path / "bad.jsonl"
        write_jsonl(files["eval"], records)
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        prefix = f"error: --eval file {files['eval']}: "
        assert err.startswith(prefix) and "nothing to learn or score" in err
        assert "training" not in err[len(prefix):]  # the rule holds for every set
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("task, split, markers", [("ner", "eval", 2), ("et", "train", 2),
                                                      ("oie", "eval", 4), ("qa", "train", 4)])
    def test_task_record_longer_than_the_model_reads(self, pipeline_dir, checkpoint, tmp_path, capsys,
                                                     task, split, markers):
        """A record whose tokens and the adapter's markers make a sequence one
        token longer than the checkpoint's max_seq_len is named before
        fine-tuning, not after it."""
        max_seq_len = load_checkpoint(str(checkpoint))[1].max_seq_len
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        first, second, *rest = files[split].read_text().splitlines()
        record = json.loads(second)
        n_more = max_seq_len - markers + 1 - len(record["tokens"])
        record["tokens"] += [record["tokens"][-1]] * n_more  # never [ENT]: an et record keeps one pair
        if task == "ner":
            record["tags"] += ["O"] * n_more
        files[split] = tmp_path / "long.jsonl"
        files[split].write_text("\n".join([first, json.dumps(record), *rest]) + "\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert f"--{split} file {files[split]}" in err and repr(record["id"]) in err
        assert f"{max_seq_len + 1}-token" in err and f"max_seq_len {max_seq_len}" in err
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("task, field", [("ner", "tokens"), ("qa", "candidates")])
    def test_eval_record_with_a_token_id_outside_the_vocabulary(self, pipeline_dir, checkpoint, tmp_path, capsys,
                                                               task, field):
        """A token id at or above the checkpoint's vocabulary size, in the
        tokens or in a ranking candidate, is named with its file and record
        before fine-tuning, not met by the encoder after it."""
        files = {s: pipeline_dir / "tasks" / f"{task}-{s}.jsonl" for s in ("train", "eval")}
        first, second, *rest = files["eval"].read_text().splitlines()
        record = json.loads(second)
        (record["candidates"][-1] if field == "candidates" else record["tokens"])[-1] = 99999
        files["eval"] = tmp_path / "bad.jsonl"
        files["eval"].write_text("\n".join([first, json.dumps(record), *rest]) + "\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        err = _assert_one_line_error(code, capsys)
        assert f"--eval file {files['eval']}" in err and repr(record["id"]) in err and "99999" in err
        assert not (tmp_path / "ft").exists()

    def test_finetune_divergence(self, pipeline_dir, checkpoint, tmp_path, capsys, recwarn):
        tasks = pipeline_dir / "tasks"
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", "ner",
                    "--train", str(tasks / "ner-train.jsonl"), "--eval", str(tasks / "ner-eval.jsonl"),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--lr", "1e30"])
        out = capsys.readouterr()
        assert code == 2
        assert len(out.err.splitlines()) == 1 and out.err.startswith("divergence:")
        assert "Traceback" not in out.err and not out.out
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "ft" / "metrics.jsonl").exists()


class TestVersion:
    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
