import hashlib
import json

import pytest

from hklm.cli import run
from hklm.examples import read_examples
from hklm.manifest import sha256_file


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small end-to-end CLI pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    c = root / "c.jsonl"
    assert run(["synth-corpus", "--seed", "42", "--entities", "10", "--out", str(c),
                "--tasks-out", str(root / "tasks")]) == 0
    assert run(["ingest", "--corpus", str(c), "--min-freq", "1", "--out", str(root / "vocab.json")]) == 0
    assert run(["align", "--corpus", str(c), "--vocab", str(root / "vocab.json"),
                "--out", str(root / "aligned.jsonl")]) == 0
    assert run(["gen-examples", "--corpus", str(c), "--vocab", str(root / "vocab.json"),
                "--seed", "42", "--out", str(root / "ex.jsonl")]) == 0
    return root


class TestSynthCorpus:
    def test_writes_corpus_truth_manifest(self, pipeline_dir):
        assert (pipeline_dir / "c.jsonl").exists()
        assert (pipeline_dir / "c.truth.jsonl").exists()
        man = json.loads((pipeline_dir / "c.jsonl.manifest.json").read_text())
        assert man["subcommand"] == "synth-corpus"
        assert man["seed"] == 42
        assert str(pipeline_dir / "c.jsonl") in man["outputs"]

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
        assert run(["ingest", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "v.json")]) == 1

    def test_malformed_corpus_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert run(["ingest", "--corpus", str(bad), "--out", str(tmp_path / "v.json")]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_divergence_exit_two(self, pipeline_dir, tmp_path):
        import numpy as np

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 40, "lr": 1e18, "lr_scale": 1e18,
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
        examples, vocab_hash = read_examples(pipeline_dir / "ex.jsonl")
        assert examples
        man = json.loads((pipeline_dir / "ex.jsonl.manifest.json").read_text())
        assert man["extra"]["vocab_hash"] == vocab_hash

    def test_align_rerun_identical(self, pipeline_dir, tmp_path):
        c = pipeline_dir / "c.jsonl"
        v = pipeline_dir / "vocab.json"
        a1, a2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        assert run(["align", "--corpus", str(c), "--vocab", str(v), "--out", str(a1)]) == 0
        assert run(["align", "--corpus", str(c), "--vocab", str(v), "--out", str(a2)]) == 0
        assert a1.read_bytes() == a2.read_bytes()
        assert a1.read_bytes() == (pipeline_dir / "aligned.jsonl").read_bytes()

    def test_gen_examples_rerun_identical(self, pipeline_dir, tmp_path):
        c = pipeline_dir / "c.jsonl"
        v = pipeline_dir / "vocab.json"
        e2 = tmp_path / "e2.jsonl"
        assert run(["gen-examples", "--corpus", str(c), "--vocab", str(v), "--seed", "42",
                    "--out", str(e2)]) == 0
        assert e2.read_bytes() == (pipeline_dir / "ex.jsonl").read_bytes()

    def test_debug_sidecar_records_joint_serialization(self, pipeline_dir, tmp_path):
        out = tmp_path / "ex.jsonl"
        assert run(["gen-examples", "--corpus", str(pipeline_dir / "c.jsonl"),
                    "--vocab", str(pipeline_dir / "vocab.json"), "--seed", "42",
                    "--out", str(out), "--debug-sidecar"]) == 0
        lines = [json.loads(line) for line in (tmp_path / "ex.jsonl.debug.jsonl").read_text().splitlines()]
        assert len(lines) == len(read_examples(out)[0])
        assert all(isinstance(rec["heading"], str) and "predicates" in rec for rec in lines)
        assert any(rec["predicates"] for rec in lines)
        assert out.read_bytes() == (pipeline_dir / "ex.jsonl").read_bytes()


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
        ],
        ids=repr,
    )
    def test_bad_pretrain_config(self, pipeline_dir, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                    "--steps", "1", "--config", str(cfg), "--out", str(tmp_path / "run")])
        _assert_one_line_error(code, capsys)

    @pytest.fixture(scope="class")
    def checkpoint(self, pipeline_dir, tmp_path_factory):
        rundir = tmp_path_factory.mktemp("tiny-run")
        cfg = rundir / "cfg.json"
        cfg.write_text(json.dumps({"d_model": 16, "n_layers": 1, "n_heads": 2,
                                   "heldout_fraction": 0.15, "batch_size": 8}))
        assert run(["pretrain", "--corpus", str(pipeline_dir / "c.jsonl"), "--seed", "1",
                    "--steps", "1", "--config", str(cfg), "--out", str(rundir)]) == 0
        return rundir / "model.ckpt"

    @pytest.mark.parametrize("empty", ["train", "eval"])
    @pytest.mark.parametrize("task", ["ner", "qa"])
    def test_empty_task_file(self, pipeline_dir, checkpoint, tmp_path, capsys, task, empty):
        files = {split: pipeline_dir / "tasks" / f"{task}-{split}.jsonl" for split in ("train", "eval")}
        files[empty] = tmp_path / "empty.jsonl"
        files[empty].write_text("\n")
        code = run(["finetune", "--checkpoint", str(checkpoint), "--task", task,
                    "--train", str(files["train"]), "--eval", str(files["eval"]),
                    "--out", str(tmp_path / "ft"), "--seed", "3", "--epochs", "1"])
        _assert_one_line_error(code, capsys)
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
