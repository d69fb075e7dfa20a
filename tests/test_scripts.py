import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hklm.cli import BLAS_THREAD_ENV, build_parser

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args) -> list[str]:
    """The stdout lines of scripts/`name` run against this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()


def test_weights_digest_prints_one_line_of_digests():
    lines = run_script("weights_digest.py")
    assert len(lines) == 1
    out = json.loads(lines[0])
    blas_env = out.pop("blas_env")
    assert set(blas_env) == set(BLAS_THREAD_ENV) and blas_env["OPENBLAS_NUM_THREADS"] == "1"
    runs = [out.pop(name) for name in ("joint", "plain", "half_kg", "noisy_kg", "drop_headings")]
    assert all(set(run) == {"checkpoint", "metrics", "params"} for run in runs)
    assert set(out) == ({f"finetune_{name}" for name in ("ner", "et", "oie1", "oie2", "qa", "dialog")}
                        | {f"score_{task}" for task in ("ner", "et", "oie", "qa", "dialog")})
    digests = list(out.values()) + [digest for run in runs for digest in run.values()]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in digests)


def test_step_memory_prints_a_line_per_step_and_evaluation_and_a_summary():
    *steps, evaluation, summary = map(json.loads, run_script("step_memory.py", "--steps", "1"))
    assert len(steps) == 1
    assert set(steps[0]) == {"batch", "rows", "row_fraction", "live_mb", "cache_mb", "peak_mb",
                             "transient_mb", "faults"}
    assert evaluation["eval"] == "heads" and evaluation["examples"] > 0
    assert set(summary) == {"params_and_moments_mb", "max_peak_mb", "eval_peak_mb", "max_step_mb",
                            "left_mb", "cache_by_entry_mb"}
    # No layer-norm output, attention context or GELU tanh: the backward rebuilds them.
    assert set(summary["cache_by_entry_mb"]) == {
        "emb.ids", "emb.seg", "emb.ln", "head_rows", "head_in", "mlm.g", "mlm.pre", "mlm.ln",
        *(f"layers.{k}" for k in ("rows", "slot", "q", "k", "v", "probs", "ln1", "ffn_pre", "ln2"))}
    assert summary["cache_by_entry_mb"]["mlm.g"] == 0  # the MLM rows of head_in


def readme_commands() -> list[list[str]]:
    """The argument lists of the `hklm ...` commands in README's fenced blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[\w-]*\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("hklm ")]


def test_readme_commands_parse():
    """A flag the CLI no longer has fails here, not at a reader's shell."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"synth-corpus", "align", "gen-examples", "pretrain", "finetune"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_run_pipeline_commands_parse(tmp_path, monkeypatch):
    """Every command scripts/run_pipeline.py runs parses; none is run."""
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py"])
    spec = importlib.util.spec_from_file_location("run_pipeline", ROOT / "scripts" / "run_pipeline.py")
    run_pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_pipeline)
    commands = []
    monkeypatch.setattr(run_pipeline, "WORK", tmp_path)
    monkeypatch.setattr(run_pipeline.subprocess, "run", lambda cmd, check: commands.append(cmd))
    run_pipeline.main()
    assert [cmd[:3] for cmd in commands] == [[sys.executable, "-m", "hklm.cli"]] * 5
    for cmd in commands:
        build_parser().parse_args(cmd[3:])
