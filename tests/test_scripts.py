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


# The digests scripts/weights_digest.py prints at OPENBLAS_NUM_THREADS=1:
# a change that moves one trained or scored byte moves one of these.
WEIGHT_DIGESTS = {
    "drop_headings": {
        "checkpoint": "fc5fe589446ba6eaf645edd147aa912064b203e71ae9a963e0c203f115524846",
        "metrics": "3d6ee06f8eda26ca5bb4db57e0699bdf212a7480a6d8ac8ecbcb6f4ee3f41ed7",
        "params": "924b7688ea9d0a7f1b80b7d1d499ca691e732ce574dbe6ac75a1852bcfe0cfaf",
    },
    "finetune_dialog": "f4fa579266e22f68235d526c1c5380a91302bf2a265814810d8cda067fc9709c",
    "finetune_et": "48ce32ccabf31bfcb321204e1d2f25bc905a598ba7e09932c840305c62f7f013",
    "finetune_ner": "4556be957f1c9f43541e0d54103cdfb475f05ed07ecff920eb27d5978bb7df0f",
    "finetune_oie1": "f37ee2d7675171bb3c48014f8004c474914cec0fb7af16e9d86f131a407059e4",
    "finetune_oie2": "ef3a8b56fe74d995288c401ac1ceab556e8efbcd06db0e1893ea025cbf853b4c",
    "finetune_qa": "2cfe5cbcbb26e7f940b6071cbac3ca9e94acc37b26867d438729c851135b966a",
    "half_kg": {
        "checkpoint": "c26d8e41815652023662168ea478814cda292e6edc820e301ed2b068fc8b8d91",
        "metrics": "6815664edb01abec6c4387b3aab6b3a52573a09db5e6cd7cf1e1a1c51ced0146",
        "params": "38659971d7fcf9736798db20200c443b37028a32633c85b9dfc636e4c74b7817",
    },
    "joint": {
        "checkpoint": "ce2690505d361fd48c567b368afdffd0ae640224558976359baf430f1ed115fd",
        "metrics": "5dc36e82e7d6a299404a9032ec4089fd619462ed620cdcc7a821f37e9a16cd19",
        "params": "7e069758815d80dbfbaf1ff93f3634630be84477c5891be8458291c4fd02d8d1",
    },
    "noisy_kg": {
        "checkpoint": "3fabe3c00d38a339f70f420777a04f7eb92f091a75daf8e0d2abd04a511dc1d0",
        "metrics": "379663944ea78aa3490826eca3e69b8d467ab32d7b7945b38b44c6ca5028511c",
        "params": "43eb47c4c723d7a88f9b6b9824cf6035a7a3a03aaa1d618bdf627cf9e9750ab2",
    },
    "plain": {
        "checkpoint": "89dbbd5299e852d762dc3482e4c9c1d97a5231ffd741ca810a095ebc0c25a378",
        "metrics": "102882cf6854f2ed86fbba62b02d556cf74ab43ce53b798e6fad0cdf50d3f8f0",
        "params": "55e17bee8573a6271cb34dc56e5282401e264ad90dc2c924604c8009e523f266",
    },
    "score_dialog": "92cc39101b2cb7502f6005f0f5709dd9454e5c1f55c2eb51c6b5843dde5cdd61",
    "score_et": "09f739d1b0c0b2193216e5a3d3f1abfc5603c57f46cc080a18867601fc604c78",
    "score_ner": "975de29fe6a31782acc8368cd51ca3db45849cc9daa870bd6b6c97845324c16c",
    "score_oie": "358b986761a33cd5d936aadd30810f9b22cf9ccac03678261dc128a0fbdcca0c",
    "score_qa": "6e69a95460f7d2e2815cf2af6793fcc6087f3bd1d7ea8236fc7c81477503b70c",
}


def test_weights_digest_prints_one_line_of_digests():
    lines = run_script("weights_digest.py")
    assert len(lines) == 1
    out = json.loads(lines[0])
    blas_env = out.pop("blas_env")
    assert set(blas_env) == set(BLAS_THREAD_ENV) and blas_env["OPENBLAS_NUM_THREADS"] == "1"
    assert out == WEIGHT_DIGESTS


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
