import json
import os
import re
import subprocess
import sys
from pathlib import Path

from hklm.cli import BLAS_THREAD_ENV

ROOT = Path(__file__).resolve().parents[1]


def test_weights_digest_prints_one_line_of_digests():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "weights_digest.py")],
                          capture_output=True, text=True, env=env, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    blas_env = out.pop("blas_env")
    assert set(blas_env) == set(BLAS_THREAD_ENV) and blas_env["OPENBLAS_NUM_THREADS"] == "1"
    runs = [out.pop(name) for name in ("joint", "joint_accum2", "plain")]
    assert all(set(run) == {"checkpoint", "metrics"} for run in runs)
    assert set(out) == {f"finetune_{name}" for name in ("ner", "et", "oie1", "oie2", "qa", "dialog")}
    digests = list(out.values()) + [digest for run in runs for digest in run.values()]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in digests)
