"""Quick mode of the benchmark's own tests.

    python3 -m pytest pipebench -q

Runs every workload at toy size through the whole pipeline and every output
check, then shows that each check rejects a deliberately wrong value. Takes
about half a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from hklm.corpus import SEP_ID  # noqa: E402

N_CHECKS = 8 + len(bench.TASKS)


def n_stages(w: bench.Workload) -> int:
    """Setup runs, pretrain/save/load, adapters, scoring passes, first-step samples."""
    return w.setup_repeats + 3 + len(bench.FINETUNERS) + bench.SCORE_REPEATS * len(bench.TASKS) + w.prep_repeats - 1


def toy(w: bench.Workload) -> bench.Workload:
    return dataclasses.replace(
        w, entities=24, task_entities=24, task_scale=0.1, d_model=16, n_layers=1, batch_size=8,
        steps=48 if w.cross_epoch else 8, setup_repeats=1,
    )


@dataclasses.dataclass
class ToyRun:
    workload: bench.Workload
    inputs: bench.Inputs
    p: bench.Pass
    ledger: bench.Ledger
    found: dict
    metrics: dict


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, ToyRun]:
    out = {}
    for name, w in bench.WORKLOADS.items():
        w = toy(w)
        ledger = bench.Ledger()
        meter = bench.Speedometer()
        now = time.perf_counter()
        meter.probe()
        inputs, setup = bench.setup_runs(w, 3, ledger, w.setup_repeats, meter)
        p = bench.run_pass(w, inputs, tmp_path_factory.mktemp(name), ledger, meter)
        first_steps = bench.extra_first_steps(w, inputs, ledger, meter)
        found = bench.run_checks(w, inputs, p, 3, ledger)
        out[name] = ToyRun(w, inputs, p, ledger, found, bench.end_to_end(meter.normalize, (now, now + 0.1, 0.1), setup, p, first_steps,
                                                                   inputs, w))
    return out


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_toy_workload_passes_every_check(runs, name):
    run = runs[name]
    assert run.ledger.failures == []
    assert run.ledger.attempted == n_stages(run.workload) + N_CHECKS
    assert set(run.metrics) == set(bench.UNITS)
    assert all(np.isfinite(v) and v > 0 for v in run.metrics.values())


def test_step_times_leave_out_head_eval_and_redraws(runs):
    run = runs["joint-short"]
    # Step 1 is timed apart, the last step also runs the held-out head eval,
    # and the first step of each later epoch redraws the examples.
    assert len(run.p.steps) <= len(run.p.step_tokens) - 3
    assert 0 < run.p.train_tokens < sum(run.p.step_tokens[1:])


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER


# ---------------------------------------------------------------------------
# Each check rejects a wrong value
# ---------------------------------------------------------------------------


def test_fragment_check_rejects_changed_token_and_overlong_fragment(runs):
    run = runs["joint-short"]
    train, held = run.p.aligned
    aligned = copy.deepcopy(train + held)
    vocab = run.p.result.vocab.token_to_id
    docs = run.inputs.corpus.documents
    checks.check_fragments(docs, aligned, vocab, run.workload.max_fragment_len)
    with pytest.raises(checks.CheckError, match="limit"):
        checks.check_fragments(docs, aligned, vocab, 3)
    aligned[5].fragment.token_ids[0] += 1
    with pytest.raises(checks.CheckError, match="rebuild"):
        checks.check_fragments(docs, aligned, vocab, run.workload.max_fragment_len)


def test_retrieval_check_rejects_perturbed_score_and_dropped_triple(runs):
    run = runs["joint-short"]
    cfg = run.workload.train_config()
    train, _held = run.p.aligned
    target = next(i for i, af in enumerate(train) if af.triples)
    docs, vocab = run.inputs.corpus.documents, run.p.result.vocab.token_to_id

    def judge(af):
        return checks.check_retrieval(train, [af], docs, vocab, cfg.tau, cfg.k_max)

    assert judge(train[target]) > 0
    bad = copy.deepcopy(train[target])
    triple, score = bad.triples[0]
    bad.triples[0] = (triple, score * (1 + 1e-6))
    with pytest.raises(checks.CheckError, match="score"):
        judge(bad)
    bad = copy.deepcopy(train[target])
    bad.triples.pop()
    with pytest.raises(checks.CheckError, match="kept"):
        judge(bad)


def test_example_check_rejects_moved_special_and_skewed_shares(runs):
    for name, mode in (("joint-short", "hklm"), ("plain-downstream", "plain")):
        run = runs[name]
        res = run.p.result
        sampler = run.workload.train_config().sampler_config()
        exs = copy.deepcopy(res.train_examples)
        checks.check_examples(exs, mode, 512, len(res.vocab), sampler)
        with pytest.raises(checks.CheckError, match="mask share"):
            checks.check_examples(exs, mode, 512, len(res.vocab), dataclasses.replace(sampler, mask_prob=0.25))
        exs[0].input_ids[0] = SEP_ID
        with pytest.raises(checks.CheckError, match="layout"):
            checks.check_examples(exs, mode, 512, len(res.vocab), sampler)
    run = runs["joint-short"]
    exs = copy.deepcopy(run.p.result.train_examples)
    for ex in exs:
        ex.tc_labels = [0] * len(ex.tc_labels)
    with pytest.raises(checks.CheckError, match="tc_negative"):
        checks.check_examples(exs, "hklm", 512, len(run.p.result.vocab),
                              run.workload.train_config().sampler_config())


def test_gradient_check_rejects_wrong_gradient():
    assert bench.gradient_check() < 1e-6

    def off(params, cfg, batch, res, lam, mu):
        loss, grads = bench.encoder.backward_batch(params, cfg, batch, res, lam, mu)
        grads["layers.0.ffn_w1"] = grads["layers.0.ffn_w1"] * 1.01
        return loss, grads

    with pytest.raises(checks.CheckError, match="ffn_w1"):
        bench.gradient_check(off)


def test_initial_loss_check_rejects_off_values(runs):
    run = runs["joint-short"]
    res, support = run.p.result, run.p.first_support
    cfg = run.workload.train_config()
    bounds = bench.head_bounds(bench.pretrain.init_params_seeded(res.model_config, cfg.seed), cfg)
    first = res.loss_trace[0]
    checks.check_initial_loss(first, support, len(res.vocab), bounds)
    with pytest.raises(checks.CheckError, match="MLM"):
        checks.check_initial_loss((first[0], first[1] * 1.1, first[2], first[3]), support, len(res.vocab), bounds)
    with pytest.raises(checks.CheckError, match="TMT"):
        checks.check_initial_loss((first[0], first[1], first[2], 0.0), support, len(res.vocab), bounds)


def test_training_check_rejects_rising_loss():
    checks.check_training(7.0, 6.5)
    with pytest.raises(checks.CheckError, match="did not fall"):
        checks.check_training(6.5, 7.0)


def test_round_trip_check_rejects_changed_tensor(runs):
    run = runs["joint-short"]
    res = run.p.result
    params, cfg, vocab_hash, _ = run.p.loaded
    checks.check_round_trip(res.params, params, res.model_config, cfg, res.vocab.hash_hex(), vocab_hash)
    changed = {k: v.copy() for k, v in params.items()}
    changed["tc_b"][0] = np.nextafter(changed["tc_b"][0], np.float32(1))
    with pytest.raises(checks.CheckError, match="tc_b"):
        checks.check_round_trip(res.params, changed, res.model_config, cfg, res.vocab.hash_hex(), vocab_hash)


def test_task_check_rejects_wrong_metric_ranking_and_tags(runs):
    run = runs["plain-downstream"]
    for task in bench.TASKS:
        evals = run.inputs.sets[task][1]
        outputs, metrics = run.p.outputs[task], run.p.metrics[task]
        checks.check_task(task, evals, outputs, metrics)
        name, value = checks.headline(task, evals, outputs)
        wrong = dict(metrics, **{name: value - 1e-6 if value > 0.5 else value + 1e-6})
        with pytest.raises(checks.CheckError, match="!="):
            checks.check_task(task, evals, outputs, wrong)
        with pytest.raises(checks.CheckError, match="outside"):
            checks.check_task(task, evals, outputs, dict(metrics, extra=1.5))
    qa = run.inputs.sets["qa"][1]
    rankings = copy.deepcopy(run.p.outputs["qa"])
    rankings[0][1] = rankings[0][0]
    with pytest.raises(checks.CheckError, match="permutation"):
        checks.check_task("qa", qa, rankings, run.p.metrics["qa"])
    ner = run.inputs.sets["ner"][1]
    tags = copy.deepcopy(run.p.outputs["ner"])
    tags[0] = ["I-nature"] + tags[0][1:]
    with pytest.raises(checks.CheckError, match="BIO"):
        checks.check_task("ner", ner, tags, run.p.metrics["ner"])


# ---------------------------------------------------------------------------
# Tracing and the command line
# ---------------------------------------------------------------------------


def test_tracer_reports_missing_function_and_every_metric(runs, tmp_path, monkeypatch):
    w = toy(bench.WORKLOADS["plain-downstream"])
    run = runs["plain-downstream"]
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + [("hklm.encoder", "renamed_away")])
    with spans.Tracer() as tracer:
        tp = bench.run_pass(w, run.inputs, tmp_path, bench.Ledger(), bench.Speedometer())
    assert tracer.missing == ["hklm.encoder.renamed_away"]
    assert tp.ckpt_sha256 == run.p.ckpt_sha256
    metrics = spans.per_layer_metrics(tracer, len(tp.step_tokens), 1, tp.wall_s, run.p.wall_s)
    assert list(metrics) == list(spans.PER_LAYER)
    assert metrics["pretrain.steps"] == w.steps
    assert metrics["finetune.score_encode_calls"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "joint-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
