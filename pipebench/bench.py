"""Workloads, the timed pretrain -> fine-tune pipeline, and its output checks.

The pipeline calls the public functions the `hklm` CLI calls, in the CLI's
order: synthesize inputs, `run_pretraining`, `save_checkpoint`,
`load_checkpoint`, then fine-tune and score each of the five adapters. All
times are taken here, around those calls; per-step times come from the
`progress` callback of `run_pretraining`. Each timed region is recorded as
(start, end, busy seconds) and turned into seconds at the nominal machine
speed at the end of the run (see speed.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from hklm import checkpoint, encoder, finetune, pretrain, tasks
from hklm.corpus import MASK_ID, NUM_SPECIAL, Corpus, build_vocab, derive_seed, generate_synthetic_corpus
from hklm.encoder import ModelConfig, forward_batch, init_params, joint_loss, make_batch
from hklm.examples import PretrainExample, assemble_input
from speed import Speedometer

# Training and fine-tuning seeds are part of the workload, not of its inputs:
# with them fixed, the batch schedule draws the same length buckets on every
# corpus, so a short run's step times do not depend on which buckets it drew.
TRAIN_SEED = 1
FINETUNE_SEED = 1

# The CLI's default task-set sizes (train, eval), from the make_*_data defaults.
TASK_SIZES = {"ner": (240, 120), "et": (200, 100), "oie": (220, 110), "qa": (80, 40), "dialog": (80, 40)}
TASKS = tuple(TASK_SIZES)

UNITS = {
    "setup_s": "s",
    "time_to_first_step_s": "s",
    "train_step_ms": "ms",
    "train_tokens_per_s": "tokens/s",
    "pretrain_s": "s",
    "finetune_examples_per_s": "examples/s",
    "score_sequences_per_s": "sequences/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                 # "hklm" (joint) or "plain"
    entities: int             # synthetic corpus size
    steps: int                # pretraining steps
    max_fragment_len: int
    task_entities: int        # corpus prefix the five task sets are drawn from
    task_scale: float         # share of the CLI's default task-set sizes
    finetune_epochs: int
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    batch_size: int = 32
    setup_repeats: int = 3
    prep_repeats: int = 1      # time-to-first-step samples, the main run's included
    cross_epoch: bool = False  # the run must pass an epoch boundary

    def train_config(self) -> pretrain.TrainConfig:
        return pretrain.TrainConfig(
            mode=self.mode,
            steps=self.steps,
            eval_every=self.steps,
            batch_size=self.batch_size,
            max_fragment_len=self.max_fragment_len,
            triples_per_example=1 if self.mode == "hklm" else None,
            seed=TRAIN_SEED,
            d_model=self.d_model,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
        )

    def task_sizes(self) -> dict[str, tuple[int, int]]:
        return {
            task: (max(2, round(n_train * self.task_scale)), max(2, round(n_eval * self.task_scale)))
            for task, (n_train, n_eval) in TASK_SIZES.items()
        }


WORKLOADS = {
    w.name: w
    for w in (
        # Trend-study config: the training step dominates, sequences ~43 tokens.
        Workload("joint-short", "hklm", entities=200, steps=90, max_fragment_len=48,
                 task_entities=100, task_scale=0.3, finetune_epochs=2, prep_repeats=3, cross_epoch=True),
        # Plain MLM baseline arm, then the five adapters at the CLI's 3 epochs.
        Workload("plain-downstream", "plain", entities=200, steps=40, max_fragment_len=48,
                 task_entities=200, task_scale=0.4, finetune_epochs=3, prep_repeats=5),
    )
}


class StageFailed(RuntimeError):
    pass


class Ledger:
    """Counts operations (stage calls and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.check_failures = 0

    def stage(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing stage ends the run, reported as failed
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from exc

    def check(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every check runs, whatever an earlier one found
            self.failures.append(f"check {name}: {type(exc).__name__}: {exc}")
            self.check_failures += 1
            print(f"check {name} failed: {exc}", file=sys.stderr)
            return None


@contextlib.contextmanager
def recording(module, attr: str, record):
    """Pass each call's (args, result) of module.attr to record, unchanged otherwise."""
    fn = getattr(module, attr, None)
    if fn is None:
        yield
        return

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(args, result)
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    corpus: Corpus
    sets: dict[str, tuple[list, list]]  # task -> (train, eval)


def make_inputs(w: Workload, seed: int) -> Inputs:
    """What `hklm synth-corpus --tasks-out` produces: corpus, truth, task sets."""
    corpus, truth = generate_synthetic_corpus(seed, w.entities)
    vocab = build_vocab(corpus, 1)
    sub_corpus = Corpus(documents=corpus.documents[: w.task_entities])
    sub_truth = truth[: w.task_entities]
    n = w.task_sizes()
    sets = {
        "ner": tasks.make_ner_data(sub_truth, vocab, seed, *n["ner"]),
        "et": tasks.make_et_data(sub_truth, vocab, seed, *n["et"]),
        "oie": tasks.make_oie_data(sub_truth, vocab, seed, *n["oie"]),
        "qa": tasks.make_rank_data(sub_corpus, sub_truth, vocab, seed, *n["qa"]),
        "dialog": tasks.make_rank_data(sub_corpus, sub_truth, vocab, seed, *n["dialog"], dialog=True),
    }
    return Inputs(corpus=corpus, sets=sets)


def finetune_items(sets) -> int:
    """Adapter training items per epoch: OIE counts sentences (stage 1) plus
    (sentence, triple) pairs (stage 2); QA and dialog count query-candidate
    pairs, the gold one plus up to four negatives."""
    ner, et, oie = (len(sets[t][0]) for t in ("ner", "et", "oie"))
    oie_pairs = sum(len(ex.triples) for ex in sets["oie"][0])
    rank = sum(1 + min(4, len(ex.candidates) - 1) for t in ("qa", "dialog") for ex in sets[t][0])
    return ner + et + oie + oie_pairs + rank


def score_sequences(sets) -> int:
    """Evaluation inputs: one per NER/ET/OIE sentence, one per query-candidate pair."""
    return sum(len(sets[t][1]) for t in ("ner", "et", "oie")) + sum(
        len(ex.candidates) for t in ("qa", "dialog") for ex in sets[t][1]
    )


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


# A timed region: (start, end, busy seconds). Busy time excludes the speed
# probes taken inside the region.
Region = tuple[float, float, float]


def region(span: tuple[float, float]) -> Region:
    return span[0], span[1], span[1] - span[0]


@dataclass
class Pass:
    wall_s: float = 0.0
    pretrain: Region = (0.0, 0.0, 0.0)
    first_step: Region = (0.0, 0.0, 0.0)
    steps: list[Region] = field(default_factory=list)  # steps 2..N that only train
    train_tokens: float = 0.0  # non-pad tokens of those steps
    finetune: list[Region] = field(default_factory=list)
    score: list[list[Region]] = field(default_factory=list)  # per scoring pass, per task
    step_tokens: list[float] = field(default_factory=list)
    first_support: tuple = ()
    repeat_metrics: list[dict] = field(default_factory=list)
    result: object = None
    aligned: tuple = ()
    loaded: tuple = ()
    ckpt_path: Path | None = None
    ckpt_sha256: str = ""
    outputs: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


FINETUNERS = (
    ("ner", "finetune_token_classifier"),
    ("et", "finetune_entity_typing"),
    ("oie1", "finetune_span_stage1"),
    ("oie2", "finetune_span_stage2"),
    ("qa", "finetune_ranker"),
    ("dialog", "finetune_ranker"),
)

# Steps between speed probes during pretraining.
PROBE_EVERY = 2

# Scoring passes over the same fine-tuned adapters.
SCORE_REPEATS = 3


def run_pass(w: Workload, inputs: Inputs, out_dir: Path, ledger: Ledger, meter: Speedometer) -> Pass:
    """Pretrain, checkpoint, fine-tune and score all five adapters, timed."""
    cfg = w.train_config()
    p = Pass()

    ends: list[float] = []
    resumes: list[float] = []
    not_training: set[int] = set()  # steps whose interval also holds head eval or a redraw

    def mark_step(_args, _result):
        if ends:
            not_training.add(len(ends) + 1)

    def progress(step, _breakdown):
        ends.append(time.perf_counter())
        if step % PROBE_EVERY == 0:
            meter.probe()
        resumes.append(time.perf_counter())

    def keep_aligned(_args, result):
        p.aligned = result

    def count_tokens(args, _result):
        batch = args[2]
        p.step_tokens.append(float(batch.mask.sum()))
        if not p.first_support:
            p.first_support = tuple(
                len(np.unique(rows)) / batch.size for rows in (batch.mlm_b, batch.tc_b, batch.tmt_b)
            )

    meter.probe()
    t_start = time.perf_counter()
    with recording(pretrain, "build_aligned", keep_aligned), \
            recording(pretrain, "backward_batch", count_tokens), \
            recording(pretrain, "evaluate_pretrain_heads", mark_step), \
            recording(pretrain, "generate_pretrain_examples", mark_step):
        p.result = ledger.stage("pretrain", pretrain.run_pretraining, cfg, inputs.corpus, progress=progress)
    res = p.result
    p.ckpt_path = out_dir / "model.ckpt"
    ledger.stage("save_checkpoint", checkpoint.save_checkpoint, p.ckpt_path, res.params,
                 res.model_config, res.vocab.hash_hex())
    t_saved = time.perf_counter()
    meter.probe()
    probing = sum(r - e for e, r in zip(ends, resumes))
    p.pretrain = (t_start, t_saved, t_saved - t_start - probing)
    p.first_step = region((t_start, ends[0]))
    # Step k (k >= 2) runs from the return of progress(k - 1) to progress(k).
    for k, span in enumerate(zip(resumes[:-1], ends[1:]), start=2):
        if k not in not_training:
            p.steps.append(region(span))
            p.train_tokens += p.step_tokens[k - 1]

    p.loaded = ledger.stage("load_checkpoint", checkpoint.load_checkpoint, p.ckpt_path)
    params, model_cfg = p.loaded[0], p.loaded[1]
    ft_cfg = finetune.FinetuneConfig(epochs=w.finetune_epochs, batch_size=16, lr=3e-4,
                                     seed=FINETUNE_SEED, max_seq_len=model_cfg.max_seq_len)
    models = {}
    for key, fn_name in FINETUNERS:
        train = inputs.sets[key[:3] if key.startswith("oie") else key][0]
        models[key], span = meter.timed(
            ledger.stage, f"finetune_{key}", getattr(finetune, fn_name), params, model_cfg, train, ft_cfg)
        p.finetune.append(region(span))

    captured: dict[str, tuple] = {}

    def keep_metrics(args, _result):
        captured["last"] = args[1]

    tags: list = []
    tagger = models["ner"]
    predict = tagger.predict

    def predict_and_keep(examples, *args, **kwargs):
        out = predict(examples, *args, **kwargs)
        tags.extend(out)
        return out

    tagger.predict = predict_and_keep
    calls = (
        ("ner", lambda ev: finetune.evaluate_ner(tagger, ev)),
        ("et", lambda ev: finetune.evaluate_et(models["et"], ev)),
        ("oie", lambda ev: finetune.evaluate_oie(models["oie1"], models["oie2"], ev)),
        ("qa", lambda ev: finetune.evaluate_rank(models["qa"], ev)),
        ("dialog", lambda ev: finetune.evaluate_rank(models["dialog"], ev, dialog=True)),
    )
    with recording(finetune, "compute_task_metrics", keep_metrics):
        for rep in range(SCORE_REPEATS):
            spans = []
            metrics = {}
            for task, call in calls:
                evals = inputs.sets[task][1]
                metrics[task], span = meter.timed(ledger.stage, f"score_{task}", call, evals)
                spans.append(region(span))
                preds = captured.pop("last", {})
                if rep:
                    continue
                if task == "ner":
                    p.outputs[task] = list(tags)
                elif task == "dialog":
                    p.outputs[task] = [preds[ex.example_id][0] for ex in evals] if preds else []
                else:
                    p.outputs[task] = [preds[ex.example_id] for ex in evals] if preds else []
            p.score.append(spans)
            p.repeat_metrics.append(metrics)
    p.metrics = p.repeat_metrics[0]
    p.wall_s = time.perf_counter() - t_start
    p.ckpt_sha256 = hashlib.sha256(p.ckpt_path.read_bytes()).hexdigest()
    return p


def extra_first_steps(w: Workload, inputs: Inputs, ledger: Ledger, meter: Speedometer) -> list[Region]:
    """Further time-to-first-step samples: pretraining cut after step 1."""
    cfg = dataclasses.replace(w.train_config(), steps=1, eval_every=0)
    samples = []
    for _ in range(w.prep_repeats - 1):
        marks: list[float] = []
        meter.probe()
        t0 = time.perf_counter()
        ledger.stage("pretrain_first_step", pretrain.run_pretraining, cfg, inputs.corpus,
                     progress=lambda _step, _b: marks.append(time.perf_counter()))
        meter.probe()
        samples.append(region((t0, marks[0])))
    return samples


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


# Held-out examples whose loss must fall over training (one batch).
HELD_LOSS_EXAMPLES = 64


def _held_loss(params, model_cfg, examples, lam, mu) -> float:
    batch = make_batch(examples, dtype=model_cfg.np_dtype)
    return joint_loss(forward_batch(params, model_cfg, batch), batch, lam, mu)[0].total


def _gradient_setup(rng):
    """A tiny float64 joint model and a two-example batch with every head."""
    cfg = ModelConfig(vocab_size=28, d_model=8, n_heads=2, n_layers=1, ffn_mult=2,
                      max_seq_len=24, dtype="float64")
    params = {k: v + rng.normal(0.0, 0.3, v.shape) for k, v in init_params(cfg, 5).items()}
    examples = []
    for n_text in (6, 9):
        text = [int(t) for t in rng.integers(NUM_SPECIAL, cfg.vocab_size, n_text)]
        heading = [int(t) for t in rng.integers(NUM_SPECIAL, cfg.vocab_size, 2)]
        triples = [[int(t) for t in rng.integers(NUM_SPECIAL, cfg.vocab_size, 3)] for _ in range(2)]
        ids, layout = assemble_input(text, heading, triples, cfg.max_seq_len)
        labels = [(p, ids[p]) for p in (1, 3)]
        for p, _ in labels:
            ids[p] = MASK_ID
        examples.append(PretrainExample(input_ids=ids, layout=layout, mlm_labels=labels,
                                        tc_labels=[1, 0], tmt_label=n_text % 2, seed=0))
    return cfg, params, make_batch(examples, dtype=np.float64)


def gradient_check(backward=None, seed: int = 0) -> float:
    """Finite-difference check of backward_batch (or a stand-in for it)."""
    backward = backward or encoder.backward_batch
    rng = np.random.default_rng(seed)
    cfg, params, batch = _gradient_setup(rng)

    def grads(prm):
        res = forward_batch(prm, cfg, batch, want_cache=True)
        return backward(prm, cfg, batch, res, 1.0, 1.0)[1]

    def loss(prm):
        return joint_loss(forward_batch(prm, cfg, batch), batch, 1.0, 1.0)[0].total

    return checks.check_gradients(grads, loss, params, rng)


def head_bounds(params, cfg: pretrain.TrainConfig) -> tuple[float, float]:
    """Bounds on the TC and TMT heads' logit differences for these parameters:
    the encoder ends in a layer norm, so a hidden state's norm is at most
    max|gain| * sqrt(d) + |bias|."""
    last = f"layers.{cfg.n_layers - 1}."
    hidden_norm = (float(np.abs(params[last + "ln2_g"]).max()) * math.sqrt(cfg.d_model)
                   + float(np.linalg.norm(params[last + "ln2_b"])))
    return tuple(checks.binary_head_bound(params[h + "_w"], params[h + "_b"], hidden_norm) for h in ("tc", "tmt"))


def run_checks(w: Workload, inputs: Inputs, p: Pass, seed: int, ledger: Ledger) -> dict:
    """Every output check, outside the timed regions. Returns what they measured."""
    cfg = w.train_config()
    res = p.result
    token_to_id = res.vocab.token_to_id
    found: dict = {}

    def aligned_pair():
        checks.ensure(len(p.aligned) == 2, "hklm.pretrain.build_aligned was not observed")
        return p.aligned

    def fragments():
        train, held = aligned_pair()
        checks.check_fragments(inputs.corpus.documents, train + held, token_to_id, cfg.max_fragment_len)

    def retrieval():
        train, held = aligned_pair()
        if w.mode == "plain":
            checks.ensure(all(not af.triples for af in train + held), "plain mode retrieved triples")
            return 0
        rng = np.random.default_rng(derive_seed(seed, "check-retrieval"))
        pool = train + held
        sampled = [pool[int(i)] for i in rng.choice(len(pool), size=min(64, len(pool)), replace=False)]
        return checks.check_retrieval(train, sampled, inputs.corpus.documents, token_to_id, cfg.tau, cfg.k_max)

    def examples():
        out = {}
        for name, exs in (("train", res.train_examples), ("held", res.held_examples)):
            out[name] = checks.check_examples(exs, w.mode, cfg.max_seq_len, len(res.vocab), cfg.sampler_config())
        if w.cross_epoch:
            per_epoch = math.ceil(len(res.train_examples) / cfg.batch_size)
            checks.ensure(w.steps > per_epoch, f"{w.steps} steps do not pass the {per_epoch}-batch epoch")
        return out

    init = pretrain.init_params_seeded(res.model_config, cfg.seed)

    def training():
        held = res.held_examples[:HELD_LOSS_EXAMPLES]
        before = _held_loss(init, res.model_config, held, cfg.lam, cfg.mu)
        after = _held_loss(res.params, res.model_config, held, cfg.lam, cfg.mu)
        checks.check_training(before, after)
        # Reported, not gated: runs this short have not learned the unigram
        # distribution yet, so accuracy sits on either side of the baseline.
        return {"held_loss_before": before, "held_loss_after": after,
                "mlm_acc": res.metrics[-1].mlm_acc,
                "most_frequent_baseline": checks.most_frequent_baseline(res.train_examples, res.held_examples)}

    def initial_loss():
        return checks.check_initial_loss(res.loss_trace[0], p.first_support, len(res.vocab),
                                         head_bounds(init, cfg))

    def round_trip():
        params, model_cfg, vocab_hash, _opt = p.loaded
        checks.check_round_trip(res.params, params, res.model_config, model_cfg,
                                res.vocab.hash_hex(), vocab_hash)

    found["fragments"] = ledger.check("fragments", fragments)
    found["retrieval_scores"] = ledger.check("retrieval", retrieval)
    found["examples"] = ledger.check("examples", examples)
    found["gradient_rel_err"] = ledger.check("gradients", gradient_check, None, seed)
    found["initial_loss"] = ledger.check("initial_loss", initial_loss)
    found["training"] = ledger.check("training", training)
    found["round_trip"] = ledger.check("checkpoint_round_trip", round_trip)
    found["scoring_repeatable"] = ledger.check(
        "scoring_repeatable", checks.ensure, all(m == p.metrics for m in p.repeat_metrics),
        "scoring the same adapters twice gave different metrics")
    for task in TASKS:
        found[task] = ledger.check(f"task_{task}", checks.check_task, task, inputs.sets[task][1],
                                   p.outputs[task], p.metrics[task])
    return found


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_runs(w: Workload, seed: int, ledger: Ledger, repeats: int,
               meter: Speedometer) -> tuple[Inputs, list[Region]]:
    """Inputs of the last of `repeats` set-ups, and the region of each."""
    spans = []
    inputs = None
    for _ in range(repeats):
        inputs = None
        gc.collect()
        inputs, span = meter.timed(ledger.stage, "setup", make_inputs, w, seed)
        spans.append(region(span))
    return inputs, spans


def end_to_end(measure, imports: Region, setup: list[Region], p: Pass, first_steps: list[Region],
               inputs: Inputs, w: Workload) -> dict:
    """The end-to-end metrics, with every region's seconds given by
    measure(start, end, busy): normalized (Speedometer.normalize) or wall."""

    def seconds(r: Region) -> float:
        return measure(*r)

    steps = [seconds(r) for r in p.steps]
    return {
        "setup_s": seconds(imports) + statistics.median(seconds(r) for r in setup),
        "time_to_first_step_s": statistics.median(seconds(r) for r in [p.first_step, *first_steps]),
        "train_step_ms": 1000.0 * statistics.median(steps),
        "train_tokens_per_s": p.train_tokens / sum(steps),
        "pretrain_s": seconds(p.pretrain),
        "finetune_examples_per_s": finetune_items(inputs.sets) * w.finetune_epochs
        / sum(seconds(r) for r in p.finetune),
        "score_sequences_per_s": statistics.median(
            score_sequences(inputs.sets) / sum(seconds(r) for r in rep) for rep in p.score
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def wall(_start: float, _end: float, busy: float) -> float:
    return busy


def facts(w: Workload, inputs: Inputs, p: Pass) -> dict:
    """Make-up of the run's inputs and work, fixed by the seed."""
    res = p.result
    lengths = [len(ex.input_ids) for ex in res.train_examples]
    train, held = p.aligned if len(p.aligned) == 2 else ([], [])
    return {
        "entities": w.entities,
        "documents": len(inputs.corpus),
        "vocab": len(res.vocab),
        "fragments": len(train) + len(held),
        "train_examples": len(res.train_examples),
        "held_examples": len(res.held_examples),
        "mean_seq_len": statistics.fmean(lengths),
        "max_seq_len": max(lengths),
        "tokens_per_epoch": sum(lengths),
        "batches_per_epoch": math.ceil(len(lengths) / w.batch_size),
        "steps": len(p.step_tokens),
        "train_only_steps": len(p.steps),
        "tokens_trained": sum(p.step_tokens),
        "task_sets": {t: [len(a), len(b)] for t, (a, b) in inputs.sets.items()},
        "finetune_items": finetune_items(inputs.sets) * w.finetune_epochs,
        "score_sequences": score_sequences(inputs.sets),
        "checkpoint_sha256": p.ckpt_sha256,
        "task_metrics": p.metrics,
    }
