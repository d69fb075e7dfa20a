"""Output checks of the benchmark, computed apart from the program.

Every check raises CheckError when the program's output is wrong. Each one
compares against the benchmark's own recomputation (tokenization, TF-IDF,
task metrics, a most-frequent-token baseline) or against a property the
method must have (layout positions, binomial shares, finite differences,
bit-exact round trips). None compares against a stored copy of an output.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

from hklm.corpus import CLS_ID, MASK_ID, NUM_SPECIAL, SEP0_ID, SEP_ID, SEPI_IDS, UNK_ID

# Width of the binomial acceptance interval, in standard deviations. A correct
# sampler falls outside it with probability below 1e-5 per share.
BINOMIAL_Z = 4.5
SCORE_TOL = 1e-9
_WORD = re.compile(r"[a-z0-9]+")


class CheckError(AssertionError):
    pass


def ensure(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def own_token_ids(text: str, token_to_id: dict[str, int]) -> list[int]:
    """Token ids of synthetic-corpus text: lowercase words split on whitespace.

    The synthetic generator writes no punctuation, capitals or CJK, so the
    program's tokenizer reduces to a whitespace split on these inputs; any
    other word is refused rather than guessed at.
    """
    words = text.split()
    for w in words:
        ensure(_WORD.fullmatch(w) is not None, f"unexpected word {w!r} in synthetic text")
    return [token_to_id.get(w, UNK_ID) for w in words]


# ---------------------------------------------------------------------------
# Fragmentation and retrieval
# ---------------------------------------------------------------------------


def check_fragments(documents, aligned, token_to_id, max_len: int) -> None:
    """Per section, the fragments concatenate to the paragraphs' token ids,
    in order, and no fragment is empty or longer than max_len."""
    by_doc: dict[str, list] = {}
    for af in aligned:
        by_doc.setdefault(af.fragment.entity_id, []).append(af.fragment)
    ensure(set(by_doc) == {d.entity_id for d in documents}, "fragments do not cover every document")
    for doc in documents:
        frags = by_doc[doc.entity_id]
        ensure([f.index for f in frags] == list(range(len(frags))), f"{doc.entity_id}: fragment indices")
        for sec_idx, section in enumerate(doc.sections):
            expected = [t for para in section.paragraphs for t in own_token_ids(para, token_to_id)]
            got = []
            for f in frags:
                if f.section_index == sec_idx:
                    ensure(0 < len(f.token_ids) <= max_len,
                           f"{doc.entity_id}: fragment of {len(f.token_ids)} tokens, limit {max_len}")
                    ensure(f.heading == section.heading, f"{doc.entity_id}: fragment heading")
                    got.extend(f.token_ids)
            ensure(got == expected, f"{doc.entity_id} section {sec_idx}: fragments do not rebuild the text")


def _terms(ids):
    return [t for t in ids if t >= NUM_SPECIAL]


def own_idf(fragment_ids: list[list[int]], triple_ids: list[list[int]]) -> dict[int, float]:
    """ln(N / document frequency) over fragments plus triples."""
    docs = fragment_ids + triple_ids
    df: Counter[int] = Counter()
    for ids in docs:
        df.update(set(_terms(ids)))
    return {t: math.log(len(docs) / n) for t, n in df.items()}


def own_cosine(a_ids: list[int], b_ids: list[int], idf: dict[int, float]) -> float:
    def vec(ids):
        terms = _terms(ids)
        counts = Counter(terms)
        return {t: n / len(terms) * idf[t] for t, n in counts.items() if t in idf}

    a, b = vec(a_ids), vec(b_ids)
    na = math.sqrt(sum(w * w for w in a.values()))
    nb = math.sqrt(sum(w * w for w in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(w * b[t] for t, w in a.items() if t in b) / (na * nb)


def triple_ids(triple, token_to_id) -> list[int]:
    return [
        i for text in (triple.subject, triple.predicate, triple.object)
        for i in own_token_ids(text, token_to_id)
    ]


def check_retrieval(train_aligned, sampled, documents, token_to_id, tau: float, k_max: int) -> int:
    """For each sampled aligned fragment, recompute the TF-IDF cosine of every
    infobox triple of its entity; the kept triples must be exactly those
    scoring >= tau, best first (ties in infobox order), cut at k_max, with
    matching scores. The index covers the training split's fragments and
    triples. Returns the number of scores compared.
    """
    docs = {d.entity_id: d for d in documents}
    train_ids = list(dict.fromkeys(af.fragment.entity_id for af in train_aligned))
    idf = own_idf(
        [af.fragment.token_ids for af in train_aligned],
        [triple_ids(t, token_to_id) for eid in train_ids for t in docs[eid].infobox],
    )
    compared = 0
    for af in sampled:
        infobox = docs[af.fragment.entity_id].infobox
        scored = [(own_cosine(af.fragment.token_ids, triple_ids(t, token_to_id), idf), k)
                  for k, t in enumerate(infobox)]
        ensure(all(abs(s - tau) > SCORE_TOL for s, _ in scored), "a score sits on tau; cannot judge")
        kept = sorted([(s, k) for s, k in scored if s >= tau], key=lambda sk: (-sk[0], sk[1]))
        if len(kept) > k_max:
            ensure(kept[k_max - 1][0] - kept[k_max][0] > SCORE_TOL, "a tie straddles k_max; cannot judge")
        kept = kept[:k_max]
        got = af.triples
        where = f"{af.fragment.entity_id} fragment {af.fragment.index}"
        ensure(len(got) == len(kept), f"{where}: kept {len(got)} triples, expected {len(kept)}")
        for (triple, score), (own, k) in zip(got, kept):
            ensure(abs(score - own) <= SCORE_TOL, f"{where}: score {score} != {own}")
            if triple != infobox[k]:
                # Only a near-tie may reorder; the triple must carry the same score.
                twin = [j for s, j in scored if abs(s - own) <= SCORE_TOL and infobox[j] == triple]
                ensure(bool(twin), f"{where}: kept {triple} where {infobox[k]} ranks")
        compared += len(scored)
    return compared


# ---------------------------------------------------------------------------
# Pretraining examples
# ---------------------------------------------------------------------------


def _share_ok(hits: int, n: int, p: float) -> bool:
    if n == 0:
        return True
    half = BINOMIAL_Z * math.sqrt(p * (1.0 - p) / n) + 0.5 / n
    return abs(hits / n - p) <= half


def check_examples(examples, mode: str, max_seq_len: int, vocab_size: int, sampler) -> dict:
    """Layout, special ids and sampled shares of one stream of examples."""
    n_maskable = n_masked = n_mask_id = 0
    tc = Counter()
    tmt = Counter()
    for ex in examples:
        ids, lay = ex.input_ids, ex.layout
        n = len(ids)
        ensure(n <= max_seq_len, f"example of {n} tokens exceeds max_seq_len {max_seq_len}")
        ensure(len(lay.seg_ids) == n, "segment ids do not cover the example")
        ensure(all(0 <= t < vocab_size for t in ids), "token id outside the vocabulary")
        special = {0: CLS_ID}
        if mode == "plain":
            ensure(lay.sep0_pos is None and not lay.triples, "plain example carries a heading or triples")
            special[n - 1] = SEP_ID
        else:
            ensure(lay.sep0_pos is not None, "joint example lacks [SEP0]")
            special[lay.sep0_pos] = SEP0_ID
            for i, (pos, _span) in enumerate(lay.triples):
                special[pos] = SEPI_IDS[i]
        labels = dict(ex.mlm_labels)
        ensure(len(labels) == len(ex.mlm_labels), "repeated MLM position")
        for pos, t in enumerate(ids):
            if pos in special:
                ensure(t == special[pos], f"position {pos} holds {t}, layout says {special[pos]}")
            elif pos in labels:
                ensure(t == MASK_ID or t >= NUM_SPECIAL, f"masked position {pos} holds special id {t}")
            else:
                ensure(t >= NUM_SPECIAL, f"special id {t} outside its layout position {pos}")
        for pos, orig in ex.mlm_labels:
            ensure(orig >= NUM_SPECIAL and pos not in special, "MLM label on a special position")
        n_maskable += sum(1 for pos in range(n) if pos not in special)
        n_masked += len(labels)
        n_mask_id += sum(1 for pos in labels if ids[pos] == MASK_ID)
        ensure(len(ex.tc_labels) == len(lay.triples), "one TC label per serialized triple")
        tc.update(ex.tc_labels)
        if ex.tmt_label is not None:
            tmt[ex.tmt_label] += 1
        elif mode != "plain":
            raise CheckError("joint example without a TMT label")
    shares = {
        "mask": (n_masked, n_maskable, sampler.mask_prob),
        "mask_token": (n_mask_id, n_masked, sampler.mask_token_frac),
        "tc_negative": (tc[0], tc[0] + tc[1], sampler.p_neg_tc),
        "tmt_negative": (tmt[0], tmt[0] + tmt[1], sampler.p_neg_tmt),
    }
    for name, (hits, n, p) in shares.items():
        ensure(_share_ok(hits, n, p), f"{name} share {hits}/{n} outside the binomial interval of {p}")
    return {name: hits / n if n else None for name, (hits, n, p) in shares.items()}


# ---------------------------------------------------------------------------
# Gradients, losses, training progress, checkpoints
# ---------------------------------------------------------------------------


def check_gradients(backward_fn, loss_fn, params, rng, per_tensor: int = 2) -> float:
    """Central differences against backward_fn on a float64 model.

    backward_fn(params) -> grads; loss_fn(params) -> float. Returns the worst
    relative error seen.
    """
    grads = backward_fn(params)
    worst = 0.0
    eps = 1e-5
    for name, p in params.items():
        flat = p.reshape(-1)
        for k in rng.choice(flat.size, size=min(per_tensor, flat.size), replace=False):
            old = flat[k]
            flat[k] = old + eps
            up = loss_fn(params)
            flat[k] = old - eps
            down = loss_fn(params)
            flat[k] = old
            numeric = (up - down) / (2 * eps)
            analytic = float(grads[name].reshape(-1)[k])
            err = abs(numeric - analytic) / max(1e-6, abs(numeric) + abs(analytic))
            worst = max(worst, err)
            ensure(err < 1e-4, f"gradient of {name}[{k}]: analytic {analytic}, numeric {numeric}")
    return worst


def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def binary_head_bound(w: np.ndarray, b: np.ndarray, hidden_norm: float) -> float:
    """Largest |logit difference| a two-class head can give a hidden state of
    at most hidden_norm (Cauchy-Schwarz)."""
    return float(np.linalg.norm(w[:, 1] - w[:, 0]) * hidden_norm + abs(b[1] - b[0]))


def check_initial_loss(first, support, vocab_size: int, bounds: tuple[float, float]) -> dict:
    """Step-1 loss of an untrained model.

    The MLM term is ln V per example with a masked position, averaged over the
    batch (the decoder's logits start near zero). A binary head's term lies,
    per example with a label, between softplus(-B) and softplus(B), where B
    bounds the head's logit difference; it is ln 2 when B is small. support
    holds the step-1 batch's shares of examples with MLM, TC and TMT labels.
    """
    ensure(len(support) == 3, "the step-1 batch was not observed")
    _total, mlm, tc, tmt = first
    want = math.log(vocab_size) * support[0]
    ensure(abs(mlm - want) <= 0.03 * want + 1e-9, f"step-1 MLM loss {mlm:.4f}, expected {want:.4f}")
    for name, got, share, bound in (("TC", tc, support[1], bounds[0]), ("TMT", tmt, support[2], bounds[1])):
        lo, hi = share * _softplus(-bound), share * _softplus(bound)
        ensure(lo - 1e-9 <= got <= hi + 1e-9, f"step-1 {name} loss {got:.4f} outside [{lo:.4f}, {hi:.4f}]")
    return {"step1_loss": first[0], "ln_v_share": want, "ln2_tc": math.log(2) * support[1],
            "ln2_tmt": math.log(2) * support[2]}


def most_frequent_baseline(train_examples, held_examples) -> float:
    """Accuracy on held-out masked positions of always guessing the most
    frequent non-special training token (ties to the smaller id)."""
    counts: Counter[int] = Counter()
    for ex in train_examples:
        ids = list(ex.input_ids)
        for pos, orig in ex.mlm_labels:
            ids[pos] = orig
        counts.update(t for t in ids if t >= NUM_SPECIAL)
    top = min(counts, key=lambda t: (-counts[t], t))
    held = [orig for ex in held_examples for _pos, orig in ex.mlm_labels]
    return sum(1 for t in held if t == top) / len(held)


def check_training(loss_before: float, loss_after: float) -> None:
    ensure(loss_after < loss_before, f"held-out loss did not fall: {loss_before:.4f} -> {loss_after:.4f}")


def check_round_trip(saved: dict, loaded: dict, saved_cfg, loaded_cfg, vocab_hash, loaded_hash) -> None:
    ensure(loaded_cfg == saved_cfg, "checkpoint config changed in the round trip")
    ensure(loaded_hash == vocab_hash, "checkpoint vocab hash changed in the round trip")
    ensure(list(loaded) == list(saved), "checkpoint tensor names or order changed")
    for name, arr in saved.items():
        got = loaded[name]
        ensure(got.dtype == arr.dtype and got.shape == arr.shape, f"{name}: dtype or shape changed")
        ensure(got.tobytes() == arr.tobytes(), f"{name}: values changed in the round trip")


# ---------------------------------------------------------------------------
# Downstream tasks
# ---------------------------------------------------------------------------


def bio_valid(tags: list[str]) -> bool:
    prev = "O"
    for tag in tags:
        if tag != "O" and not re.fullmatch(r"[BI]-.+", tag):
            return False
        if tag.startswith("I-") and prev[2:] != tag[2:]:
            return False
        prev = tag
    return True


def bio_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    spans, start = [], None
    for i, tag in enumerate(tags + ["O"]):
        if start is not None and not tag.startswith("I-"):
            spans.append((start, i, tags[start][2:]))
            start = None
        if tag.startswith("B-"):
            start = i
    return spans


def micro_f1(pred: list[list], gold: list[list]) -> float:
    tp = fp = fn = 0
    for p, g in zip(pred, gold):
        common = sum((Counter(p) & Counter(g)).values())
        tp += common
        fp += len(p) - common
        fn += len(g) - common
    if tp == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def headline(task: str, examples, outputs) -> tuple[str, float]:
    """The benchmark's own headline metric for one task.

    outputs per task: ner -> BIO tag lists; et -> label sets; oie -> triples
    as (subj, pred, obj) span tuples; qa/dialog -> rankings.
    """
    if task == "ner":
        return "f1", micro_f1([bio_spans(t) for t in outputs], [bio_spans(ex.tags) for ex in examples])
    if task == "et":
        return "micro_f1", micro_f1([sorted(s) for s in outputs], [sorted(ex.labels) for ex in examples])
    if task == "oie":
        gold = [[(tuple(t["subj"]), tuple(t["pred"]), tuple(t["obj"])) for t in ex.triples] for ex in examples]
        return "f1", micro_f1(outputs, gold)
    ranks = [ranking.index(ex.gold) + 1 for ex, ranking in zip(examples, outputs)]
    if task == "qa":
        return "map", sum(1.0 / r for r in ranks) / len(ranks)
    return "hits@1", sum(1 for r in ranks if r == 1) / len(ranks)


def check_task(task: str, examples, outputs, program_metrics: dict) -> float:
    """Outputs well formed, every metric in [0, 1], headline metric equal to
    the benchmark's own recomputation. Returns the headline value."""
    ensure(len(outputs) == len(examples), f"{task}: {len(outputs)} outputs for {len(examples)} inputs")
    if task == "ner":
        for ex, tags in zip(examples, outputs):
            ensure(len(tags) == len(ex.tokens), f"ner: {len(tags)} tags for {len(ex.tokens)} tokens")
            ensure(bio_valid(tags), f"ner: invalid BIO sequence {tags}")
    if task in ("qa", "dialog"):
        for ex, ranking in zip(examples, outputs):
            ensure(sorted(ranking) == list(range(len(ex.candidates))), f"{task}: ranking is not a permutation")
    for name, value in program_metrics.items():
        ensure(0.0 <= value <= 1.0, f"{task}: metric {name} = {value} outside [0, 1]")
    name, own = headline(task, examples, outputs)
    ensure(abs(program_metrics[name] - own) <= 1e-12, f"{task}: program {name} {program_metrics[name]} != {own}")
    return own
