"""Task metrics: ranking (MAP, MRR@N, hits@N), diversity (Distinct-n),
set/span precision-recall-F1 in micro and macro flavors."""

from __future__ import annotations

from collections import Counter


class MetricsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Ranking metrics. A "relevance list" is the 0/1 relevance of candidates in
# rank order (best first).
# ---------------------------------------------------------------------------


def average_precision(rels: list[int]) -> float:
    n_rel = sum(1 for r in rels if r)
    if n_rel == 0:
        return 0.0
    hits = 0
    total = 0.0
    for k, rel in enumerate(rels, start=1):
        if rel:
            hits += 1
            total += hits / k
    return total / n_rel


def map_score(rel_lists: list[list[int]]) -> float:
    if not rel_lists:
        return 0.0
    return sum(average_precision(r) for r in rel_lists) / len(rel_lists)


def reciprocal_rank_at(rels: list[int], n: int) -> float:
    """1/rank of the first relevant candidate, counting only ranks <= n."""
    for k, rel in enumerate(rels[:n], start=1):
        if rel:
            return 1.0 / k
    return 0.0


def mrr_at(rel_lists: list[list[int]], n: int) -> float:
    if not rel_lists:
        return 0.0
    return sum(reciprocal_rank_at(r, n) for r in rel_lists) / len(rel_lists)


def hits_at(rel_lists: list[list[int]], n: int) -> float:
    if not rel_lists:
        return 0.0
    return sum(1 for r in rel_lists if any(r[:n])) / len(rel_lists)


def distinct_n(responses: list[list], n: int) -> float:
    """Distinct n-grams over total n-grams across all responses."""
    seen = set()
    total = 0
    for resp in responses:
        for i in range(len(resp) - n + 1):
            seen.add(tuple(resp[i : i + n]))
            total += 1
    return len(seen) / total if total else 0.0


# ---------------------------------------------------------------------------
# Set / span precision-recall-F1
# ---------------------------------------------------------------------------


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def span_micro_prf(
    pred_spans: list[list[tuple]], gold_spans: list[list[tuple]]
) -> tuple[float, float, float]:
    """Micro P/R/F1 on exact span(+type) match, multiset semantics per sentence."""
    if len(pred_spans) != len(gold_spans):
        raise MetricsError("prediction/gold length mismatch")
    tp = fp = fn = 0
    for pred, gold in zip(pred_spans, gold_spans):
        pc, gc = Counter(pred), Counter(gold)
        inter = sum((pc & gc).values())
        tp += inter
        fp += sum(pc.values()) - inter
        fn += sum(gc.values()) - inter
    return _prf(tp, fp, fn)


def multilabel_prf(pred_sets: list[set], gold_sets: list[set]):
    """Exact-set accuracy plus micro and macro P/R/F1 over the label space."""
    if len(pred_sets) != len(gold_sets):
        raise MetricsError("prediction/gold length mismatch")
    labels = set()
    for s in pred_sets:
        labels |= set(s)
    for s in gold_sets:
        labels |= set(s)
    per_label = {}
    tp_all = fp_all = fn_all = 0
    for lab in sorted(labels):
        tp = sum(1 for p, g in zip(pred_sets, gold_sets) if lab in p and lab in g)
        fp = sum(1 for p, g in zip(pred_sets, gold_sets) if lab in p and lab not in g)
        fn = sum(1 for p, g in zip(pred_sets, gold_sets) if lab not in p and lab in g)
        per_label[lab] = _prf(tp, fp, fn)
        tp_all += tp
        fp_all += fp
        fn_all += fn
    micro = _prf(tp_all, fp_all, fn_all)
    if per_label:
        macro = tuple(sum(v[i] for v in per_label.values()) / len(per_label) for i in range(3))
    else:
        macro = (0.0, 0.0, 0.0)
    accuracy = (
        sum(1 for p, g in zip(pred_sets, gold_sets) if set(p) == set(g)) / len(gold_sets)
        if gold_sets
        else 0.0
    )
    return {"accuracy": accuracy, "micro": micro, "macro": macro, "per_label": per_label}


# ---------------------------------------------------------------------------
# BIO tags <-> spans
# ---------------------------------------------------------------------------


def bio_tags_to_spans(tags: list[str]) -> list[tuple[int, int, str]]:
    """(start, end_exclusive, type) spans from BIO tags; a stray I- opens a span."""
    spans = []
    start = None
    cur_type = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans.append((start, i, cur_type))
                start = None
            continue
        prefix, typ = tag.split("-", 1)
        if prefix == "B" or start is None or typ != cur_type:
            if start is not None:
                spans.append((start, i, cur_type))
            start = i
            cur_type = typ
    if start is not None:
        spans.append((start, len(tags), cur_type))
    return spans


def is_bio_tag(tag: str) -> bool:
    """Whether tag is O, B-<type> or I-<type> with a nonempty type."""
    return tag == "O" or (tag[:2] in ("B-", "I-") and len(tag) > 2)


def bio_transition_allowed(prev: str, tag: str) -> bool:
    """The BIO transition rule: I-X only after B-X or I-X. A sequence starts
    after O."""
    return not tag.startswith("I-") or (prev != "O" and prev[2:] == tag[2:])


def is_valid_bio(tags: list[str]) -> bool:
    return all(map(bio_transition_allowed, ["O", *tags], tags))


# ---------------------------------------------------------------------------
# Dispatcher keyed by example id
# ---------------------------------------------------------------------------


def _aligned(predictions: dict, gold: dict) -> list:
    if set(predictions) != set(gold):
        raise MetricsError("prediction/gold example ids do not match")
    return sorted(predictions)


def compute_task_metrics(task: str, predictions: dict, gold: dict) -> dict:
    """Metric bundle for one task.

    Payload shapes by task, keyed by example id:
      ner / oie: list of (start, end, type) spans per example.
      et:        set/list of labels per example.
      qa:        prediction = ranked candidate indices, gold = set of relevant indices.
      dialog:    prediction = (ranked candidate indices, candidate token lists),
                 gold = set of relevant indices.
    """
    ids = _aligned(predictions, gold)
    if task in ("ner", "oie"):
        p, r, f1 = span_micro_prf(
            [list(map(tuple, predictions[i])) for i in ids],
            [list(map(tuple, gold[i])) for i in ids],
        )
        return {"precision": p, "recall": r, "f1": f1}
    if task == "et":
        res = multilabel_prf([set(predictions[i]) for i in ids], [set(gold[i]) for i in ids])
        return {
            "accuracy": res["accuracy"],
            "micro_f1": res["micro"][2],
            "macro_f1": res["macro"][2],
        }
    if task == "qa":
        rel_lists = [[1 if c in gold[i] else 0 for c in predictions[i]] for i in ids]
        return {
            "map": map_score(rel_lists),
            "mrr@1": mrr_at(rel_lists, 1),
            "mrr@5": mrr_at(rel_lists, 5),
            "mrr@10": mrr_at(rel_lists, 10),
        }
    if task == "dialog":
        rel_lists = []
        selected = []
        for i in ids:
            ranking, cand_tokens = predictions[i]
            rel_lists.append([1 if c in gold[i] else 0 for c in ranking])
            selected.append(cand_tokens[ranking[0]] if ranking else [])
        out = {"hits@1": hits_at(rel_lists, 1), "hits@3": hits_at(rel_lists, 3)}
        for n in (1, 2, 3, 4):
            out[f"distinct-{n}"] = distinct_n(selected, n)
        return out
    raise MetricsError(f"unknown task {task!r}")
