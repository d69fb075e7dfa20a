"""Independent brute-force reference implementations used as oracles.

Deliberately naive and written without reusing any package internals, so a
bug in the library cannot hide in its own test oracle.
"""

import math
import unicodedata
from collections import Counter


def naive_tfidf_weight(term, doc_terms, all_docs):
    n = len(all_docs)
    df = sum(1 for d in all_docs if term in d)
    if df == 0:
        return 0.0
    tf = doc_terms.count(term) / len(doc_terms)
    return tf * math.log(n / df)


def naive_tfidf_vector(doc_terms, all_docs):
    return {t: naive_tfidf_weight(t, doc_terms, all_docs) for t in set(doc_terms)}


def naive_cosine(w1, w2):
    dot = sum(w1[t] * w2[t] for t in w1 if t in w2)
    n1 = math.sqrt(sum(v * v for v in w1.values()))
    n2 = math.sqrt(sum(v * v for v in w2.values()))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return dot / (n1 * n2)


def naive_average_precision(rels):
    relevant = sum(rels)
    if relevant == 0:
        return 0.0
    total = 0.0
    for k in range(1, len(rels) + 1):
        if rels[k - 1]:
            total += sum(rels[:k]) / k
    return total / relevant


def naive_map(rel_lists):
    return sum(naive_average_precision(r) for r in rel_lists) / len(rel_lists) if rel_lists else 0.0


def naive_mrr(rel_lists, n):
    total = 0.0
    for rels in rel_lists:
        rr = 0.0
        for k in range(1, min(n, len(rels)) + 1):
            if rels[k - 1]:
                rr = 1.0 / k
                break
        total += rr
    return total / len(rel_lists) if rel_lists else 0.0


def naive_hits(rel_lists, n):
    return (
        sum(1 for rels in rel_lists if sum(rels[:n]) > 0) / len(rel_lists) if rel_lists else 0.0
    )


def naive_distinct(responses, n):
    grams = []
    for resp in responses:
        grams.extend(tuple(resp[i : i + n]) for i in range(len(resp) - n + 1))
    return len(set(grams)) / len(grams) if grams else 0.0


def naive_span_prf(pred_lists, gold_lists):
    tp = fp = fn = 0
    for pred, gold in zip(pred_lists, gold_lists):
        gold_pool = list(gold)
        for span in pred:
            if span in gold_pool:
                gold_pool.remove(span)
                tp += 1
            else:
                fp += 1
        fn += len(gold_pool)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def naive_multilabel(pred_sets, gold_sets):
    labels = sorted(set().union(*pred_sets, *gold_sets)) if pred_sets else []
    micro_tp = micro_fp = micro_fn = 0
    f1s = []
    for lab in labels:
        tp = fp = fn = 0
        for p, g in zip(pred_sets, gold_sets):
            if lab in p and lab in g:
                tp += 1
            elif lab in p:
                fp += 1
            elif lab in g:
                fn += 1
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        micro_tp += tp
        micro_fp += fp
        micro_fn += fn
    mp = micro_tp / (micro_tp + micro_fp) if micro_tp + micro_fp else 0.0
    mr = micro_tp / (micro_tp + micro_fn) if micro_tp + micro_fn else 0.0
    micro_f1 = 2 * mp * mr / (mp + mr) if mp + mr else 0.0
    macro_f1 = sum(f1s) / len(f1s) if f1s else 0.0
    acc = sum(1 for p, g in zip(pred_sets, gold_sets) if p == g) / len(gold_sets) if gold_sets else 0.0
    return acc, micro_f1, macro_f1


def naive_nll(logits_row, label):
    m = max(logits_row)
    denom = sum(math.exp(x - m) for x in logits_row)
    return -(logits_row[label] - m - math.log(denom))


def naive_mean_nll(logits, labels):
    if len(labels) == 0:
        return 0.0
    return sum(naive_nll(list(row), int(y)) for row, y in zip(logits, labels)) / len(labels)


def count_terms(texts_tokens):
    counts = Counter()
    for toks in texts_tokens:
        counts.update(toks)
    return counts


_NAIVE_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))


def naive_tokenize(text):
    """Character-by-character reference for the surface tokenizer: whitespace
    split, leading/trailing punctuation peeled one character at a time, each
    CJK character its own token, A-Z lowercased and nothing else."""

    def is_punct(ch):
        return unicodedata.category(ch).startswith("P")

    def is_cjk(ch):
        return any(lo <= ord(ch) <= hi for lo, hi in _NAIVE_CJK_RANGES)

    def lower_ascii(s):
        return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in s)

    tokens = []
    for chunk in text.split():
        lead, trail = [], []
        while chunk and is_punct(chunk[0]):
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and is_punct(chunk[-1]):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        parts, buf = [], []
        for ch in chunk:
            if is_cjk(ch):
                if buf:
                    parts.append("".join(buf))
                    buf = []
                parts.append(ch)
            else:
                buf.append(ch)
        if buf:
            parts.append("".join(buf))
        tokens.extend(lead)
        tokens.extend(lower_ascii(p) for p in parts)
        tokens.extend(reversed(trail))
    return tokens
