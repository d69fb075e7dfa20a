"""Independent brute-force reference implementations used as oracles.

Deliberately naive and written without reusing any package internals, so a
bug in the library cannot hide in its own test oracle. The exception is the
last section: verbatim copies of earlier, plainer implementations that the
faster ones must reproduce bit for bit.
"""

import math
import unicodedata
from collections import Counter

import numpy as np


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


# ---------------------------------------------------------------------------
# Plain implementations replaced by faster, bit-identical ones
# ---------------------------------------------------------------------------

# Training-step kernels as plain numpy expressions, one temporary per operator
# (formerly functions and inline expressions of hklm.encoder, and
# hklm.optim.adamw_step).

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_forward(x: np.ndarray):
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def layer_norm(x, g, b, eps):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = xc * inv
    return xn * g + b, (xn, inv)


def layer_norm_backward(dout, cache, g):
    xn, inv = cache
    d = dout.shape[-1]
    dg = (dout * xn).reshape(-1, d).sum(axis=0)
    db = dout.reshape(-1, d).sum(axis=0)
    dxn = dout * g
    m1 = dxn.mean(axis=-1, keepdims=True)
    m2 = (dxn * xn).mean(axis=-1, keepdims=True)
    dx = inv * (dxn - m1 - xn * m2)
    return dx, dg, db


def softmax(x: np.ndarray, axis=-1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(d_probs, probs):
    return probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))


def weighted_nll(logits, labels, weights):
    if logits.shape[0] == 0:
        return 0.0, np.zeros_like(logits, dtype=np.float64)
    logits = logits.astype(np.float64)
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    nll = -(logp[np.arange(len(labels)), labels] * weights).sum()
    probs = np.exp(logp)
    dlogits = probs * weights[:, None]
    dlogits[np.arange(len(labels)), labels] -= weights
    return float(nll), dlogits


def affine(x, w, b):
    return x @ w + b


def segment_grad(d_emb, seg, seg_emb):
    d_seg = np.zeros_like(seg_emb)
    np.add.at(d_seg, seg, d_emb)
    return d_seg


def adamw_step(params, grads, state, lr):
    """One in-place update at rate `lr`; aborts (state untouched) on any non-finite gradient."""
    from hklm.optim import DivergenceError

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in {name!r} at step {state.step}")
    state.step += 1
    t = state.step
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= lr * (m_hat / (np.sqrt(v_hat) + eps))
    return params


# Parameter initialization tensor by tensor (formerly hklm.encoder.init_params,
# before it derived every shape from encoder.param_shapes).


def init_params(config, seed: int):
    from hklm.encoder import param_names, sinusoidal_table
    from hklm.examples import N_SEGMENTS

    config.validate()
    rng = np.random.default_rng(seed)
    d, v = config.d_model, config.vocab_size
    dt = config.np_dtype

    def normal(*shape):
        return rng.normal(0.0, config.init_std, size=shape).astype(dt)

    def attn_normal(*shape):
        return rng.normal(0.0, config.attn_init_std, size=shape).astype(dt)

    def zeros(*shape):
        return np.zeros(shape, dtype=dt)

    def ones(*shape):
        return np.ones(shape, dtype=dt)

    params = {
        "tok_emb": normal(v, d),
        "pos_emb": (sinusoidal_table(config.max_seq_len, d) * config.pos_init_scale).astype(dt),
        "seg_emb": normal(N_SEGMENTS, d),
        "emb_ln_g": ones(d),
        "emb_ln_b": zeros(d),
    }
    for i in range(config.n_layers):
        p = f"layers.{i}."
        params[p + "q_w"] = attn_normal(d, d)
        params[p + "q_b"] = zeros(d)
        params[p + "k_w"] = attn_normal(d, d)
        params[p + "k_b"] = zeros(d)
        params[p + "v_w"] = normal(d, d)
        params[p + "v_b"] = zeros(d)
        params[p + "o_w"] = normal(d, d)
        params[p + "o_b"] = zeros(d)
        params[p + "ln1_g"] = ones(d)
        params[p + "ln1_b"] = zeros(d)
        params[p + "ffn_w1"] = normal(d, config.d_ffn)
        params[p + "ffn_b1"] = zeros(config.d_ffn)
        params[p + "ffn_w2"] = normal(config.d_ffn, d)
        params[p + "ffn_b2"] = zeros(d)
        params[p + "ln2_g"] = ones(d)
        params[p + "ln2_b"] = zeros(d)
    params["mlm_w"] = normal(d, d)
    params["mlm_b"] = zeros(d)
    params["mlm_ln_g"] = ones(d)
    params["mlm_ln_b"] = zeros(d)
    params["mlm_out_b"] = zeros(v)
    params["tc_w"] = normal(d, 2)
    params["tc_b"] = zeros(2)
    params["tmt_w"] = normal(d, 2)
    params["tmt_b"] = zeros(2)
    assert list(params.keys()) == param_names(config)
    return params


def entity_sentences(corpus, max_len=24):
    """Per-entity (heading, first max_len tokens of each paragraph), with
    each whole paragraph tokenized (formerly hklm.tasks._entity_sentences)."""
    from hklm.corpus import tokenize_text

    out = {}
    for doc in corpus:
        sents = []
        for sec in doc.sections:
            for para in sec.paragraphs:
                toks = tokenize_text(para)[:max_len]
                if toks:
                    sents.append((sec.heading, toks))
        out[doc.entity_id] = sents
    return out


def make_rank_data(corpus, truth, vocab, seed, n_train=80, n_eval=40, n_candidates=30, dialog=False):
    """Candidate ranking by scoring every query against the whole universe
    and fully sorting (formerly hklm.tasks.make_rank_data)."""
    from hklm.align import TfIdfIndex, cosine, tfidf_vector
    from hklm.corpus import SEP_ID, derive_seed
    from hklm.tasks import TaskExample, split_entities

    by_id = {rec["entity_id"]: rec for rec in truth}
    sentences = entity_sentences(corpus)
    train_recs, eval_recs = split_entities(truth, seed)

    # candidate universe across entities, encoded once
    universe: list[tuple[str, list[int]]] = []
    for eid, sents in sorted(sentences.items()):
        for heading, toks in sents:
            universe.append((eid, vocab.encode_tokens(toks)))
    index = TfIdfIndex.from_token_docs([ids for _, ids in universe])
    uni_vecs = [tfidf_vector(ids, index) for _, ids in universe]

    def build(recs, count, tag_prefix):
        rng = np.random.default_rng(derive_seed(seed, "rank", tag_prefix, dialog))
        out = []
        usable = [r for r in recs if sentences.get(r["entity_id"])]
        for i in range(count):
            rec = usable[int(rng.integers(0, len(usable)))]
            eid = rec["entity_id"]
            heading, gold_toks = sentences[eid][int(rng.integers(0, len(sentences[eid])))]
            query = vocab.encode_tokens([rec["name"], rec["kind"]]) + vocab.encode(heading)
            if dialog:
                turn1 = vocab.encode_tokens(["travellers", "near", rec["name"], rec["kind"]])
                query = turn1 + [SEP_ID] + query
            gold_ids = vocab.encode_tokens(gold_toks)
            qvec = tfidf_vector(query, index)
            scored = sorted(
                (
                    (cosine(qvec, uni_vecs[j]), j)
                    for j, (cand_eid, _) in enumerate(universe)
                    if cand_eid != eid
                ),
                key=lambda sj: (-sj[0], sj[1]),
            )
            distractors = [universe[j][1] for _, j in scored[: n_candidates - 1]]
            gold_pos = int(rng.integers(0, len(distractors) + 1))
            candidates = distractors[:gold_pos] + [gold_ids] + distractors[gold_pos:]
            out.append(
                TaskExample(
                    example_id=f"{tag_prefix}{i:05d}",
                    variant="rank",
                    tokens=query,
                    candidates=candidates,
                    gold=gold_pos,
                )
            )
        return out

    prefix = "dlg" if dialog else "qa"
    return build(train_recs, n_train, f"{prefix}-tr-"), build(eval_recs, n_eval, f"{prefix}-ev-")


# The encoder's forward and backward passes over every token (formerly
# hklm.encoder.encode, forward_batch, encoder_backward and backward_batch,
# before the last block ran only at the rows a head reads). The kernels they
# call are the package's own, which the tests above hold to plain numpy.
# encode and encoder_backward also take `rows`, as the package's did when its
# last block ran its output projection, layer norms and feed-forward at those
# rows but still built queries and attention at every token; without `rows`
# they are the full pass.


def encode(params, config, batch, want_cache: bool = False, rows=None):
    from hklm.encoder import LN_EPS, NEG_INF, ModelError, _affine, _check_rows, layer_norm, softmax

    dt = config.np_dtype
    ids, seg, mask = batch.ids, batch.seg, batch.mask
    b, l = ids.shape
    if l > config.max_seq_len:
        raise ModelError(f"sequence length {l} exceeds max_seq_len {config.max_seq_len}")
    if int(ids.max(initial=0)) >= config.vocab_size:
        raise ModelError("token id outside the model vocabulary")
    if rows is not None:
        rows = _check_rows(rows, b * l)
    d, h = config.d_model, config.n_heads
    dh = d // h
    scale = 1.0 / math.sqrt(dh)
    ids_flat = ids.reshape(-1)
    seg_flat = seg.reshape(-1)

    emb = params["tok_emb"][ids_flat] + params["seg_emb"][seg_flat]
    emb.reshape(b, l, d)[:] += params["pos_emb"][:l][None]
    x, emb_ln_cache = layer_norm(emb, params["emb_ln_g"], params["emb_ln_b"], LN_EPS)

    attn_bias = ((1.0 - mask) * NEG_INF)[:, None, None, :].astype(dt)

    def split_heads(m):  # (B*L, d) -> contiguous (B, H, L, dh)
        return np.ascontiguousarray(m.reshape(b, l, h, dh).transpose(0, 2, 1, 3))

    layer_caches = []
    for i in range(config.n_layers):
        p = f"layers.{i}."
        q = split_heads(_affine(x, params[p + "q_w"], params[p + "q_b"]))
        k = split_heads(_affine(x, params[p + "k_w"], params[p + "k_b"]))
        v = split_heads(_affine(x, params[p + "v_w"], params[p + "v_b"]))
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        scores += attn_bias
        probs = softmax(scores)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(b * l, d)
        res = x
        if rows is not None and i == config.n_layers - 1:
            ctx, res = ctx[rows], x[rows]
        attn_out = _affine(ctx, params[p + "o_w"], params[p + "o_b"])
        attn_out += res
        y, ln1_cache = layer_norm(attn_out, params[p + "ln1_g"], params[p + "ln1_b"], LN_EPS)
        ffn_pre = _affine(y, params[p + "ffn_w1"], params[p + "ffn_b1"])
        act, gelu_t = gelu_forward(ffn_pre)
        ffn_out = _affine(act, params[p + "ffn_w2"], params[p + "ffn_b2"])
        ffn_out += y
        z, ln2_cache = layer_norm(ffn_out, params[p + "ln2_g"], params[p + "ln2_b"], LN_EPS)
        if want_cache:
            layer_caches.append(
                {"x": x, "q": q, "k": k, "v": v, "probs": probs, "ctx": ctx,
                 "ln1": ln1_cache, "y": y, "ffn_pre": ffn_pre, "gelu_t": gelu_t, "act": act,
                 "ln2": ln2_cache}
            )
        x = z

    cache = None
    if want_cache:
        cache = {"emb_ln": emb_ln_cache, "layers": layer_caches,
                 "ids": ids_flat, "seg": seg_flat, "b": b, "l": l, "rows": rows}
    if rows is None:
        return x.reshape(b, l, d), cache
    return x, cache


def forward_batch(params, config, batch, want_cache: bool = False):
    from hklm.encoder import LN_EPS, ForwardResult, _affine, layer_norm

    hidden, cache = encode(params, config, batch, want_cache)

    # MLM head at masked positions: dense + GELU + layer norm + (tied) decoder.
    g = hidden[batch.mlm_b, batch.mlm_i]
    mlm_pre = _affine(g, params["mlm_w"], params["mlm_b"])
    mlm_act, mlm_gelu_t = gelu_forward(mlm_pre)
    mlm_h, mlm_ln_cache = layer_norm(mlm_act, params["mlm_ln_g"], params["mlm_ln_b"], LN_EPS)
    mlm_logits = _affine(mlm_h, params["tok_emb"].T, params["mlm_out_b"])

    tc_h = hidden[batch.tc_b, batch.tc_i]
    tc_logits = _affine(tc_h, params["tc_w"], params["tc_b"])
    tmt_h = hidden[batch.tmt_b, batch.tmt_i]
    tmt_logits = _affine(tmt_h, params["tmt_w"], params["tmt_b"])

    if want_cache:
        cache["mlm_g"] = g
        cache["mlm_pre"] = mlm_pre
        cache["mlm_gelu_t"] = mlm_gelu_t
        cache["mlm_act"] = mlm_act
        cache["mlm_ln"] = mlm_ln_cache
        cache["mlm_h"] = mlm_h
        cache["tc_h"] = tc_h
        cache["tmt_h"] = tmt_h
    return ForwardResult(hidden=hidden, mlm_logits=mlm_logits, tc_logits=tc_logits,
                         tmt_logits=tmt_logits, cache=cache)


def encoder_backward(params, config, cache, d_hidden):
    from hklm.encoder import (
        _scatter_rows, _segment_grad, _softmax_backward, layer_norm_backward,
    )

    grads: dict[str, np.ndarray] = {}
    b, l, rows = cache["b"], cache["l"], cache["rows"]
    d = config.d_model
    h = config.n_heads
    dh = d // h
    scale = 1.0 / math.sqrt(dh)
    dx = d_hidden.reshape(-1, d)

    for i in reversed(range(config.n_layers)):
        p = f"layers.{i}."
        c = cache["layers"][i]
        x, y = c["x"], c["y"]

        d_ffn_out, dg2, db2 = layer_norm_backward(dx, c["ln2"], params[p + "ln2_g"])
        grads[p + "ln2_g"], grads[p + "ln2_b"] = dg2, db2
        grads[p + "ffn_w2"] = c["act"].T @ d_ffn_out
        grads[p + "ffn_b2"] = d_ffn_out.sum(axis=0)
        d_act = d_ffn_out @ params[p + "ffn_w2"].T
        d_ffn_pre = d_act * gelu_grad(c["ffn_pre"], c["gelu_t"])
        grads[p + "ffn_w1"] = y.T @ d_ffn_pre
        grads[p + "ffn_b1"] = d_ffn_pre.sum(axis=0)
        dy = d_ffn_out  # no read of d_ffn_out follows: accumulate in place
        dy += d_ffn_pre @ params[p + "ffn_w1"].T

        d_attn_out, dg1, db1 = layer_norm_backward(dy, c["ln1"], params[p + "ln1_g"])
        grads[p + "ln1_g"], grads[p + "ln1_b"] = dg1, db1
        grads[p + "o_w"] = c["ctx"].T @ d_attn_out
        grads[p + "o_b"] = d_attn_out.sum(axis=0)
        d_ctx = d_attn_out @ params[p + "o_w"].T
        if rows is not None and i == config.n_layers - 1:
            d_ctx = _scatter_rows(d_ctx, rows, b * l)
            d_attn_out = _scatter_rows(d_attn_out, rows, b * l)
        d_ctx = np.ascontiguousarray(d_ctx.reshape(b, l, h, dh).transpose(0, 2, 1, 3))

        probs, q, k, v = c["probs"], c["q"], c["k"], c["v"]
        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = _softmax_backward(d_probs, probs)
        dq = d_scores @ k
        dq *= scale
        dk = d_scores.transpose(0, 1, 3, 2) @ q
        dk *= scale
        dx = d_attn_out  # no read of d_attn_out follows: accumulate in place
        for name, dmat in (("q", dq), ("k", dk), ("v", dv)):
            flat = np.ascontiguousarray(dmat.transpose(0, 2, 1, 3)).reshape(b * l, d)
            grads[p + name + "_w"] = x.T @ flat
            grads[p + name + "_b"] = flat.sum(axis=0)
            dx += flat @ params[p + name + "_w"].T

    d_emb, dg0, db0 = layer_norm_backward(dx, cache["emb_ln"], params["emb_ln_g"])
    grads["emb_ln_g"], grads["emb_ln_b"] = dg0, db0

    d_tok = np.zeros_like(params["tok_emb"])
    np.add.at(d_tok, cache["ids"], d_emb)
    grads["tok_emb"] = d_tok
    d_pos = np.zeros_like(params["pos_emb"])
    d_pos[:l] = d_emb.reshape(b, l, d).sum(axis=0)
    grads["pos_emb"] = d_pos
    grads["seg_emb"] = _segment_grad(d_emb, cache["seg"], params["seg_emb"])
    return grads


def backward_batch(params, config, batch, result, lam: float, mu: float):
    from hklm.encoder import ModelError, joint_loss, layer_norm_backward, param_names

    if result.cache is None:
        raise ModelError("forward_batch must be called with want_cache=True before backward")
    cache = result.cache
    loss, (d_mlm_logits, d_tc_logits, d_tmt_logits) = joint_loss(result, batch, lam, mu)
    dt = config.np_dtype
    d_mlm_logits = d_mlm_logits.astype(dt)
    d_tc_logits = d_tc_logits.astype(dt)
    d_tmt_logits = d_tmt_logits.astype(dt)

    grads: dict[str, np.ndarray] = {}
    d_hidden = np.zeros_like(result.hidden)

    # MLM head
    mlm_h = cache["mlm_h"]
    grads["mlm_out_b"] = d_mlm_logits.sum(axis=0)
    d_out_w = mlm_h.T @ d_mlm_logits
    d_mlm_h = d_mlm_logits @ params["tok_emb"]
    d_mlm_act, d_ln_g, d_ln_b = layer_norm_backward(d_mlm_h, cache["mlm_ln"], params["mlm_ln_g"])
    grads["mlm_ln_g"], grads["mlm_ln_b"] = d_ln_g, d_ln_b
    d_mlm_pre = d_mlm_act * gelu_grad(cache["mlm_pre"], cache["mlm_gelu_t"])
    grads["mlm_w"] = cache["mlm_g"].T @ d_mlm_pre
    grads["mlm_b"] = d_mlm_pre.sum(axis=0)
    d_g = d_mlm_pre @ params["mlm_w"].T
    np.add.at(d_hidden, (batch.mlm_b, batch.mlm_i), d_g)

    # TC head
    grads["tc_w"] = cache["tc_h"].T @ d_tc_logits
    grads["tc_b"] = d_tc_logits.sum(axis=0)
    np.add.at(d_hidden, (batch.tc_b, batch.tc_i), d_tc_logits @ params["tc_w"].T)

    # TMT head
    grads["tmt_w"] = cache["tmt_h"].T @ d_tmt_logits
    grads["tmt_b"] = d_tmt_logits.sum(axis=0)
    np.add.at(d_hidden, (batch.tmt_b, batch.tmt_i), d_tmt_logits @ params["tmt_w"].T)

    enc_grads = encoder_backward(params, config, cache, d_hidden)
    for k, v in enc_grads.items():
        grads[k] = v
    grads["tok_emb"] += d_out_w.T

    full = {name: grads.get(name) for name in param_names(config)}
    for name, g in full.items():
        if g is None:
            full[name] = np.zeros_like(params[name])
    return loss, full


# Pretraining example generation with per-position numpy masking, a separate
# headingless assembler, a per-call text -> ids dict and the KG ablation as a
# pass of its own over the aligned stream (formerly hklm.examples.apply_mlm_mask,
# assemble_input, _assemble_headingless, apply_ablation and
# generate_pretrain_examples). Texts are tokenized without the vocabulary's
# memo, so the memo is checked too.


def apply_mlm_mask(input_ids, vocab_size, rng, config):
    from hklm.corpus import MASK_ID, NUM_SPECIAL

    ids = np.asarray(input_ids, dtype=np.int64)
    n = len(ids)
    select_draw = rng.random(n)
    action_draw = rng.random(n)
    random_ids = (
        rng.integers(NUM_SPECIAL, vocab_size, size=n)
        if vocab_size > NUM_SPECIAL
        else np.full(n, MASK_ID, dtype=np.int64)
    )
    maskable = ids >= NUM_SPECIAL
    selected = maskable & (select_draw < config.mask_prob)

    masked = ids.copy()
    labels = []
    mask_cut = config.mask_token_frac
    rand_cut = config.mask_token_frac + config.random_token_frac
    for pos in np.nonzero(selected)[0]:
        labels.append((int(pos), int(ids[pos])))
        if action_draw[pos] < mask_cut:
            masked[pos] = MASK_ID
        elif action_draw[pos] < rand_cut:
            masked[pos] = random_ids[pos]
    return masked.tolist(), labels


def assemble_input(text_ids, heading_ids, triple_ids, max_seq_len):
    from hklm.corpus import CLS_ID, MAX_TRIPLES_PER_EXAMPLE, SEP0_ID, SEP_ID, SEPI_IDS
    from hklm.examples import SEG_HEADING, SEG_TEXT, SEG_TRIPLES, ExampleError, SegmentLayout

    if heading_ids is None:
        if triple_ids:
            raise ExampleError("plain-text form cannot carry triples")
        ids = [CLS_ID] + list(text_ids) + [SEP_ID]
        if len(ids) > max_seq_len:
            raise ExampleError(f"text length {len(ids)} exceeds max_seq_len {max_seq_len}")
        layout = SegmentLayout(
            text_span=(1, 1 + len(text_ids)),
            sep0_pos=None,
            heading_span=(0, 0),
            triples=[],
            seg_ids=[SEG_TEXT] * len(ids),
        )
        return ids, layout

    if len(triple_ids) > MAX_TRIPLES_PER_EXAMPLE:
        raise ExampleError(f"at most {MAX_TRIPLES_PER_EXAMPLE} triples per example, got {len(triple_ids)}")
    core = 1 + len(text_ids) + 1
    if core > max_seq_len:
        raise ExampleError(f"core length {core} exceeds max_seq_len {max_seq_len}")

    triple_ids = list(triple_ids)
    heading_ids = list(heading_ids)

    def total_len():
        return core + len(heading_ids) + sum(1 + len(t) for t in triple_ids)

    while triple_ids and total_len() > max_seq_len:
        triple_ids.pop()
    while heading_ids and total_len() > max_seq_len:
        heading_ids.pop()

    ids = [CLS_ID] + list(text_ids) + [SEP0_ID] + heading_ids
    seg = [SEG_TEXT] * (1 + len(text_ids)) + [SEG_HEADING] * (1 + len(heading_ids))
    sep0_pos = 1 + len(text_ids)
    heading_span = (sep0_pos + 1, sep0_pos + 1 + len(heading_ids))
    triples = []
    for i, t in enumerate(triple_ids):
        pos = len(ids)
        ids.append(SEPI_IDS[i])
        ids.extend(t)
        seg.extend([SEG_TRIPLES] * (1 + len(t)))
        triples.append((pos, (pos + 1, pos + 1 + len(t))))
    layout = SegmentLayout(
        text_span=(1, 1 + len(text_ids)),
        sep0_pos=sep0_pos,
        heading_span=heading_span,
        triples=triples,
        seg_ids=seg,
    )
    return ids, layout


def assemble_headingless(text_ids, triple_ids, max_seq_len):
    from hklm.corpus import CLS_ID, MAX_TRIPLES_PER_EXAMPLE, SEPI_IDS
    from hklm.examples import SEG_TEXT, SEG_TRIPLES, ExampleError, SegmentLayout

    if len(triple_ids) > MAX_TRIPLES_PER_EXAMPLE:
        raise ExampleError(f"at most {MAX_TRIPLES_PER_EXAMPLE} triples per example")
    core = 1 + len(text_ids)
    if core > max_seq_len:
        raise ExampleError(f"core length {core} exceeds max_seq_len {max_seq_len}")
    triple_ids = list(triple_ids)
    while triple_ids and core + sum(1 + len(t) for t in triple_ids) > max_seq_len:
        triple_ids.pop()
    ids = [CLS_ID] + list(text_ids)
    seg = [SEG_TEXT] * len(ids)
    triples = []
    for i, t in enumerate(triple_ids):
        pos = len(ids)
        ids.append(SEPI_IDS[i])
        ids.extend(t)
        seg.extend([SEG_TRIPLES] * (1 + len(t)))
        triples.append((pos, (pos + 1, pos + 1 + len(t))))
    layout = SegmentLayout(
        text_span=(1, 1 + len(text_ids)),
        sep0_pos=None,
        heading_span=(0, 0),
        triples=triples,
        seg_ids=seg,
    )
    return ids, layout


def corrupt_triple(triple, predicates, rng, p_neg):
    from dataclasses import replace

    if rng.random() < p_neg:
        alternatives = [p for p in predicates if p != triple.predicate]
        if not alternatives:
            return triple, 1, True
        new_pred = alternatives[int(rng.integers(0, len(alternatives)))]
        return replace(triple, predicate=new_pred), 0, False
    return triple, 1, False


def corrupt_heading(heading, doc_headings, rng, p_neg):
    if rng.random() < p_neg:
        alternatives = sorted(set(doc_headings) - {heading})
        if not alternatives:
            return heading, 1, True
        return alternatives[int(rng.integers(0, len(alternatives)))], 0, False
    return heading, 1, False


def apply_ablation(aligned, config):
    """(fragment, include_heading, [(triple, score, noise_object)]) per aligned fragment."""
    from hklm.corpus import derive_seed

    out = []
    for af in aligned:
        frag = af.fragment
        triples = []
        if not config.drop_triples:
            kept = list(af.triples)
            if config.triple_keep_fraction < 1.0:
                krng = np.random.default_rng(derive_seed(config.seed, "keep", frag.entity_id, frag.index))
                kept = [ts for ts in kept if krng.random() < config.triple_keep_fraction]
            noise_flags = [False] * len(kept)
            if config.value_noise:
                nrng = np.random.default_rng(derive_seed(config.seed, "noise", frag.entity_id, frag.index))
                noise_flags = [nrng.random() < 0.5 for _ in kept]
            triples = [(t, s, nf) for (t, s), nf in zip(kept, noise_flags)]
        out.append((frag, not config.drop_headings, triples))
    return out


def generate_pretrain_examples(corpus, aligned, vocab, config, keep_debug=False):
    from hklm.corpus import UNK_ID, derive_seed, tokenize_text
    from hklm.examples import GenStats, PretrainExample

    config.validate()
    stats = GenStats()

    predicates = corpus.predicates()
    headings_by_id = {doc.entity_id: doc.headings() for doc in corpus}
    encoded = {}

    def encode(text):
        ids = encoded.get(text)
        if ids is None:
            ids = encoded[text] = vocab.encode_tokens(tokenize_text(text))
        return ids

    examples = []
    for frag, include_heading, ablated_triples in apply_ablation(aligned, config):
        ex_seed = derive_seed(config.seed, frag.entity_id, frag.index)
        rng = np.random.default_rng(ex_seed)

        plain_form = not include_heading and not ablated_triples
        if plain_form:
            ids, layout = assemble_input(frag.token_ids, None, [], config.max_seq_len)
            masked, mlm_labels = apply_mlm_mask(ids, len(vocab), rng, config)
            examples.append(
                PretrainExample(
                    input_ids=masked,
                    layout=layout,
                    mlm_labels=mlm_labels,
                    tc_labels=[],
                    tmt_label=None,
                    seed=ex_seed,
                    debug={"heading": None, "predicates": []} if keep_debug else None,
                )
            )
            continue

        chosen = ablated_triples
        if config.triples_per_example is not None and len(chosen) > config.triples_per_example:
            idx = sorted(
                int(i)
                for i in rng.choice(len(chosen), size=config.triples_per_example, replace=False)
            )
            chosen = [chosen[i] for i in idx]

        tmt_label = None
        heading = frag.heading
        if include_heading:
            heading, tmt_label, skipped = corrupt_heading(
                frag.heading, headings_by_id[frag.entity_id], rng, config.p_neg_tmt
            )
            stats.tmt_skips += skipped

        tc_labels = []
        serialized_triples = []
        noise_flags = []
        for triple, _score, noise in chosen:
            out_triple, label, skipped = corrupt_triple(triple, predicates, rng, config.p_neg_tc)
            stats.tc_skips += skipped
            tc_labels.append(label)
            serialized_triples.append(out_triple)
            noise_flags.append(noise)

        triple_id_lists = []
        for out_triple, noise in zip(serialized_triples, noise_flags):
            subj = encode(out_triple.subject)
            pred = encode(out_triple.predicate)
            obj = encode(out_triple.object)
            if noise:
                obj = [UNK_ID] * len(obj)
            triple_id_lists.append(subj + pred + obj)

        heading_ids = encode(heading) if include_heading else None
        if include_heading:
            ids, layout = assemble_input(frag.token_ids, heading_ids, triple_id_lists, config.max_seq_len)
        else:
            ids, layout = assemble_headingless(frag.token_ids, triple_id_lists, config.max_seq_len)
        tc_labels = tc_labels[: len(layout.triples)]

        masked, mlm_labels = apply_mlm_mask(ids, len(vocab), rng, config)
        debug = None
        if keep_debug:
            debug = {
                "heading": frag.heading,
                "serialized_heading": heading if include_heading else None,
                "predicates": [t.predicate for t, _s, _n in chosen[: len(layout.triples)]],
                "serialized_predicates": [t.predicate for t in serialized_triples[: len(layout.triples)]],
            }
        examples.append(
            PretrainExample(
                input_ids=masked,
                layout=layout,
                mlm_labels=mlm_labels,
                tc_labels=tc_labels,
                tmt_label=tmt_label,
                seed=ex_seed,
                debug=debug,
            )
        )
    return examples, stats


# Open-IE extraction of one sentence, a batch-1 stage-1 call and one batch-1
# stage-2 call per predicate (formerly hklm.finetune.extract_open_triples,
# before it scored every sentence of a call in one stage-1 and one stage-2
# batch).


def extract_open_triples(stage1, stage2, tokens):
    from hklm.finetune import (
        SPAN_CAP, THETA_SPAN, _check_stage2_fits, _head_logits, _real_rows, _sigmoid, _stage1_spans,
        _stage2_map_position, _stage2_sequence, _token_rows, _wrap, pointer_decode,
    )

    cfg = stage1.model_config
    _check_stage2_fits(tokens, cfg)
    probs = _sigmoid(_head_logits(stage1.params, cfg, [_wrap(tokens)], _token_rows))
    spans = _stage1_spans(probs[:, 0], probs[:, 1], THETA_SPAN, SPAN_CAP)

    triples = []
    for s, e in spans:  # inclusive j -> exclusive end
        pred = (s, e + 1)
        seq = _stage2_sequence(tokens, pred)
        l2 = _head_logits(stage2.params, stage2.model_config, [seq], _real_rows)

        positions = [_stage2_map_position(p, pred) for p in range(len(tokens))]
        subj = pointer_decode(l2[positions, 0], l2[positions, 1])
        obj = pointer_decode(l2[positions, 2], l2[positions, 3])
        triples.append({"subj": list(subj), "pred": list(pred), "obj": list(obj)})
    return triples
