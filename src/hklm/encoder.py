"""Transformer encoder with MLM / triple-classification / title-matching heads.

Forward and backward passes are written out in numpy so gradients are exact
and checkable against finite differences. The layout follows post-layer-norm
BERT: summed token/position/segment embeddings with an embedding layer norm,
then L blocks of multi-head self-attention and a GELU feed-forward, each with
a residual connection and layer norm.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import NUM_SPECIAL, check_json_fields
from .examples import N_SEGMENTS, PretrainExample

NEG_INF = -1e9
# Added to the variance under every layer norm's square root.
LN_EPS = 1e-5


class ModelError(ValueError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 4
    ffn_mult: int = 4
    max_seq_len: int = 512
    dtype: str = "float32"
    init_std: float = 0.02
    # Query/key projections start wider than the rest: near-zero attention
    # logits are a flat region the binary heads cannot escape at desk scale.
    attn_init_std: float = 0.1
    # Position table starts from a scaled sinusoidal pattern so offset-selective
    # attention (an anchor binding to its own following triple) is reachable.
    pos_init_scale: float = 0.05

    def __post_init__(self) -> None:
        sizes = (self.d_model, self.n_heads, self.n_layers, self.ffn_mult, self.max_seq_len)
        if min(sizes) < 1:
            raise ModelError("d_model, n_heads, n_layers, ffn_mult and max_seq_len must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ModelError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < NUM_SPECIAL:
            raise ModelError("vocab_size smaller than the special-token block")
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"unsupported dtype {self.dtype}")
        if not (self.init_std >= 0 and self.attn_init_std >= 0):
            raise ModelError("init_std and attn_init_std must be >= 0")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @property
    def d_ffn(self) -> int:
        return self.d_model * self.ffn_mult

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """Fields a header lacks (older ones omit the init fields) take their
        defaults. A retired key is dropped at the one value every model had;
        at any other it raises ModelError naming it. Every other value must
        have its field's JSON type."""
        obj = dict(obj)
        for key, value in _RETIRED.items():
            if key in obj and json.dumps(obj.pop(key)) != json.dumps(value):
                raise ModelError(f"{key} other than {json.dumps(value)} is no longer supported")
        return cls(**check_json_fields(cls, obj, ModelError))


# Keys the headers of older checkpoints hold, each at the one value every
# model is built with.
_RETIRED = {"n_segments": N_SEGMENTS, "tie_mlm": True, "pos_init": "sinusoidal", "ln_eps": LN_EPS}


def sinusoidal_table(n_pos: int, d: int) -> np.ndarray:
    pos = np.arange(n_pos, dtype=np.float64)[:, None]
    dim = np.arange(d // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * dim / d)
    table = np.zeros((n_pos, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def encoder_param_names(config: ModelConfig) -> list[str]:
    """The embedding and block tensors, without the pretraining heads."""
    names = ["tok_emb", "pos_emb", "seg_emb", "emb_ln_g", "emb_ln_b"]
    for i in range(config.n_layers):
        p = f"layers.{i}."
        names += [
            p + "q_w", p + "q_b", p + "k_w", p + "k_b", p + "v_w", p + "v_b",
            p + "o_w", p + "o_b", p + "ln1_g", p + "ln1_b",
            p + "ffn_w1", p + "ffn_b1", p + "ffn_w2", p + "ffn_b2",
            p + "ln2_g", p + "ln2_b",
        ]
    return names


def param_names(config: ModelConfig) -> list[str]:
    """Declaration order of all parameter tensors; fixes checkpoint layout."""
    return encoder_param_names(config) + ["mlm_w", "mlm_b", "mlm_ln_g", "mlm_ln_b", "mlm_out_b",
                                          "tc_w", "tc_b", "tmt_w", "tmt_b"]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor, in declaration order."""
    d, f, v = config.d_model, config.d_ffn, config.vocab_size
    by_leaf = {
        "tok_emb": (v, d), "pos_emb": (config.max_seq_len, d), "seg_emb": (N_SEGMENTS, d),
        "ffn_w1": (d, f), "ffn_b1": (f,), "ffn_w2": (f, d), "mlm_out_b": (v,),
        "tc_w": (d, 2), "tc_b": (2,), "tmt_w": (d, 2), "tmt_b": (2,),
    }

    def shape(name: str) -> tuple[int, ...]:
        leaf = name.rsplit(".", 1)[-1]
        # The rest are (d, d) projections and (d,) biases and layer-norm gains.
        return by_leaf.get(leaf, (d, d) if leaf.endswith("_w") else (d,))

    return {name: shape(name) for name in param_names(config)}


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Gains 1, biases 0, matrices normal (query/key projections at
    attn_init_std) drawn in declaration order. The position table is a
    sinusoid scaled by pos_init_scale."""
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "pos_emb":
            params[name] = (sinusoidal_table(*shape) * config.pos_init_scale).astype(dt)
        elif leaf.endswith("_g"):
            params[name] = np.ones(shape, dtype=dt)
        elif len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dt)
        else:
            std = config.attn_init_std if leaf in ("q_w", "k_w") else config.init_std
            params[name] = rng.normal(0.0, std, size=shape).astype(dt)
    return params



# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

# The pretraining heads, in the order their gradients reach the hidden states.
HEADS = ("mlm", "tc", "tmt")
# The arrays a Batch holds per head, each with one entry per target.
_TARGET_PARTS = ("b", "i", "label", "weight")


@dataclass
class Batch:
    """Padded example batch plus gathered head positions and loss weights.

    Per-example losses are means over that example's own masked positions /
    triples, so position weights are 1 / (B * n_b); the batch loss is then the
    mean over examples of the per-example joint loss.
    """

    ids: np.ndarray          # (B, L) int
    seg: np.ndarray          # (B, L) int
    mask: np.ndarray         # (B, L) 1.0 = real token
    mlm_b: np.ndarray
    mlm_i: np.ndarray
    mlm_label: np.ndarray
    mlm_weight: np.ndarray
    tc_b: np.ndarray
    tc_i: np.ndarray
    tc_label: np.ndarray
    tc_weight: np.ndarray
    tmt_b: np.ndarray
    tmt_i: np.ndarray
    tmt_label: np.ndarray
    tmt_weight: np.ndarray
    size: int

    def targets(self, head: str) -> tuple[np.ndarray, ...]:
        """A head's example, position, label and weight arrays."""
        return tuple(getattr(self, f"{head}_{part}") for part in _TARGET_PARTS)


def _head_targets(ex: PretrainExample) -> dict[str, list[tuple[int, int]]]:
    """Each head's (position, label) targets in one example: the masked
    tokens, the serialized triples' anchors and the title separator."""
    title = ex.tmt_label is not None and ex.layout.sep0_pos is not None
    return {
        "mlm": ex.mlm_labels,
        "tc": [(pos, label) for (pos, _span), label in zip(ex.layout.triples, ex.tc_labels)],
        "tmt": [(ex.layout.sep0_pos, ex.tmt_label)] if title else [],
    }


def pad_tokens(sequences: list[list[int]], dtype, segments=None) -> tuple[np.ndarray, ...]:
    """(ids, seg, mask) of token lists padded to the longest one: token ids,
    segment ids (`segments`, one list per sequence; 0 everywhere without
    them) and 1.0 at every real token, all 0 at padding."""
    b = len(sequences)
    max_len = max(len(s) for s in sequences)
    ids = np.zeros((b, max_len), dtype=np.int64)
    seg = np.zeros((b, max_len), dtype=np.int64)
    mask = np.zeros((b, max_len), dtype=dtype)
    for k, s in enumerate(sequences):
        ids[k, : len(s)] = s
        mask[k, : len(s)] = 1.0
        if segments is not None:
            seg[k, : len(s)] = segments[k]
    return ids, seg, mask


def make_batch(examples: list[PretrainExample], dtype=np.float32) -> Batch:
    b = len(examples)
    if b == 0:
        raise ModelError("empty batch")
    ids, seg, mask = pad_tokens([ex.input_ids for ex in examples], dtype,
                                [ex.layout.seg_ids for ex in examples])
    columns = {head: ([], [], [], []) for head in HEADS}  # in the order of _TARGET_PARTS
    for k, ex in enumerate(examples):
        for head, targets in _head_targets(ex).items():
            col_b, col_i, col_label, col_weight = columns[head]
            # The example's loss on the head is the mean over its own targets.
            w = 1.0 / (b * len(targets)) if targets else 0.0
            for pos, label in targets:
                col_b.append(k)
                col_i.append(pos)
                col_label.append(label)
                col_weight.append(w)
    return Batch(ids=ids, seg=seg, mask=mask, size=b, **_target_fields(columns))


def _target_fields(columns) -> dict[str, np.ndarray]:
    """Batch fields of the head targets `columns`: per head, its example,
    position, label and weight columns, in the order of _TARGET_PARTS."""
    return {f"{head}_{part}": np.asarray(col, dtype=np.float64 if part == "weight" else np.int64)
            for head, cols in columns.items() for part, col in zip(_TARGET_PARTS, cols)}


# Zero-length target arrays, built once and shared by every head-less batch.
_NO_TARGETS = _target_fields({head: ([], [], [], []) for head in HEADS})


def token_batch(sequences: list[list[int]], dtype) -> Batch:
    """Batch of token lists with segment 0 everywhere and no pretraining-head
    targets, as fine-tuning encodes them."""
    return Batch(*pad_tokens(sequences, dtype), size=len(sequences), **_NO_TARGETS)


# ---------------------------------------------------------------------------
# Primitive forward/backward pieces
# ---------------------------------------------------------------------------

# Tanh-form GELU (the standard transformer approximation); its derivative is
# exact in closed form, which is what the finite-difference check needs.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# The kernels below write into preallocated buffers (`out=`) instead of
# allocating one temporary per operator, and GELU walks its input _BLOCK
# elements at a time so that its temporaries stay in a core's L2 cache (an FFN
# activation does not fit). Each kernel performs the floating-point operations
# of the numpy expression in its docstring in the same order, so its results
# are bit-identical to that expression's.
_BLOCK = 32768


def _blocks(*arrays):
    """Matching _BLOCK-element slices of equally sized C-contiguous arrays."""
    flat = [a.reshape(-1) for a in arrays]
    for i in range(0, flat[0].size, _BLOCK):
        yield [f[i:i + _BLOCK] for f in flat]


def _gelu_tanh(x, out):
    """out = tanh(C * (x + A * x * x * x))."""
    np.multiply(x, _GELU_A, out=out)
    out *= x
    out *= x
    out += x
    out *= _GELU_C
    np.tanh(out, out=out)


def gelu_forward(x: np.ndarray) -> np.ndarray:
    """0.5 * x * (1.0 + t) with t = tanh(C * (x + A * x * x * x)). The tanh
    lives in one block-sized buffer: `gelu_grad` re-derives it from x."""
    x = np.ascontiguousarray(x)
    act = np.empty_like(x)
    buf = np.empty(min(x.size, _BLOCK), dtype=x.dtype)
    for xb, ab in _blocks(x, act):
        tb = buf[: xb.size]
        _gelu_tanh(xb, tb)
        np.multiply(xb, 0.5, out=ab)
        tb += 1.0
        ab *= tb
    return act


def gelu_grad(x: np.ndarray, dout: np.ndarray, act: np.ndarray | None = None) -> np.ndarray:
    """dout * GELU'(x), written into `dout` (C-contiguous, shaped like x), with
    GELU'(x) = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (C * (1.0 + 3 * A * x * x))
    and t = tanh(C * (x + A * x * x * x)), re-derived block by block with
    `gelu_forward`'s operations.

    Given `act` (C-contiguous, shaped like x; it may be x itself), the same
    pass also writes GELU(x) = 0.5 * x * (1.0 + t) into it, so a backward can
    re-derive the GELU output instead of keeping it from the forward.
    """
    x = np.ascontiguousarray(x)
    for out, name in ((dout, "dout"), (act, "act")):
        if out is not None and (out.shape != x.shape or not out.flags.c_contiguous):
            raise ModelError(f"gelu_grad: {name} must be a C-contiguous array shaped like x")
    n = min(x.size, _BLOCK)
    t_buf, half_buf, one_t_buf, du_buf = (np.empty(n, dtype=x.dtype) for _ in range(4))
    outs = (dout,) if act is None else (dout, act)
    for xb, ob, *act_b in _blocks(x, *outs):
        t, half_x, one_t, du = (buf[: xb.size] for buf in (t_buf, half_buf, one_t_buf, du_buf))
        _gelu_tanh(xb, t)
        np.multiply(xb, 0.5, out=half_x)
        np.add(t, 1.0, out=one_t)
        t *= t
        np.subtract(1.0, t, out=t)
        t *= half_x                 # 0.5 * x * (1 - t * t)
        np.multiply(xb, 3.0 * _GELU_A, out=du)
        du *= xb
        du += 1.0
        du *= _GELU_C
        t *= du                     # ... * du
        np.multiply(one_t, 0.5, out=du)
        du += t
        ob *= du
        for gb in act_b:            # GELU(x); x's last read is above, so act may be x
            np.multiply(half_x, one_t, out=gb)
    return dout


def _scale_shift(xn, g, b, out=None):
    """xn * g + b: a layer norm's output from its normalized input."""
    out = np.multiply(xn, g, out=out)
    out += b
    return out


def _ln_output(params, name: str, ln_cache):
    """The output of the layer norm with gain name_g and bias name_b, rebuilt
    from its cache (xn, inv) with the forward's own operations. A backward
    rebuilds each layer-norm output it reads this way instead of caching it."""
    return _scale_shift(ln_cache[0], params[name + "_g"], params[name + "_b"])


def layer_norm(x, g, b, eps):
    """xn * g + b with xn = (x - mean) * (1.0 / sqrt(var + eps)); returns it
    with the cache (xn, inv)."""
    xn = x - x.mean(axis=-1, keepdims=True)
    out = np.multiply(xn, xn)
    inv = out.mean(axis=-1, keepdims=True)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xn *= inv
    return _scale_shift(xn, g, b, out=out), (xn, inv)


def layer_norm_backward(dout, cache, g):
    """dx = inv * (dxn - mean(dxn) - xn * mean(dxn * xn)) with dxn = dout * g,
    plus the gain and bias gradients."""
    xn, inv = cache
    d = dout.shape[-1]
    tmp = np.multiply(dout, xn)
    dg = tmp.reshape(-1, d).sum(axis=0)
    db = dout.reshape(-1, d).sum(axis=0)
    dx = np.multiply(dout, g)
    m1 = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, xn, out=tmp)
    m2 = tmp.mean(axis=-1, keepdims=True)
    dx -= m1
    np.multiply(xn, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx, dg, db


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True). numpy reduces each row on its own, so
    with many short rows (attention scores: B*H*n rows of L keys) a loop of
    np.maximum over the L columns, each a pass over every row, is several
    times faster and takes the same, exact, maximum. With few rows per key
    (a [CLS] row per example) the loop's per-column overhead costs more than
    the reduction, which is kept there."""
    n = x.shape[-1]
    if n < 2 or x.size < 8 * n * n:  # fewer than 8 rows per key
        return x.max(axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, n):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


def softmax(x: np.ndarray) -> np.ndarray:
    """exp(x - max) / sum(exp(x - max)) along the last axis."""
    out = np.subtract(x, _row_max(x))
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_backward(dout, probs):
    """probs * (dout - sum(dout * probs)) along the last axis: the gradient
    wrt the softmax input, written into dout."""
    dout -= np.multiply(dout, probs).sum(axis=-1, keepdims=True)
    dout *= probs
    return dout


def _affine(x, w, b):
    """x @ w + b, the bias added in place."""
    out = x @ w
    out += b
    return out


def _affine_param_grads(x, d):
    """The weight and bias gradients of `_affine(x, w, b)` given d, the
    gradient wrt its output: x.T @ d and d summed over rows."""
    return x.T @ d, d.sum(axis=0)


def _affine_backward(x, w, d):
    """`_affine_param_grads`, then the gradient wrt x (d @ w.T)."""
    return *_affine_param_grads(x, d), d @ w.T


def _add_rows_at(out, rows, values) -> None:
    """np.add.at(out, rows, values) for a C-contiguous 2-D `out`: the same
    additions into each element in the same order, made as one scatter over
    the flat array, which numpy runs several times faster than a row
    scatter (most of all when rows repeat, as frequent token ids do)."""
    d = out.shape[1]
    flat = (np.asarray(rows, dtype=np.int64)[:, None] * d + np.arange(d)).reshape(-1)
    np.add.at(out.reshape(-1), flat, np.ascontiguousarray(values).reshape(-1))


def _take(cache: dict, key: str):
    """Remove and return cache[key]. A backward consumes the activation cache
    as it reads it, so a second backward over one cache finds it gone."""
    try:
        return cache.pop(key)
    except KeyError:
        raise ModelError("activation cache already consumed by a backward pass;"
                         " run the forward pass again") from None


def _check_rows(rows, n: int) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ModelError("rows must be a 1-D array of integer token indices")
    rows = rows.astype(np.int64, copy=False)
    ordered = np.sort(rows)
    if rows.size and (ordered[0] < 0 or ordered[-1] >= n):
        raise ModelError(f"row index outside the {n} tokens of the batch")
    if (ordered[1:] == ordered[:-1]).any():
        raise ModelError("rows must be distinct")
    return rows


def _query_slots(rows, b: int, l: int):
    """Where each of `rows` sits in a grid of per-example query slots
    (B, R_max): R_max, the most rows any one example has, and each row's flat
    slot index. An example's rows take its slots in the order of `rows`."""
    example = rows // l
    counts = np.bincount(example, minlength=b)
    r_max = int(counts.max(initial=0))
    order = np.argsort(example, kind="stable")
    rank = np.empty_like(rows)
    rank[order] = np.arange(rows.size) - (np.cumsum(counts) - counts)[example[order]]
    return r_max, example * r_max + rank


def _scatter_rows(values, rows, n: int):
    """A zero (n, d) array holding values' rows at the distinct indices rows."""
    out = np.zeros((n, values.shape[1]), dtype=values.dtype)
    out[rows] = values
    return out


def _split_heads(m, b: int, h: int):
    """(B*n, d) -> contiguous (B, H, n, d/H)."""
    return np.ascontiguousarray(m.reshape(b, -1, h, m.shape[1] // h).transpose(0, 2, 1, 3))


def _merge_heads(m):
    """(B, H, n, dh) -> (B*n, H*dh), the inverse of `_split_heads`."""
    b, h, n, dh = m.shape
    return np.ascontiguousarray(m.transpose(0, 2, 1, 3)).reshape(b * n, h * dh)


# ---------------------------------------------------------------------------
# Encoder sublayers
# ---------------------------------------------------------------------------
#
# Each sublayer is a forward function, which returns its output and the cache
# its backward needs, and beside it that backward, which takes the cache and
# the gradient wrt the output, writes its parameters' gradients into `grads`
# and returns the gradient wrt its input. A backward pops each cache entry as
# it reads it, so the activations of the layers above are freed while the
# backward runs on down. Tokens are rows of a flat (B*L, d) array, so each
# projection is a single GEMM.


def _embed(params, batch: Batch):
    """LN(token + position + segment embedding) at every token, (B*L, d)."""
    b, l = batch.ids.shape
    ids, seg = batch.ids.reshape(-1), batch.seg.reshape(-1)
    emb = params["tok_emb"][ids] + params["seg_emb"][seg]
    emb.reshape(b, l, -1)[:] += params["pos_emb"][:l][None]
    x, ln = layer_norm(emb, params["emb_ln_g"], params["emb_ln_b"], LN_EPS)
    return x, {"ids": ids, "seg": seg, "l": l, "ln": ln}


def _embed_backward(params, c, dx, grads) -> None:
    d_emb, grads["emb_ln_g"], grads["emb_ln_b"] = layer_norm_backward(dx, c.pop("ln"), params["emb_ln_g"])
    grads["tok_emb"] = np.zeros_like(params["tok_emb"])
    _add_rows_at(grads["tok_emb"], c.pop("ids"), d_emb)
    l = c.pop("l")
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:l] = d_emb.reshape(-1, l, d_emb.shape[1]).sum(axis=0)
    grads["seg_emb"] = _segment_grad(d_emb, c.pop("seg"), params["seg_emb"])


def _segment_grad(d_emb, seg, seg_emb):
    """The scatter-add of d_emb's rows into their segments' rows of a zero
    seg_emb-shaped array. Each segment's row sum adds the rows in order to
    zero, exactly as np.add.at does; with a handful of segments the masked
    sums are far cheaper than the unbuffered scatter."""
    d_seg = np.zeros_like(seg_emb)
    for s in range(len(d_seg)):
        d_seg[s] += d_emb[seg == s].sum(axis=0)
    return d_seg


def _attention_probs(q, k, bias):
    """softmax(q @ k^T / sqrt(dh) + bias) for (B, H, n, dh) queries, (B, H, L,
    dh) keys and an additive (B, 1, 1, L) key mask: (B, H, n, L)."""
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    scores += bias
    return softmax(scores)


def _attention_context(probs, v, slot):
    """probs @ v for (B, H, L, dh) values with the heads merged, (B*n, d),
    then taken at the query slots `slot` unless it is None. The backward
    rebuilds the context with it from the cached probabilities and values."""
    ctx = _merge_heads(probs @ v)
    return ctx if slot is None else ctx[slot]


def _attention_core_backward(d_ctx, q, k, v, probs):
    """The query, key and value gradients of `_attention_context` over
    `_attention_probs`, given the gradient wrt the unmerged context."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
    dv = probs.transpose(0, 1, 3, 2) @ d_ctx
    d_scores = _softmax_backward(d_probs, probs)
    dq = d_scores @ k
    dq *= scale
    dk = d_scores.transpose(0, 1, 3, 2) @ q
    dk *= scale
    return dq, dk, dv


def _self_attention(params, config: ModelConfig, p: str, x, bias, rows=None):
    """LN(res + attention @ o_w + o_b) for the block with parameter prefix p:
    multi-head attention over x (B*L, d) under the key mask bias.

    Without `rows` the queries, res = x and the output cover every token.
    The last block passes `rows`: its queries are built at those rows alone,
    x[rows] @ q_w + q_b, and placed into per-example slots (B, H, R_max, dh),
    R_max being the most rows any one example has (padding slots are zero
    queries whose outputs are dropped). The attention core then runs over
    (B, H, R_max, L), and the context is gathered back to (R, d) in the order
    of `rows` for the output projection, the residual res = x[rows] and the
    layer norm. Keys and values cover every token either way.
    """
    b, l = bias.shape[0], bias.shape[-1]
    h = config.n_heads
    if rows is None:
        res, slot = x, None
        q = _affine(x, params[p + "q_w"], params[p + "q_b"])
    else:
        res = x[rows]
        r_max, slot = _query_slots(rows, b, l)
        q = _scatter_rows(_affine(res, params[p + "q_w"], params[p + "q_b"]), slot, b * r_max)
    q = _split_heads(q, b, h)
    k = _split_heads(_affine(x, params[p + "k_w"], params[p + "k_b"]), b, h)
    v = _split_heads(_affine(x, params[p + "v_w"], params[p + "v_b"]), b, h)
    probs = _attention_probs(q, k, bias)
    out = _affine(_attention_context(probs, v, slot), params[p + "o_w"], params[p + "o_b"])
    out += res
    y, ln = layer_norm(out, params[p + "ln1_g"], params[p + "ln1_b"], LN_EPS)
    return y, {"rows": rows, "slot": slot, "q": q, "k": k, "v": v, "probs": probs, "ln1": ln}


def _self_attention_backward(params, p: str, c, dy, grads, x_ln):
    """Mirrors `_self_attention`; returns the gradient wrt x at every token.
    x is rebuilt from x_ln, the parameter name and cache of the layer norm
    that produced it, as the context is from the probabilities and values. At
    `rows` the output projection backpropagates over the R rows, the context
    gradient goes into the query slots, the attention core's backward runs
    over R_max query rows per example, and the query gradient is gathered
    back to the R rows for the query weights."""
    d_out, grads[p + "ln1_g"], grads[p + "ln1_b"] = layer_norm_backward(dy, c.pop("ln1"), params[p + "ln1_g"])
    rows, slot = c.pop("rows"), c.pop("slot")
    grads[p + "o_w"], grads[p + "o_b"], d_ctx = _affine_backward(
        _attention_context(c["probs"], c["v"], slot), params[p + "o_w"], d_out)
    b, h, n_queries = c["probs"].shape[:3]
    if rows is not None:
        d_ctx = _scatter_rows(d_ctx, slot, b * n_queries)
    dq, dk, dv = _attention_core_backward(
        _split_heads(d_ctx, b, h), c.pop("q"), c.pop("k"), c.pop("v"), c.pop("probs"))
    x = _ln_output(params, *x_ln)
    dq, xq = _merge_heads(dq), x
    if rows is not None:
        dq, xq = dq[slot], x[rows]
    grads[p + "q_w"], grads[p + "q_b"], dx_q = _affine_backward(xq, params[p + "q_w"], dq)
    dx = d_out  # no read of d_out follows: accumulate in place
    dx += dx_q
    if rows is not None:
        dx = _scatter_rows(dx, rows, len(x))
    for name, dmat in (("k", dk), ("v", dv)):
        w = p + name + "_w"
        grads[w], grads[p + name + "_b"], dx_kv = _affine_backward(x, params[w], _merge_heads(dmat))
        dx += dx_kv
    return dx


def _feed_forward(params, p: str, y):
    """LN(y + GELU(y @ ffn_w1 + ffn_b1) @ ffn_w2 + ffn_b2) for the block with
    parameter prefix p, at the rows of y. The cache keeps the GELU input
    alone: the backward re-derives the GELU's tanh and output from it, and y
    from the layer norm that produced it, instead of holding them."""
    pre = _affine(y, params[p + "ffn_w1"], params[p + "ffn_b1"])
    out = _affine(gelu_forward(pre), params[p + "ffn_w2"], params[p + "ffn_b2"])
    out += y
    z, ln = layer_norm(out, params[p + "ln2_g"], params[p + "ln2_b"], LN_EPS)
    return z, {"ffn_pre": pre, "ln2": ln}


def _feed_forward_backward(params, p: str, c, dz, grads, y_ln):
    """Mirrors `_feed_forward`, with y rebuilt from y_ln, the parameter name
    and cache of the layer norm that produced it. The GELU-derivative pass
    also writes the GELU output, bit for bit the forward's, over the cached
    GELU input (read for the last time there); the ffn_w2 gradient is taken
    from it after that."""
    d_out, grads[p + "ln2_g"], grads[p + "ln2_b"] = layer_norm_backward(dz, c.pop("ln2"), params[p + "ln2_g"])
    d_act = d_out @ params[p + "ffn_w2"].T
    act = c.pop("ffn_pre")
    d_pre = gelu_grad(act, dout=d_act, act=act)
    grads[p + "ffn_w2"], grads[p + "ffn_b2"] = _affine_param_grads(act, d_out)
    del act
    grads[p + "ffn_w1"], grads[p + "ffn_b1"], dy = _affine_backward(
        _ln_output(params, *y_ln), params[p + "ffn_w1"], d_pre)
    d_out += dy  # no read of d_out follows: accumulate in place
    return d_out


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


# glibc's mallopt parameters (malloc.h) and its largest mmap threshold on
# 64-bit platforms.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD_MAX = 32 << 20


@functools.cache
def _keep_freed_heap() -> None:
    """On glibc, keep freed heap memory in the process from now on.

    Each forward allocates an activation cache (tens to hundreds of MB) of
    about the size the last one freed. By default glibc hands a freed heap
    top back to the OS, and the next forward page-faults every page of it in
    again. With arrays up to 32 MiB served from the heap and no trimming,
    the next cache reuses those pages. The mmap threshold is fixed at 32 MiB,
    the ceiling glibc itself raises it to as large arrays are freed. Every
    thread allocates from the one main arena: a scoring thread with an arena
    of its own would keep that arena's freed pages too. glibc fixes its arena
    limit when a second thread first needs an arena, so the policy must be set
    before any thread that encodes starts (see `finetune._score_batches`).
    Set once per process, at its first `encode` or scoring call, and kept
    until exit; a no-op on other C libraries.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, or no such name
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    mallopt(_M_ARENA_MAX, 1)


def encode(params, config: ModelConfig, batch: Batch, rows, want_cache: bool = False):
    """Run the encoder stack; returns the last hidden states (R, d) at `rows`,
    distinct indices into the flat (B*L) token axis, in the order of `rows`,
    and (optionally) the activation cache needed for the backward pass.

    The stack is the embedding sublayer, then per block a self-attention and
    a feed-forward sublayer. Every block but the last runs at every token.
    The last block's self-attention builds its queries at the R rows alone
    and returns those rows (see `_self_attention`), so its feed-forward runs
    at them too. This is exact in real arithmetic; the row-subset GEMMs may
    round differently in the last bits from a pass over every token.
    """
    _keep_freed_heap()
    b, l = batch.ids.shape
    if l > config.max_seq_len:
        raise ModelError(f"sequence length {l} exceeds max_seq_len {config.max_seq_len}")
    if int(batch.ids.min(initial=0)) < 0 or int(batch.ids.max(initial=0)) >= config.vocab_size:
        raise ModelError("token id outside the model vocabulary")
    rows = _check_rows(rows, b * l)
    x, emb = _embed(params, batch)
    bias = ((1.0 - batch.mask) * NEG_INF)[:, None, None, :].astype(config.np_dtype)
    layers = []
    for i in range(config.n_layers):
        p = f"layers.{i}."
        y, attn = _self_attention(params, config, p, x, bias, rows if i == config.n_layers - 1 else None)
        x, ffn = _feed_forward(params, p, y)
        if want_cache:
            layers.append(attn | ffn)
    return x, ({"emb": emb, "layers": layers} if want_cache else None)


def encoder_backward(params, config: ModelConfig, cache, d_hidden):
    """Backpropagate d_hidden, shaped like `encode`'s (R, d) output at its
    `rows`, through the encoder stack into a gradient dict over the encoder
    parameters: each sublayer's backward, last to first. The last block's
    feed-forward backpropagates over the R rows, and its self-attention
    backward (see `_self_attention_backward`) returns the gradient at every
    token to the blocks below. Each sublayer's input is rebuilt from the
    normalized input its producing layer norm cached (the block's LN1 for the
    feed-forward; the previous block's LN2, or the embedding layer norm, for
    the self-attention), which is still held when the rebuild runs.

    The backward consumes `cache`, freeing each activation once read; a
    second backward over the same cache raises ModelError.
    """
    grads: dict[str, np.ndarray] = {}
    layers, emb = _take(cache, "layers"), _take(cache, "emb")
    dx = d_hidden
    for i in reversed(range(config.n_layers)):
        p = f"layers.{i}."
        c = layers.pop()  # emptied by the two backwards, then freed
        dx = _feed_forward_backward(params, p, c, dx, grads, (p + "ln1", c["ln1"]))
        dx = _self_attention_backward(  # its input is the output of the LN2 below or the embedding LN
            params, p, c, dx, grads, (f"layers.{i - 1}.ln2", layers[-1]["ln2"]) if i else ("emb_ln", emb["ln"]))
    _embed_backward(params, emb, dx, grads)
    return grads


# ---------------------------------------------------------------------------
# Pretraining heads and loss
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    hidden: np.ndarray            # (R, d): the last hidden states at the rows the heads read
    mlm_logits: np.ndarray        # (M, V)
    tc_logits: np.ndarray         # (K, 2)
    tmt_logits: np.ndarray        # (T, 2)
    cache: dict | None = field(default=None, repr=False)

    def logits(self, head: str) -> np.ndarray:
        return getattr(self, f"{head}_logits")


def head_rows(batch: Batch):
    """The distinct flat token rows the MLM, TC and TMT heads read, sorted, and
    each head's positions as indices into them."""
    l = batch.ids.shape[1]
    flat = [ex * l + pos for ex, pos, _label, _weight in map(batch.targets, HEADS)]
    rows, inverse = np.unique(np.concatenate(flat), return_inverse=True)
    return rows, np.split(inverse, np.cumsum([len(f) for f in flat[:-1]]))


def _mlm_head(params, g):
    """MLM logits at the masked rows g: dense + GELU + layer norm + decoder,
    the decoder being the token embeddings' transpose. The cache keeps the
    GELU input and the layer norm's, from which the backward rebuilds h."""
    pre = _affine(g, params["mlm_w"], params["mlm_b"])
    h, ln = layer_norm(gelu_forward(pre), params["mlm_ln_g"], params["mlm_ln_b"], LN_EPS)
    logits = _affine(h, params["tok_emb"].T, params["mlm_out_b"])
    return logits, {"g": g, "pre": pre, "ln": ln}


def _mlm_head_backward(params, c, d_logits, grads):
    """Mirrors `_mlm_head`; returns the gradients wrt g and wrt the decoder,
    which `backward_batch` adds to the token embeddings'."""
    d_decoder, grads["mlm_out_b"], d_h = _affine_backward(
        _ln_output(params, "mlm_ln", c["ln"]), params["tok_emb"].T, d_logits)
    d_act, grads["mlm_ln_g"], grads["mlm_ln_b"] = layer_norm_backward(d_h, c.pop("ln"), params["mlm_ln_g"])
    d_pre = gelu_grad(c.pop("pre"), dout=d_act)
    grads["mlm_w"], grads["mlm_b"], d_g = _affine_backward(c.pop("g"), params["mlm_w"], d_pre)
    return d_g, d_decoder


def forward_batch(params, config: ModelConfig, batch: Batch, want_cache: bool = False) -> ForwardResult:
    rows, head_r = head_rows(batch)
    hidden, cache = encode(params, config, batch, rows, want_cache)
    head_in = {head: hidden[r] for head, r in zip(HEADS, head_r)}
    logits = {}
    logits["mlm"], mlm_cache = _mlm_head(params, head_in["mlm"])
    for head in HEADS[1:]:  # TC and TMT: an affine map to two logits
        logits[head] = _affine(head_in[head], params[head + "_w"], params[head + "_b"])
    if want_cache:
        cache.update(head_rows=head_r, head_in=head_in, mlm=mlm_cache)
    return ForwardResult(hidden=hidden, cache=cache, **{f"{head}_logits": logits[head] for head in HEADS})


@dataclass
class LossBreakdown:
    total: float
    mlm: float
    tc: float
    tmt: float


def _weighted_nll(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    """Mean-weighted NLL plus its gradient wrt the logits (already weighted).

    Accumulated in float64 regardless of the model dtype so the loss
    decomposition identity holds tightly. One float64 copy of the logits
    becomes the log-probabilities, then the gradient, in place: at the MLM
    head's (M, V) this is the largest allocation of a backward.
    """
    if logits.shape[0] == 0:
        return 0.0, np.zeros_like(logits, dtype=np.float64)
    logp = logits.astype(np.float64)  # a copy, whatever the dtype
    logp -= logp.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    nll = -(logp[np.arange(len(labels)), labels] * weights).sum()
    dlogits = np.exp(logp, out=logp)
    dlogits *= weights[:, None]
    dlogits[np.arange(len(labels)), labels] -= weights
    return float(nll), dlogits


def joint_loss(result: ForwardResult, batch: Batch, lam: float, mu: float):
    """Joint objective: mean MLM NLL + lam * mean TC NLL + mu * TMT NLL.

    Heads with no support contribute zero. Returns the breakdown plus the
    (already task-weighted) logit gradients for the backward pass, in the
    order of HEADS.
    """
    (l_mlm, d_mlm), (l_tc, d_tc), (l_tmt, d_tmt) = (
        _weighted_nll(result.logits(head), *batch.targets(head)[2:]) for head in HEADS)
    total = l_mlm + lam * l_tc + mu * l_tmt
    grads = (d_mlm, lam * d_tc, mu * d_tmt)
    return LossBreakdown(total=total, mlm=l_mlm, tc=l_tc, tmt=l_tmt), grads


def backward_batch(params, config: ModelConfig, batch: Batch, result: ForwardResult,
                   lam: float, mu: float):
    """Exact gradients of the joint loss wrt every parameter tensor, in
    declaration order. Like `encoder_backward` it consumes the activation
    cache: a second backward over one ForwardResult raises ModelError."""
    if result.cache is None:
        raise ModelError("forward_batch must be called with want_cache=True before backward")
    cache = result.cache
    head_in, head_r, mlm_cache = _take(cache, "head_in"), _take(cache, "head_rows"), _take(cache, "mlm")
    loss, d_logits = joint_loss(result, batch, lam, mu)
    d_logits = {head: d.astype(config.np_dtype) for head, d in zip(HEADS, d_logits)}

    grads: dict[str, np.ndarray] = {}
    d_in = {}
    d_in["mlm"], d_decoder = _mlm_head_backward(params, mlm_cache, d_logits["mlm"], grads)
    for head in HEADS[1:]:
        grads[head + "_w"], grads[head + "_b"], d_in[head] = _affine_backward(
            head_in.pop(head), params[head + "_w"], d_logits[head])
    d_hidden = np.zeros_like(result.hidden)
    for head, r in zip(HEADS, head_r):
        _add_rows_at(d_hidden, r, d_in[head])

    grads.update(encoder_backward(params, config, cache, d_hidden))
    grads["tok_emb"] += d_decoder.T
    return loss, {name: grads[name] for name in param_names(config)}
