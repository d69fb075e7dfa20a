"""Transformer encoder with MLM / triple-classification / title-matching heads.

Forward and backward passes are written out in numpy so gradients are exact
and checkable against finite differences. The layout follows post-layer-norm
BERT: summed token/position/segment embeddings with an embedding layer norm,
then L blocks of multi-head self-attention and a GELU feed-forward, each with
a residual connection and layer norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import NUM_SPECIAL
from .examples import PretrainExample

NEG_INF = -1e9


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
    n_segments: int = 3
    tie_mlm: bool = True
    dtype: str = "float32"
    init_std: float = 0.02
    # Query/key projections start wider than the rest: near-zero attention
    # logits are a flat region the binary heads cannot escape at desk scale.
    attn_init_std: float = 0.1
    # Position table starts from a scaled sinusoidal pattern so offset-selective
    # attention (an anchor binding to its own following triple) is reachable.
    pos_init: str = "sinusoidal"  # or "normal"
    pos_init_scale: float = 0.05
    ln_eps: float = 1e-5

    def validate(self) -> None:
        sizes = (self.d_model, self.n_heads, self.ffn_mult, self.max_seq_len, self.n_segments)
        if min(sizes) < 1 or self.n_layers < 0:
            raise ModelError("model sizes must be >= 1, n_layers >= 0")
        if self.d_model % self.n_heads != 0:
            raise ModelError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < NUM_SPECIAL:
            raise ModelError("vocab_size smaller than the special-token block")
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"unsupported dtype {self.dtype}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @property
    def d_ffn(self) -> int:
        return self.d_model * self.ffn_mult

    def to_json(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "ffn_mult": self.ffn_mult,
            "max_seq_len": self.max_seq_len,
            "n_segments": self.n_segments,
            "tie_mlm": self.tie_mlm,
            "dtype": self.dtype,
            "init_std": self.init_std,
            "attn_init_std": self.attn_init_std,
            "pos_init": self.pos_init,
            "pos_init_scale": self.pos_init_scale,
            "ln_eps": self.ln_eps,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """Fields a header lacks (older ones omit the init fields) take their defaults."""
        return cls(**obj)


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
    names = encoder_param_names(config) + ["mlm_w", "mlm_b", "mlm_ln_g", "mlm_ln_b"]
    if not config.tie_mlm:
        names.append("mlm_out_w")
    names += ["mlm_out_b", "tc_w", "tc_b", "tmt_w", "tmt_b"]
    return names


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor, in declaration order."""
    d, f, v = config.d_model, config.d_ffn, config.vocab_size
    by_leaf = {
        "tok_emb": (v, d), "pos_emb": (config.max_seq_len, d), "seg_emb": (config.n_segments, d),
        "ffn_w1": (d, f), "ffn_b1": (f,), "ffn_w2": (f, d), "mlm_out_w": (d, v), "mlm_out_b": (v,),
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
    scaled sinusoid, or normal and drawn before every other tensor."""
    config.validate()
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    shapes = param_shapes(config)
    if config.pos_init == "sinusoidal":
        pos_emb = (sinusoidal_table(*shapes["pos_emb"]) * config.pos_init_scale).astype(dt)
    elif config.pos_init == "normal":
        pos_emb = rng.normal(0.0, config.init_std, size=shapes["pos_emb"]).astype(dt)
    else:
        raise ModelError(f"unknown pos_init {config.pos_init!r}")
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "pos_emb":
            params[name] = pos_emb
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


def make_batch(examples: list[PretrainExample], dtype=np.float32) -> Batch:
    b = len(examples)
    if b == 0:
        raise ModelError("empty batch")
    max_len = max(len(ex.input_ids) for ex in examples)
    ids = np.zeros((b, max_len), dtype=np.int64)
    seg = np.zeros((b, max_len), dtype=np.int64)
    mask = np.zeros((b, max_len), dtype=dtype)
    mlm_b, mlm_i, mlm_label, mlm_w = [], [], [], []
    tc_b, tc_i, tc_label, tc_w = [], [], [], []
    tmt_b, tmt_i, tmt_label, tmt_w = [], [], [], []
    for k, ex in enumerate(examples):
        n = len(ex.input_ids)
        ids[k, :n] = ex.input_ids
        seg[k, :n] = ex.layout.seg_ids
        mask[k, :n] = 1.0
        if ex.mlm_labels:
            w = 1.0 / (b * len(ex.mlm_labels))
            for pos, orig in ex.mlm_labels:
                mlm_b.append(k)
                mlm_i.append(pos)
                mlm_label.append(orig)
                mlm_w.append(w)
        if ex.tc_labels:
            w = 1.0 / (b * len(ex.tc_labels))
            for (pos, _span), label in zip(ex.layout.triples, ex.tc_labels):
                tc_b.append(k)
                tc_i.append(pos)
                tc_label.append(label)
                tc_w.append(w)
        if ex.tmt_label is not None and ex.layout.sep0_pos is not None:
            tmt_b.append(k)
            tmt_i.append(ex.layout.sep0_pos)
            tmt_label.append(ex.tmt_label)
            tmt_w.append(1.0 / b)
    return Batch(
        ids=ids,
        seg=seg,
        mask=mask,
        mlm_b=np.asarray(mlm_b, dtype=np.int64),
        mlm_i=np.asarray(mlm_i, dtype=np.int64),
        mlm_label=np.asarray(mlm_label, dtype=np.int64),
        mlm_weight=np.asarray(mlm_w, dtype=np.float64),
        tc_b=np.asarray(tc_b, dtype=np.int64),
        tc_i=np.asarray(tc_i, dtype=np.int64),
        tc_label=np.asarray(tc_label, dtype=np.int64),
        tc_weight=np.asarray(tc_w, dtype=np.float64),
        tmt_b=np.asarray(tmt_b, dtype=np.int64),
        tmt_i=np.asarray(tmt_i, dtype=np.int64),
        tmt_label=np.asarray(tmt_label, dtype=np.int64),
        tmt_weight=np.asarray(tmt_w, dtype=np.float64),
        size=b,
    )


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


def gelu_forward(x: np.ndarray):
    """(0.5 * x * (1.0 + t), t) with t = tanh(C * (x + A * x * x * x))."""
    x = np.ascontiguousarray(x)
    act = np.empty_like(x)
    t = np.empty_like(x)
    buf = np.empty(min(x.size, _BLOCK), dtype=x.dtype)
    for xb, ab, tb in _blocks(x, act, t):
        _gelu_tanh(xb, tb)
        np.multiply(xb, 0.5, out=ab)
        ab *= np.add(tb, 1.0, out=buf[: xb.size])
    return act, t


def gelu_grad(x: np.ndarray, t: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """dout * GELU'(x), written into `dout` (C-contiguous, shaped like x), with
    GELU'(x) = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (C * (1.0 + 3 * A * x * x))
    and t the second output of `gelu_forward(x)`.
    """
    x = np.ascontiguousarray(x)
    t = np.ascontiguousarray(t)
    if dout.shape != x.shape or not dout.flags.c_contiguous:
        raise ModelError("gelu_grad: dout must be a C-contiguous array shaped like x")
    a_buf = np.empty(min(x.size, _BLOCK), dtype=x.dtype)
    b_buf = np.empty_like(a_buf)
    for xb, tb, ob in _blocks(x, t, dout):
        a, b = a_buf[: xb.size], b_buf[: xb.size]
        np.multiply(xb, 0.5, out=a)
        np.multiply(tb, tb, out=b)
        np.subtract(1.0, b, out=b)
        a *= b                      # 0.5 * x * (1 - t * t)
        np.multiply(xb, 3.0 * _GELU_A, out=b)
        b *= xb
        b += 1.0
        b *= _GELU_C
        a *= b                      # ... * du
        np.add(tb, 1.0, out=b)
        b *= 0.5
        b += a
        ob *= b
    return dout


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
    np.multiply(xn, g, out=out)
    out += b
    return out, (xn, inv)


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


def softmax(x: np.ndarray, axis=-1) -> np.ndarray:
    """exp(x - max) / sum(exp(x - max)) along axis."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True))
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
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


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    hidden: np.ndarray            # (R, d): the last hidden states at the rows the heads read
    mlm_logits: np.ndarray        # (M, V)
    tc_logits: np.ndarray         # (K, 2)
    tmt_logits: np.ndarray        # (T, 2)
    cache: dict | None = field(default=None, repr=False)


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


def encode(params, config: ModelConfig, batch: Batch, rows, want_cache: bool = False):
    """Run the encoder stack; returns the last hidden states (R, d) at `rows`,
    distinct indices into the flat (B*L) token axis, in the order of `rows`,
    and (optionally) the activation cache needed for the backward pass.

    Internally the token axis is kept flat as (B*L, d) so each projection is a
    single GEMM; attention reshapes to (B, H, L, dh) views. Every block but the
    last runs at every token. The last block's keys and values still cover
    every token, but its queries are built at the R rows alone and placed into
    per-example slots (B, H, R_max, dh), R_max being the most rows any one
    example has (padding slots are zero queries whose outputs are dropped).
    Scores, softmax and the attention context then run over (B, H, R_max, L),
    and the output projection, residual, layer norms and feed-forward over the
    R rows. This is exact in real arithmetic; the row-subset GEMMs may round
    differently in the last bits from a pass over every token.
    """
    dt = config.np_dtype
    ids, seg, mask = batch.ids, batch.seg, batch.mask
    b, l = ids.shape
    if l > config.max_seq_len:
        raise ModelError(f"sequence length {l} exceeds max_seq_len {config.max_seq_len}")
    if int(ids.max(initial=0)) >= config.vocab_size:
        raise ModelError("token id outside the model vocabulary")
    rows = _check_rows(rows, b * l)
    d, h = config.d_model, config.n_heads
    dh = d // h
    scale = 1.0 / math.sqrt(dh)
    ids_flat = ids.reshape(-1)
    seg_flat = seg.reshape(-1)

    emb = params["tok_emb"][ids_flat] + params["seg_emb"][seg_flat]
    emb.reshape(b, l, d)[:] += params["pos_emb"][:l][None]
    x, emb_ln_cache = layer_norm(emb, params["emb_ln_g"], params["emb_ln_b"], config.ln_eps)

    attn_bias = ((1.0 - mask) * NEG_INF)[:, None, None, :].astype(dt)
    r_max, slot = _query_slots(rows, b, l)

    layer_caches = []
    for i in range(config.n_layers):
        p = f"layers.{i}."
        last = i == config.n_layers - 1
        res = x[rows] if last else x
        q = _affine(res, params[p + "q_w"], params[p + "q_b"])
        if last:
            q = _scatter_rows(q, slot, b * r_max)
        q = _split_heads(q, b, h)
        k = _split_heads(_affine(x, params[p + "k_w"], params[p + "k_b"]), b, h)
        v = _split_heads(_affine(x, params[p + "v_w"], params[p + "v_b"]), b, h)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        scores += attn_bias
        probs = softmax(scores)
        ctx = _merge_heads(probs @ v)
        if last:
            ctx = ctx[slot]
        attn_out = _affine(ctx, params[p + "o_w"], params[p + "o_b"])
        attn_out += res
        y, ln1_cache = layer_norm(attn_out, params[p + "ln1_g"], params[p + "ln1_b"], config.ln_eps)
        ffn_pre = _affine(y, params[p + "ffn_w1"], params[p + "ffn_b1"])
        act, gelu_t = gelu_forward(ffn_pre)
        ffn_out = _affine(act, params[p + "ffn_w2"], params[p + "ffn_b2"])
        ffn_out += y
        z, ln2_cache = layer_norm(ffn_out, params[p + "ln2_g"], params[p + "ln2_b"], config.ln_eps)
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
                 "ids": ids_flat, "seg": seg_flat, "b": b, "l": l, "rows": rows,
                 "slot": slot}
    if config.n_layers == 0:  # no block gathered the rows
        x = x[rows]
    return x, cache


def head_rows(batch: Batch):
    """The distinct flat token rows the MLM, TC and TMT heads read, sorted, and
    each head's positions as indices into them."""
    l = batch.ids.shape[1]
    flat = [batch.mlm_b * l + batch.mlm_i, batch.tc_b * l + batch.tc_i,
            batch.tmt_b * l + batch.tmt_i]
    rows, inverse = np.unique(np.concatenate(flat), return_inverse=True)
    return rows, np.split(inverse, np.cumsum([len(f) for f in flat[:2]]))


def forward_batch(params, config: ModelConfig, batch: Batch, want_cache: bool = False) -> ForwardResult:
    rows, (mlm_r, tc_r, tmt_r) = head_rows(batch)
    hidden, cache = encode(params, config, batch, rows, want_cache)

    # MLM head at masked positions: dense + GELU + layer norm + (tied) decoder.
    g = hidden[mlm_r]
    mlm_pre = _affine(g, params["mlm_w"], params["mlm_b"])
    mlm_act, mlm_gelu_t = gelu_forward(mlm_pre)
    mlm_h, mlm_ln_cache = layer_norm(mlm_act, params["mlm_ln_g"], params["mlm_ln_b"], config.ln_eps)
    out_w = params["tok_emb"].T if config.tie_mlm else params["mlm_out_w"]
    mlm_logits = _affine(mlm_h, out_w, params["mlm_out_b"])

    tc_h = hidden[tc_r]
    tc_logits = _affine(tc_h, params["tc_w"], params["tc_b"])
    tmt_h = hidden[tmt_r]
    tmt_logits = _affine(tmt_h, params["tmt_w"], params["tmt_b"])

    if want_cache:
        cache["head_rows"] = (mlm_r, tc_r, tmt_r)
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


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


@dataclass
class LossBreakdown:
    total: float
    mlm: float
    tc: float
    tmt: float


def _weighted_nll(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    """Mean-weighted NLL plus its gradient wrt the logits (already weighted).

    Accumulated in float64 regardless of the model dtype so the loss
    decomposition identity holds tightly.
    """
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


def joint_loss(result: ForwardResult, batch: Batch, lam: float, mu: float):
    """Joint objective: mean MLM NLL + lam * mean TC NLL + mu * TMT NLL.

    Heads with no support contribute zero. Returns the breakdown plus the
    (already task-weighted) logit gradients for the backward pass.
    """
    l_mlm, d_mlm = _weighted_nll(result.mlm_logits, batch.mlm_label, batch.mlm_weight)
    l_tc, d_tc = _weighted_nll(result.tc_logits, batch.tc_label, batch.tc_weight)
    l_tmt, d_tmt = _weighted_nll(result.tmt_logits, batch.tmt_label, batch.tmt_weight)
    total = l_mlm + lam * l_tc + mu * l_tmt
    grads = (d_mlm, lam * d_tc, mu * d_tmt)
    return LossBreakdown(total=total, mlm=l_mlm, tc=l_tc, tmt=l_tmt), grads


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def encoder_backward(params, config: ModelConfig, cache, d_hidden):
    """Backpropagate d_hidden, shaped like `encode`'s (R, d) output at its
    `rows`, through the encoder stack into a gradient dict over the encoder
    parameters.

    The last block mirrors its forward pass: its layer norms, feed-forward and
    output projection backpropagate over the R rows; the context gradient goes
    into the per-example query slots, so the attention backward (probabilities,
    softmax, queries and keys) runs over R_max query rows per example; the
    query gradient is gathered back to the R rows for the query weights. Only
    the key and value gradients, and the gradient passed to the blocks below,
    cover every token.
    """
    grads: dict[str, np.ndarray] = {}
    b, l, rows, slot = cache["b"], cache["l"], cache["rows"], cache["slot"]
    d = config.d_model
    h = config.n_heads
    dh = d // h
    scale = 1.0 / math.sqrt(dh)
    dx = d_hidden
    if config.n_layers == 0:
        dx = _scatter_rows(dx, rows, b * l)

    for i in reversed(range(config.n_layers)):
        p = f"layers.{i}."
        c = cache["layers"][i]
        x, y = c["x"], c["y"]

        d_ffn_out, dg2, db2 = layer_norm_backward(dx, c["ln2"], params[p + "ln2_g"])
        grads[p + "ln2_g"], grads[p + "ln2_b"] = dg2, db2
        grads[p + "ffn_w2"] = c["act"].T @ d_ffn_out
        grads[p + "ffn_b2"] = d_ffn_out.sum(axis=0)
        d_act = d_ffn_out @ params[p + "ffn_w2"].T
        d_ffn_pre = gelu_grad(c["ffn_pre"], c["gelu_t"], dout=d_act)
        grads[p + "ffn_w1"] = y.T @ d_ffn_pre
        grads[p + "ffn_b1"] = d_ffn_pre.sum(axis=0)
        dy = d_ffn_out  # no read of d_ffn_out follows: accumulate in place
        dy += d_ffn_pre @ params[p + "ffn_w1"].T

        d_attn_out, dg1, db1 = layer_norm_backward(dy, c["ln1"], params[p + "ln1_g"])
        grads[p + "ln1_g"], grads[p + "ln1_b"] = dg1, db1
        grads[p + "o_w"] = c["ctx"].T @ d_attn_out
        grads[p + "o_b"] = d_attn_out.sum(axis=0)
        d_ctx = d_attn_out @ params[p + "o_w"].T
        probs, q, k, v = c["probs"], c["q"], c["k"], c["v"]
        last = i == config.n_layers - 1
        if last:  # into the (B, R_max) query slots
            d_ctx = _scatter_rows(d_ctx, slot, b * probs.shape[2])
        d_ctx = _split_heads(d_ctx, b, h)

        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = _softmax_backward(d_probs, probs)
        dq = d_scores @ k
        dq *= scale
        dk = d_scores.transpose(0, 1, 3, 2) @ q
        dk *= scale

        dq, xq = _merge_heads(dq), x
        if last:
            dq, xq = dq[slot], x[rows]
        grads[p + "q_w"] = xq.T @ dq
        grads[p + "q_b"] = dq.sum(axis=0)
        dx = d_attn_out  # no read of d_attn_out follows: accumulate in place
        dx += dq @ params[p + "q_w"].T
        if last:
            dx = _scatter_rows(dx, rows, b * l)
        for name, dmat in (("k", dk), ("v", dv)):
            flat = _merge_heads(dmat)
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


def _segment_grad(d_emb, seg, seg_emb):
    """The scatter-add of d_emb's rows into their segments' rows of a zero
    seg_emb-shaped array. Each segment's row sum adds the rows in order to
    zero, exactly as np.add.at does; with a handful of segments the masked
    sums are far cheaper than the unbuffered scatter."""
    d_seg = np.zeros_like(seg_emb)
    for s in range(len(d_seg)):
        d_seg[s] += d_emb[seg == s].sum(axis=0)
    return d_seg


def backward_batch(params, config: ModelConfig, batch: Batch, result: ForwardResult,
                   lam: float, mu: float):
    """Exact gradients of the joint loss wrt every parameter tensor."""
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
    mlm_r, tc_r, tmt_r = cache["head_rows"]

    # MLM head
    mlm_h = cache["mlm_h"]
    out_w = params["tok_emb"].T if config.tie_mlm else params["mlm_out_w"]
    grads["mlm_out_b"] = d_mlm_logits.sum(axis=0)
    d_out_w = mlm_h.T @ d_mlm_logits
    d_mlm_h = d_mlm_logits @ out_w.T
    d_mlm_act, d_ln_g, d_ln_b = layer_norm_backward(d_mlm_h, cache["mlm_ln"], params["mlm_ln_g"])
    grads["mlm_ln_g"], grads["mlm_ln_b"] = d_ln_g, d_ln_b
    d_mlm_pre = gelu_grad(cache["mlm_pre"], cache["mlm_gelu_t"], dout=d_mlm_act)
    grads["mlm_w"] = cache["mlm_g"].T @ d_mlm_pre
    grads["mlm_b"] = d_mlm_pre.sum(axis=0)
    d_g = d_mlm_pre @ params["mlm_w"].T
    np.add.at(d_hidden, mlm_r, d_g)

    # TC head
    grads["tc_w"] = cache["tc_h"].T @ d_tc_logits
    grads["tc_b"] = d_tc_logits.sum(axis=0)
    np.add.at(d_hidden, tc_r, d_tc_logits @ params["tc_w"].T)

    # TMT head
    grads["tmt_w"] = cache["tmt_h"].T @ d_tmt_logits
    grads["tmt_b"] = d_tmt_logits.sum(axis=0)
    np.add.at(d_hidden, tmt_r, d_tmt_logits @ params["tmt_w"].T)

    enc_grads = encoder_backward(params, config, cache, d_hidden)
    for k, v in enc_grads.items():
        grads[k] = v
    if config.tie_mlm:
        grads["tok_emb"] += d_out_w.T
    else:
        grads["mlm_out_w"] = d_out_w

    full = {name: grads.get(name) for name in param_names(config)}
    for name, g in full.items():
        if g is None:
            full[name] = np.zeros_like(params[name])
    return loss, full

