"""Checkpoint serialization: JSON header plus raw little-endian tensors."""

from __future__ import annotations

import json
import math

import numpy as np

from .encoder import ModelConfig, param_names, param_shapes
from .optim import AdamWState

FORMAT_TAG = "hklm-ckpt"
FORMAT_VERSION = 1

_DTYPE_CODES = {"float32": "<f4", "float64": "<f8"}


class CheckpointError(ValueError):
    pass


def save_checkpoint(
    path,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    vocab_hash: str,
    opt_state: AdamWState | None = None,
) -> None:
    """Tensors are written in declaration order, optimizer moments after."""
    names = param_names(config)
    tensors: list[tuple[str, np.ndarray]] = [(n, params[n]) for n in names]
    opt_meta = None
    if opt_state is not None:
        opt_meta = {"step": opt_state.step}
        tensors += [(f"m.{n}", opt_state.m[n]) for n in names]
        tensors += [(f"v.{n}", opt_state.v[n]) for n in names]
    code = _DTYPE_CODES[config.dtype]
    header = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "config": config.to_json(),
        "vocab_hash": vocab_hash,
        "opt": opt_meta,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype=code).tobytes())


def _header_config(header) -> ModelConfig:
    obj = header.get("config")
    if not isinstance(obj, dict):
        raise CheckpointError("checkpoint header has no config object")
    try:
        return ModelConfig.from_json(obj)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint config: {exc}") from exc


def load_checkpoint(path):
    """Returns (params, config, vocab_hash, opt_state or None), bit-exact.

    A header this version cannot read, a config that ModelConfig rejects, or
    a tensor list other than the one the config implies raises CheckpointError.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError("corrupt checkpoint header") from exc
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object")
        if header.get("format") != FORMAT_TAG:
            raise CheckpointError(f"unrecognized checkpoint format {header.get('format')!r}")
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint version {header.get('version')} != supported {FORMAT_VERSION}"
            )
        if not isinstance(header.get("vocab_hash"), str):
            raise CheckpointError("checkpoint header has no vocab_hash string")
        opt_meta = header.get("opt")
        step = opt_meta.get("step") if isinstance(opt_meta, dict) else None
        if opt_meta is not None and not (type(step) is int and step >= 0):
            raise CheckpointError('checkpoint header\'s "opt" must be null or {"step": <int >= 0>}')
        config = _header_config(header)
        # The layout save_checkpoint writes: parameters, then the moments.
        layout = list(param_shapes(config).items())
        if opt_meta is not None:
            layout += [(f"{k}.{n}", shape) for k in "mv" for n, shape in layout]
        listed = header.get("tensors") if isinstance(header.get("tensors"), list) else []
        for (name, shape), spec in zip(layout, listed):
            if spec != {"name": name, "shape": list(shape)}:
                raise CheckpointError(f"checkpoint lists tensor {spec}; its config implies {name} {list(shape)}")
        if len(listed) != len(layout):
            raise CheckpointError(f"checkpoint lists {len(listed)} tensors; its config implies {len(layout)}")
        code = _DTYPE_CODES[config.dtype]
        itemsize = np.dtype(code).itemsize
        arrays: dict[str, np.ndarray] = {}
        for name, shape in layout:
            n_items = math.prod(shape)
            raw = fh.read(n_items * itemsize)
            if len(raw) != n_items * itemsize:
                raise CheckpointError(f"truncated checkpoint at tensor {name!r}")
            arrays[name] = np.frombuffer(raw, dtype=code).reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint tensors")

    names = param_names(config)
    params = {n: arrays[n] for n in names}
    opt_state = None
    if opt_meta is not None:
        opt_state = AdamWState(
            step=opt_meta["step"],
            m={n: arrays[f"m.{n}"] for n in names},
            v={n: arrays[f"v.{n}"] for n in names},
        )
    return params, config, header["vocab_hash"], opt_state
