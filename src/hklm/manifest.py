"""Run manifests: resolved config, input hashes, and planned outputs, written
before any output artifact so every run is auditable and re-runnable."""

from __future__ import annotations

import hashlib
import json

from . import __version__


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, subcommand: str, config: dict, inputs, outputs, seed=None, extra=None) -> None:
    """Writes one run's manifest as sorted, indented JSON: the SHA-256 of each
    file in `inputs` (the files the run reads), the paths in `outputs`, and
    `extra` when it is not empty."""
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        **({"extra": extra} if extra else {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def manifest_path_for(output_path) -> str:
    return str(output_path) + ".manifest.json"
