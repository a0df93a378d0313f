"""Binary checkpoint persistence and the run manifest.

Layout (little-endian):

    magic "PCN1" | version u32 | layer count u32 | dims u32 x 3
    theta1 float64 row-major | theta2 float64 row-major
    adam flag u8 [ | m, v float64 arrays + t u64, per matrix ]
    manifest length u32 | manifest UTF-8 JSON

The embedded manifest is deterministic (no timestamps) so identical runs
produce bit-identical checkpoint files; the human-facing manifest.json
written next to the checkpoint carries timestamps as well.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Activation, ModelParams
from .optim import AdamState

MAGIC = b"PCN1"
VERSION = 1
ARTIFACT_VERSION = "0.1.0"


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly in single-threaded
    mode: the resolved config plus digests of the data files consumed."""

    config: dict
    data_digests: dict = field(default_factory=dict)
    artifact_version: str = ARTIFACT_VERSION
    created: Optional[str] = None

    def to_json(self, include_timestamp: bool = False) -> str:
        d = {
            "artifact_version": self.artifact_version,
            "config": self.config,
            "data_digests": self.data_digests,
        }
        if include_timestamp:
            d["created"] = self.created or time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        d = json.loads(text)
        if not isinstance(d, dict) or not isinstance(d.get("config", {}), dict):
            raise ValueError("manifest is not a JSON object with a config object")
        return cls(
            config=d.get("config", {}),
            data_digests=d.get("data_digests", {}),
            artifact_version=d.get("artifact_version", "unknown"),
            created=d.get("created"),
        )


def file_digests(paths: list[Path]) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    tmp.replace(path)


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    adam: Optional[tuple[AdamState, AdamState]] = None,
    manifest: Optional[RunManifest] = None,
) -> None:
    path = Path(path)
    d1, d2, d3 = params.dims
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", VERSION, 3)
    out += struct.pack("<III", d1, d2, d3)
    out += np.ascontiguousarray(params.theta1, dtype="<f8").tobytes()
    out += np.ascontiguousarray(params.theta2, dtype="<f8").tobytes()
    if adam is None:
        out += struct.pack("<B", 0)
    else:
        out += struct.pack("<B", 1)
        for state in adam:
            out += np.ascontiguousarray(state.m, dtype="<f8").tobytes()
            out += np.ascontiguousarray(state.v, dtype="<f8").tobytes()
            out += struct.pack("<Q", state.t)
    manifest_text = (manifest or RunManifest(config={})).to_json()
    blob = manifest_text.encode("utf-8")
    out += struct.pack("<I", len(blob))
    out += blob
    _atomic_write(path, bytes(out))


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelParams, Optional[tuple[AdamState, AdamState]], RunManifest]:
    """Read a checkpoint written by save_checkpoint.

    Raises CheckpointError, naming the offset, on any file that does not
    hold exactly one well-formed checkpoint.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {raw[:4]!r}")
    offset = 4

    def take(n, what):
        nonlocal offset
        if n > len(raw) - offset:
            raise CheckpointError(
                f"truncated checkpoint: {what} needs {n} bytes at offset {offset}, "
                f"{len(raw) - offset} left"
            )
        offset += n
        return raw[offset - n : offset]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    def read_matrix(rows, cols, what):
        return np.frombuffer(take(rows * cols * 8, what), dtype="<f8").reshape(rows, cols).copy()

    version, n_layers = unpack("<II", "header")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if n_layers != 3:
        raise CheckpointError(f"unsupported layer count {n_layers}")
    d1, d2, d3 = unpack("<III", "dims")
    theta1 = read_matrix(d1, d2, "theta1")
    theta2 = read_matrix(d2, d3, "theta2")
    (flag,) = unpack("<B", "adam flag")
    if flag not in (0, 1):
        raise CheckpointError(f"bad adam flag {flag} at offset {offset - 1}")

    adam_raw = []
    if flag == 1:
        for name, rows, cols in (("theta1", d1, d2), ("theta2", d2, d3)):
            m = read_matrix(rows, cols, f"adam m of {name}")
            v = read_matrix(rows, cols, f"adam v of {name}")
            (t,) = unpack("<Q", f"adam step of {name}")
            adam_raw.append((m, v, t))

    (mlen,) = unpack("<I", "manifest length")
    start = offset
    blob = take(mlen, "manifest")
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes at offset {offset}")
    try:
        manifest = RunManifest.from_json(blob.decode("utf-8"))
        activation = Activation(manifest.config.get("activation", "tanh"))
        beta = float(manifest.config.get("beta", 1e-4))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"bad manifest at offset {start}: {exc}") from None
    try:
        params = ModelParams(theta1, theta2, activation)
    except ValueError as exc:
        raise CheckpointError(f"bad weights: {exc}") from None

    adam = None
    if adam_raw:
        adam = tuple(AdamState(m=m, v=v, t=t, rate=beta) for m, v, t in adam_raw)
    return params, adam, manifest
