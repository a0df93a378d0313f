"""Binary checkpoint persistence and the run manifest.

Layout (little-endian):

    magic "PCN1" | version u32 | layer count u32 | dims u32 x 3
    theta1 float64 row-major | theta2 float64 row-major
    adam flag u8 (always 1) | m, v float64 arrays + t u64, per matrix
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

import numpy as np

from .core import ModelParams
from .data import CHUNK_BYTES
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

    def to_json(self, include_timestamp: bool = False) -> str:
        d = {
            "artifact_version": ARTIFACT_VERSION,
            "config": self.config,
            "data_digests": self.data_digests,
        }
        if include_timestamp:
            d["created"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        d = json.loads(text)
        if not isinstance(d, dict) or not isinstance(d.get("config", {}), dict):
            raise ValueError("manifest is not a JSON object with a config object")
        digests = d.get("data_digests", {})
        if not (isinstance(digests, dict) and all(isinstance(v, str) for v in digests.values())):
            raise ValueError("data_digests is not a JSON object of strings")
        return cls(config=d.get("config", {}), data_digests=digests)


def file_digests(paths: list[Path]) -> dict:
    """SHA-256 of each file's bytes, by file name, read in CHUNK_BYTES
    reads into one reused buffer."""
    buffer = bytearray(CHUNK_BYTES)
    digests = {}
    for path in sorted(paths):
        sha = hashlib.sha256()
        with open(path, "rb") as f:
            while n := f.readinto(buffer):
                sha.update(memoryview(buffer)[:n])
        digests[path.name] = sha.hexdigest()
    return digests


def atomic_write(path: Path, *parts) -> None:
    """Write parts, in order, to a temporary file next to path, then rename
    it over path. Each part is bytes or a C-contiguous array, whose buffer
    is written as it lies in memory."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        for part in parts:
            f.write(part)
    tmp.replace(path)


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    adam: tuple[AdamState, AdamState],
    manifest: RunManifest,
) -> None:
    """Write the weights, both Adam states and the manifest as one checkpoint, atomically."""
    path = Path(path)
    d1, d2, d3 = params.dims

    def matrix(a):
        return np.ascontiguousarray(a, dtype="<f8")

    parts = [MAGIC, struct.pack("<II", VERSION, 3), struct.pack("<III", d1, d2, d3),
             matrix(params.theta1), matrix(params.theta2), struct.pack("<B", 1)]
    for state in adam:
        parts += [matrix(state.m), matrix(state.v), struct.pack("<Q", state.t)]
    blob = manifest.to_json().encode("utf-8")
    parts += [struct.pack("<I", len(blob)), blob]
    atomic_write(path, *parts)


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelParams, tuple[AdamState, AdamState], RunManifest]:
    """Read a checkpoint written by save_checkpoint: the weights, the Adam
    state of theta1 and theta2, and the manifest.

    Raises CheckpointError, naming the offset, on any file that does not
    hold exactly one well-formed checkpoint, Adam flag 1 included. The
    manifest's config must be a JSON object, but no key of it is read
    here: experiments.ExperimentConfig.from_dict is its one reader.
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
    if flag != 1:
        raise CheckpointError(f"bad adam flag {flag} at offset {offset - 1}")
    adam = []
    for name, rows, cols in (("theta1", d1, d2), ("theta2", d2, d3)):
        m = read_matrix(rows, cols, f"adam m of {name}")
        v = read_matrix(rows, cols, f"adam v of {name}")
        (t,) = unpack("<Q", f"adam step of {name}")
        if not np.all(np.isfinite(m)):
            raise CheckpointError(f"non-finite adam m of {name}")
        if not (np.all(np.isfinite(v)) and np.all(v >= 0)):
            raise CheckpointError(f"non-finite or negative adam v of {name}")
        adam.append(AdamState(m=m, v=v, t=t))

    (mlen,) = unpack("<I", "manifest length")
    start = offset
    blob = take(mlen, "manifest")
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes at offset {offset}")
    try:
        manifest = RunManifest.from_json(blob.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"bad manifest at offset {start}: {exc}") from None
    try:
        params = ModelParams(theta1, theta2)
    except ValueError as exc:
        raise CheckpointError(f"bad weights: {exc}") from None
    return params, tuple(adam), manifest
