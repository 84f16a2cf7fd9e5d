"""Shared file-format plumbing: exact float serialization, JSON/CSV helpers,
run manifests, thread-count resolution and the one parallel map.

Every writer in the package funnels through these helpers so that reruns of
the same command produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "0.10.0"

MANIFEST_NAME = "run_manifest.json"


def fmt17(x) -> str:
    """Decimal form of a float that reloads bit-identically (<= 17 sig digits)."""
    return format(float(x), ".17g")


def _exact_floats(obj):
    # json.dump already emits shortest-round-trip reprs for floats; this pass
    # only normalizes numpy scalars/arrays into plain Python containers.
    if isinstance(obj, np.ndarray):
        return [_exact_floats(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _exact_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_exact_floats(v) for v in obj]
    return obj


def dump_json(obj, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_exact_floats(obj), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path):
    """Parse a JSON file, pointing at the offending line/column on failure."""
    path = Path(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"{path}: malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err


def require(mapping: dict, key: str, path) -> object:
    """Fetch a required field from a loaded JSON mapping."""
    if key not in mapping:
        raise ValueError(f"{path}: missing field '{key}'")
    return mapping[key]


def digest_payload(obj) -> str:
    """Content hash of an arbitrary JSON-serializable payload."""
    blob = json.dumps(_exact_floats(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else XBAR_THREADS, else 1."""
    if threads is None:
        threads = int(os.environ.get("XBAR_THREADS", "1"))
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return threads


def parallel_map(func, items, threads: int | None) -> list:
    """[func(item) for item in items], on a pool of `threads` workers
    (resolved as in resolve_threads) and in item order.  One thread or one
    item runs serially on the calling thread."""
    threads = resolve_threads(threads)
    items = list(items)
    if threads == 1 or len(items) == 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, items))


def _write_csv(path, rows) -> None:
    """The one CSV row writer: floats go through fmt17, everything else
    through str."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [fmt17(v) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )


def write_matrix_csv(path, matrix) -> None:
    """Dense matrix as CSV rows of exact decimals."""
    _write_csv(path, np.atleast_2d(np.asarray(matrix, dtype=float)))


def write_long_csv(path, matrix) -> None:
    """Matrix flattened to (row, col, value) rows, gnuplot-friendly."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    cells = ((i, j, v) for (i, j), v in np.ndenumerate(matrix))
    _write_csv(path, [("row", "col", "value"), *cells])


def write_rows_csv(path, header, rows) -> None:
    """Header row, then one CSV row per item of rows."""
    _write_csv(path, [header, *rows])


@dataclass
class RunManifest:
    """Provenance record dropped next to every CLI output.

    Two runs whose manifests agree on everything but the timestamp are
    guaranteed to have written bit-identical numeric outputs.
    """

    command: str
    config_digest: str
    seed: int | None
    artifact_version: str = ARTIFACT_VERSION
    created_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "artifact_version": self.artifact_version,
            "created_utc": self.created_utc,
        }

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / MANIFEST_NAME
        dump_json(self.to_dict(), path)
        return path

    @classmethod
    def from_file(cls, path) -> "RunManifest":
        raw = load_json(path)
        return cls(
            command=require(raw, "command", path),
            config_digest=require(raw, "config_digest", path),
            seed=raw.get("seed"),
            artifact_version=require(raw, "artifact_version", path),
            created_utc=require(raw, "created_utc", path),
        )

    def same_inputs(self, other: "RunManifest") -> bool:
        """Equality ignoring timestamps."""
        return (
            self.command == other.command
            and self.config_digest == other.config_digest
            and self.seed == other.seed
            and self.artifact_version == other.artifact_version
        )
