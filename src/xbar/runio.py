"""Shared file-format plumbing: exact float serialization, JSON/CSV helpers,
run manifests and the one parallel map.

Every writer in the package funnels through these helpers so that reruns of
the same command produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "0.16.0"

MANIFEST_NAME = "run_manifest.json"


def fmt17(x) -> str:
    """Decimal form of a float that reloads bit-identically (<= 17 sig digits)."""
    return format(float(x), ".17g")


def _exact_floats(obj):
    # json.dump already emits shortest-round-trip reprs for floats; this pass
    # only normalizes numpy scalars/arrays into plain Python containers.
    if isinstance(obj, np.ndarray):
        return [_exact_floats(v) for v in obj.tolist()]
    # before the int branch: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
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


REQUIRED = object()  # require's default: the field must be present

# the kinds require reads, as its messages name one value of each
_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object"}


def _kind_name(kind, plural=False) -> str:
    if isinstance(kind, list):
        return ("lists" if plural else "a list") + " of " + _kind_name(kind[0], plural=True)
    return _KINDS[kind].split()[1] + "s" if plural else _KINDS[kind]


def _is_kind(value, kind) -> bool:
    # exact types, as json.load makes them: a bool is no int here
    if isinstance(kind, list):
        return type(value) is list and all(_is_kind(v, kind[0]) for v in value)
    return type(value) is kind or (kind is float and type(value) is int)


def require(mapping, key: str, path, kind=None, default=REQUIRED):
    """Read one field of a loaded JSON object as a JSON kind: int (a JSON
    integer), float (any JSON number, read as a float), bool, str, list,
    dict, or [kind], a list of that kind; None takes any value.  A missing
    key takes default, and is an error without one."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: field '{key}' must be in a JSON object")
    if key not in mapping:
        if default is REQUIRED:
            raise ValueError(f"{path}: missing field '{key}'")
        return default
    value = mapping[key]
    if kind is not None and not _is_kind(value, kind):
        got = json.dumps(value)
        raise ValueError(f"{path}: field '{key}' must be {_kind_name(kind)}, got {got[:40]}")
    return float(value) if kind is float else value


def digest_payload(obj) -> str:
    """Content hash of an arbitrary JSON-serializable payload."""
    blob = json.dumps(_exact_floats(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parallel_map(func, items, threads: int) -> list:
    """[func(item) for item in items], on a pool of `threads` workers
    (at least one) and in item order.  One thread or one item runs
    serially on the calling thread."""
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
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

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / MANIFEST_NAME
        dump_json(asdict(self), path)
        return path

    @classmethod
    def from_file(cls, path) -> "RunManifest":
        raw = load_json(path)
        return cls(
            **{
                f.name: require(raw, f.name, path, default=None if f.name == "seed" else REQUIRED)
                for f in fields(cls)
            }
        )

    def same_inputs(self, other: "RunManifest") -> bool:
        """Equality ignoring timestamps."""
        return all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.name != "created_utc"
        )
