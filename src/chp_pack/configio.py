"""Reading and writing packing configurations as versioned JSON.

Coordinates are printed at 17 significant digits, which round-trips
IEEE doubles exactly, and the writer emits keys in a fixed order so
identical configurations produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from typing import List, Union

import numpy as np

from . import geometry
from .builder import PackingConfiguration
from .errors import ParseError, SchemaMismatch

SCHEMA_VERSION = "chp-pack/1"

# the provenance keys in the order they are written, each with the types
# loads_config accepts for it; null means absent, and a bool is neither an
# integer nor a number here
_PROVENANCE_KEYS = {
    "mode": (str, "a string"),
    "seed": (int, "an integer"),
    "trial": (int, "an integer"),
    "theta": ((int, float), "a finite number"),
    "scale": ((int, float), "a finite number"),
}


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in output")
    return format(float(x), ".17g")


def _json_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(float(v))
    return json.dumps(str(v))


def dumps_config(config: PackingConfiguration) -> str:
    """Serialize to the v1 document with deterministic bytes."""
    meta = config.meta or {}
    lines: List[str] = ["{"]
    lines.append(f'  "schema_version": {json.dumps(SCHEMA_VERSION)},')
    lines.append(f'  "sigma": {json.dumps(config.sigma)},')
    if "k" in meta:
        lines.append(f'  "k": {int(meta["k"])},')
    lines.append(f'  "n_disks": {config.n_disks},')
    lines.append(f'  "diameter": {_fmt(config.diameter)},')
    if not np.isfinite(config.centers).all():
        raise ValueError("non-finite value in output centers")
    lines.append('  "centers": [')
    rows = [f"    [{x:.17g}, {y:.17g}]" for x, y in config.centers.tolist()]
    lines.append(",\n".join(rows))
    lines.append("  ],")
    if "dna" in meta and meta["dna"] is not None:
        lines.append(f'  "dna": {json.dumps(str(meta["dna"]))},')
    prov: List[str] = []
    for key in _PROVENANCE_KEYS:
        if key not in meta or meta[key] is None:
            continue
        prov.append(f"{json.dumps(key)}: {_json_scalar(meta[key])}")
    lines.append('  "provenance": {' + ", ".join(prov) + "}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require(doc: dict, field: str):
    if field not in doc:
        raise ParseError(f"field {field!r} is missing")
    return doc[field]


def _float(value: Union[int, float], field: str) -> float:
    """A JSON number as a float; an integer past the float range is a ParseError."""
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"field {field!r}: integer outside the float range") from None


def loads_config(text: str) -> PackingConfiguration:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    version = _require(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION!r}")

    sigma = _require(doc, "sigma")
    try:
        geometry.check_sigma(sigma)
    except ValueError:
        raise ParseError(f"field 'sigma': expected an integer >= 3 or \"circle\", got {sigma!r}") from None

    n = _require(doc, "n_disks")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"field 'n_disks': expected a positive integer, got {n!r}")
    diameter = _require(doc, "diameter")
    if not isinstance(diameter, (int, float)) or isinstance(diameter, bool) or not 0 < _float(diameter, "diameter") < math.inf:
        raise ParseError(f"field 'diameter': expected a positive finite number, got {diameter!r}")

    raw = _require(doc, "centers")
    if not isinstance(raw, list) or len(raw) != n:
        count = len(raw) if isinstance(raw, list) else "non-list"
        raise ParseError(f"field 'centers': expected {n} pairs, got {count}")
    centers = np.empty((n, 2), dtype=float)
    for i, item in enumerate(raw):
        if (not isinstance(item, list)) or len(item) != 2 or any(
            isinstance(c, bool) or not isinstance(c, (int, float)) for c in item
        ):
            raise ParseError(f"field 'centers[{i}]': expected [x, y] numbers, got {item!r}")
        centers[i] = (_float(item[0], f"centers[{i}]"), _float(item[1], f"centers[{i}]"))
    if not np.all(np.isfinite(centers)):
        raise ParseError("field 'centers': coordinates must be finite")

    meta: dict = {}
    if "k" in doc:
        k = doc["k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ParseError(f"field 'k': expected a positive integer, got {k!r}")
        meta["k"] = k
    if "dna" in doc and doc["dna"] is not None:
        if not isinstance(doc["dna"], str):
            raise ParseError(f"field 'dna': expected a string of letters, got {doc['dna']!r}")
        meta["dna"] = doc["dna"]
    prov = doc.get("provenance", {})
    if not isinstance(prov, dict):
        raise ParseError(f"field 'provenance': expected an object, got {prov!r}")
    for key, val in prov.items():
        if val is None or key not in _PROVENANCE_KEYS:
            continue
        kinds, what = _PROVENANCE_KEYS[key]
        if isinstance(val, bool) or not isinstance(val, kinds) or (isinstance(val, float) and not math.isfinite(val)):
            raise ParseError(f"field 'provenance.{key}': expected {what}, got {val!r}")
        # only the checked provenance keys: any other, such as "k" or
        # "dna", would overwrite the top-level field checked above
        meta[key] = val
    return PackingConfiguration(sigma=sigma, centers=centers, diameter=float(diameter), meta=meta)


def read_config(path: Union[str, os.PathLike]) -> PackingConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())
