"""Hex-float records: bit-exact (de)serialization helpers shared by the
package, and the counter-mode child-seed derivation every module uses."""

from __future__ import annotations

import json

import numpy as np


def floats_to_hex(values) -> list[str]:
    """Render a 1-D float array as IEEE-754 hex strings (lossless)."""
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel()]


def hex_to_floats(strings) -> np.ndarray:
    return np.array([float.fromhex(s) for s in strings], dtype=np.float64)


def dump_record(record: dict, path) -> None:
    """Write canonical JSON and a newline; a record that fails to serialize writes nothing."""
    payload = canonical_json(record) + "\n"
    with open(path, "w") as fh:
        fh.write(payload)


def load_record(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, shortest round-trip floats."""
    return json.dumps(obj, indent=2, allow_nan=False)


def child_seed(master: int, *key: int) -> int:
    """Counter-mode seed derivation; stable and collision-resistant."""
    ss = np.random.SeedSequence([int(master), *[int(k) for k in key]])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
