"""Hex-float records: bit-exact (de)serialization helpers shared by the
package, the type check every config class runs on its fields, and the
counter-mode child-seed derivation every module uses."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import typing

import numpy as np

# the values a field of each declared scalar type takes, besides int (see _check_int)
_TYPES = {float: (int, float, np.integer, np.floating), bool: bool, str: str,
          type(None): type(None)}
_type_hints = functools.cache(typing.get_type_hints)


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


def _check_int(key: str, value) -> None:
    """Raise ``ValueError`` naming ``key`` unless ``value`` is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key!r} must be an int, got {value!r}")


def _check_fields(config) -> None:
    """Check each field of the config dataclass ``config`` against its declared
    type, and store the value in that type's form (see :func:`_json_value`)."""
    for name, hint in _type_hints(type(config)).items():
        value = getattr(config, name)
        if type(value) is not hint:
            object.__setattr__(config, name, _json_value(name, value, hint))


def _json_value(key: str, value, hint):
    """``value`` checked against the declared type ``hint``, in that type's form.

    A list for ``tuple[T, ...]`` comes back a tuple, an int or numpy float for
    ``float`` a float and a numpy int for ``int`` an int; only a bool fits
    ``bool``.  A config class takes an instance, or an object (a dict) it is
    built from field by field; a union takes what its first fitting member
    takes.  A mismatch or an unknown object key raises ``ValueError`` naming ``key``.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key!r} must be a list, got {value!r}")
        return tuple(_json_value(f"{key}[{k}]", item, args[0]) for k, item in enumerate(value))
    if args:
        for member in args:
            with contextlib.suppress(ValueError):
                return _json_value(key, value, member)
        raise ValueError(f"{key!r} must be {hint}, got {value!r}")
    if dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        if not isinstance(value, dict):
            raise ValueError(f"{key!r} must be an object, got {value!r}")
        unknown = set(value) - set(_type_hints(hint))
        if unknown:
            raise ValueError(f"unknown config keys {sorted(f'{key}.{k}' for k in unknown)}")
        return hint(**{k: _json_value(f"{key}.{k}", v, _type_hints(hint)[k])
                       for k, v in value.items()})
    if hint is int:
        _check_int(key, value)
    elif isinstance(value, bool) != (hint is bool) or not isinstance(value, _TYPES[hint]):
        raise ValueError(f"{key!r} must be a {hint.__name__}, got {value!r}")
    return None if value is None else hint(value)


def _check_arms(key: str, arms) -> None:
    """Raise ``ValueError`` naming ``key`` if the arm list ``arms`` is empty or repeats one."""
    if not arms or len(set(arms)) < len(arms):
        raise ValueError(f"{key!r} must list distinct arms, got {list(arms)!r}")


def child_seed(master: int, *key: int) -> int:
    """Counter-mode seed derivation; stable and collision-resistant."""
    ss = np.random.SeedSequence([int(master), *[int(k) for k in key]])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
