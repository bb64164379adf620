"""Hex-float records: bit-exact (de)serialization helpers shared by the
package, the type and value check every config class runs on its fields,
and the counter-mode seed derivation every module draws its generators from."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import typing

import numpy as np

# each declared scalar type: its name in an error, and the values a field of it takes
_TYPES = {int: ("an int", (int, np.integer)),
          float: ("a float", (int, float, np.integer, np.floating)),
          bool: ("a bool", bool), str: ("a str", str), type(None): ("None", type(None))}
_type_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


@dataclasses.dataclass(frozen=True)
class Bound:
    """The range a numeric field declares as ``Annotated[T, bound]``: from ``lo`` to
    ``hi``, each end included when ``lo_in`` (``hi_in``) says so.  NaN lies outside."""

    text: str  # completes "<field> must be ..."
    lo: float
    hi: float = math.inf
    lo_in: bool = True
    hi_in: bool = False

    def __contains__(self, value) -> bool:
        return ((self.lo <= value if self.lo_in else self.lo < value)
                and (value <= self.hi if self.hi_in else value < self.hi))


NONNEGATIVE = Bound("nonnegative", 0)  # ints: seeds, warmup
AT_LEAST_1 = Bound(">= 1", 1)
AT_LEAST_2 = Bound(">= 2", 2)
FINITE_NONNEGATIVE = Bound("finite and nonnegative", 0)
FINITE_POSITIVE = Bound("finite and positive", 0, lo_in=False)
POSITIVE = Bound("positive", 0, lo_in=False, hi_in=True)  # infinity included
ABOVE_1 = Bound("finite and > 1", 1, lo_in=False)
BELOW_HALF = Bound("in (0, 1/2)", 0, 0.5, lo_in=False)
UNIT_INTERVAL = Bound("in [0, 1]", 0, 1, hi_in=True)


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


def _check_value(key: str, value, allowed) -> None:
    """Raise ``ValueError`` naming ``key`` unless ``value`` is None or ``allowed`` allows it."""
    if allowed is not None and value is not None and value not in allowed:
        what = allowed.text if isinstance(allowed, Bound) else f"one of {allowed}"
        raise ValueError(f"{key} must be {what}, got {value!r}")


def _split(hint):
    """``hint`` as (the type a value must have, the values it may take): (T, bound)
    for ``Annotated[T, bound]``, (type(a), (a, b)) for ``Literal[a, b]``, else (hint, None)."""
    origin = typing.get_origin(hint)
    if origin is typing.Annotated:
        return hint.__origin__, hint.__metadata__[0]
    if origin is typing.Literal:
        return type(hint.__args__[0]), hint.__args__
    return hint, None


@functools.cache
def _fields(cls) -> tuple:
    """(name, type, allowed values) of each field of the config class ``cls``."""
    return tuple((name, *_split(hint)) for name, hint in _type_hints(cls).items())


def _check_fields(config) -> None:
    """Check each field of the config dataclass ``config`` against its declared type,
    bound or choices, and store the value in that type's form (see :func:`_json_value`)."""
    for name, kind, allowed in _fields(type(config)):
        value = getattr(config, name)
        if type(value) is not kind:
            value = _json_value(name, value, kind)
            object.__setattr__(config, name, value)
        _check_value(name, value, allowed)


def _json_value(key: str, value, hint):
    """``value`` checked against the declared type ``hint``, in that type's form.

    A list for ``tuple[T, ...]`` comes back a tuple, an int or numpy float for
    ``float`` a float and a numpy int for ``int`` an int; only a bool fits
    ``bool``.  A config class takes an instance, or an object (a dict) it is
    built from field by field; a union takes what its first fitting member
    takes; it must then lie in what an ``Annotated`` bound or a ``Literal`` allows.
    A mismatch or an unknown object key raises ``ValueError`` naming ``key``.
    """
    kind, allowed = _split(hint)
    if allowed is not None:
        value = _json_value(key, value, kind)
        _check_value(key, value, allowed)
        return value
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
    what, types = _TYPES[hint]
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, types):
        raise ValueError(f"{key!r} must be {what}, got {value!r}")
    return None if value is None else hint(value)


def _check_arms(key: str, arms) -> None:
    """Raise ``ValueError`` naming ``key`` if the arm list ``arms`` is empty or repeats one."""
    if not arms or len(set(arms)) < len(arms):
        raise ValueError(f"{key!r} must list distinct arms, got {list(arms)!r}")


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The seed sequence of stream ``key`` under ``seed``, which must be a nonnegative int."""
    _check_value("seed", seed, NONNEGATIVE)
    return np.random.SeedSequence([int(seed), *[int(k) for k in key]])


def child_seed(master: int, *key: int) -> int:
    """Counter-mode seed derivation; stable and collision-resistant."""
    return int(_seed_sequence(master, *key).generate_state(1, dtype=np.uint64)[0] >> 1)


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream ``key`` under ``seed``; every seeded generator is built here."""
    return np.random.default_rng(_seed_sequence(seed, *key))
