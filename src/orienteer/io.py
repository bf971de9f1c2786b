"""Versioned JSON instance and solution files.

Both formats carry an explicit ``version`` field; unknown versions are a hard
error rather than a best-effort parse.  Each kind's fields are fixed: an
instance carries the shared fields and then ``KIND_FIELDS[kind]``, and a
solution holds its visit sequences in ``SEQUENCE_FIELD[kind]``.  A field of
another kind, or an unknown field, is malformed input in either format.
Serialization is deterministic: fixed key order, two-space indentation, and
shortest round-trip float repr, so equal objects produce byte-identical files
(a property the golden tests rely on).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import PointSet

FORMAT_VERSION = 1

# The fields that instance files, and solution files, of every kind share.
INSTANCE_FIELDS = ("version", "kind", "dimension", "points", "delta")
SOLUTION_FIELDS = ("version", "kind", "length", "visited", "config", "verification")
# The fields each instance kind carries after the shared ones, in file order.
KIND_FIELDS = {
    "ktsp": ("source", "sink", "k"),
    "mktsp": ("pairs", "k"),
    "orienteering": ("root", "budget"),
}
# The solution field holding each kind's visit sequences: "visits" holds the
# one path's sequence, "visits_per_path" one sequence per pair.
SEQUENCE_FIELD = {"ktsp": "visits", "mktsp": "visits_per_path", "orienteering": "visits"}

KINDS = tuple(KIND_FIELDS)
_KIND_ONLY_FIELDS = tuple(dict.fromkeys(f for fields in KIND_FIELDS.values() for f in fields))


def _is_int(value) -> bool:
    """A JSON integer: true and false are not ids or counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A JSON number that a float can hold; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)  # an integer literal may be too large
    except OverflowError:
        return False
    return True


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _known(kind) -> str:
    if kind not in KINDS:
        raise InputError(f"unknown problem kind {kind!r}")
    return kind


def _reject_unknown(data: dict, shared: tuple, own: tuple, what: str):
    unknown = set(data).difference(shared, own)
    if unknown:
        raise InputError(f"a {what} carries no {', '.join(sorted(unknown))}")


def _one_per_path(kind: str, held) -> list:
    """A kind's sequence field value as a list of sequences, one per path."""
    return [held] if SEQUENCE_FIELD[kind] == "visits" else held


@dataclass
class Instance:
    kind: str
    points: list  # list of coordinate lists
    delta: float
    root: int | None = None
    budget: float | None = None
    source: int | None = None
    sink: int | None = None
    k: int | None = None
    pairs: list | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def point_set(self) -> PointSet:
        return PointSet(self.points)

    def validate(self) -> "Instance":
        own = KIND_FIELDS[_known(self.kind)]
        foreign = [f for f in _KIND_ONLY_FIELDS if f not in own and getattr(self, f) is not None]
        if foreign:
            raise InputError(f"a {self.kind} instance carries no {', '.join(foreign)}")
        if not isinstance(self.points, (list, tuple)) or not self.points:
            raise InputError("instance needs a nonempty list of points")
        if not all(isinstance(p, (list, tuple)) and all(_is_real(c) for c in p) for p in self.points):
            raise InputError("each point must be a list of numbers")
        d = len(self.points[0])
        if d < 1 or any(len(p) != d for p in self.points):
            raise InputError("inconsistent point dimension")
        if not all(np.isfinite(np.asarray(self.points, dtype=float)).ravel()):
            raise InputError("coordinates must be finite")
        if not _is_real(self.delta) or not (0 < self.delta):
            raise InputError("delta must be a positive number")
        n = self.n

        def check_id(name, value):
            if not _is_int(value) or not (0 <= value < n):
                raise InputError(f"{name} must be a point index in [0, {n})")

        def check_k(low):
            if not _is_int(self.k) or not (low <= self.k <= n):
                raise InputError(f"{self.kind} needs an integer k with {low} <= k <= {n}")

        if self.kind == "orienteering":
            check_id("root", self.root)
            if not _is_real(self.budget) or math.isnan(self.budget) or self.budget < 0:
                raise InputError("orienteering needs a nonnegative budget")
            if not (self.delta < 1):
                raise InputError("orienteering delta must lie in (0, 1)")
        elif self.kind == "ktsp":
            check_id("source", self.source)
            check_id("sink", self.sink)
            check_k(2)
        else:  # mktsp
            if not isinstance(self.pairs, (list, tuple)) or not self.pairs:
                raise InputError("mktsp needs a list of endpoint pairs")
            for pair in self.pairs:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise InputError("each pair is [source, sink]")
                check_id("pair source", pair[0])
                check_id("pair sink", pair[1])
            check_k(1)
        return self

    def to_dict(self) -> dict:
        out = {
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "dimension": self.dimension,
            "points": self.points,
            "delta": self.delta,
        }
        for name in KIND_FIELDS[self.kind]:
            out[name] = getattr(self, name)
        return out

    @staticmethod
    def from_dict(data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise InputError("instance file must hold a JSON object")
        version = data.get("version")
        if version != FORMAT_VERSION:
            raise InputError(f"unsupported instance version {version!r}")
        kind = data.get("kind")
        own = KIND_FIELDS[_known(kind)]
        _reject_unknown(data, INSTANCE_FIELDS, own, f"{kind} instance")
        inst = Instance(kind, data.get("points"), data.get("delta"),
                        **{name: data.get(name) for name in own})
        inst.validate()
        if "dimension" in data and data["dimension"] != inst.dimension:
            raise InputError("declared dimension does not match the points")
        return inst


@dataclass
class Solution:
    kind: str
    length: float
    visited: int
    visits: list | None = None  # one visit sequence
    visits_per_path: list | None = None  # one sequence per pair
    config: dict = field(default_factory=dict)
    verification: str = "unchecked"

    @staticmethod
    def of(kind: str, length: float, sequences, config: dict) -> "Solution":
        """The solution visiting ``sequences``, one per path, in order."""
        seqs = [list(seq) for seq in sequences]
        visited = len({v for seq in seqs for v in seq})
        if SEQUENCE_FIELD[kind] == "visits":
            (seqs,) = seqs  # the one path
        return Solution(kind, length, visited, config=config, **{SEQUENCE_FIELD[kind]: seqs})

    @property
    def sequences(self) -> list:
        """The visit sequences, one per path; a missing one reads as empty."""
        return _one_per_path(self.kind, getattr(self, SEQUENCE_FIELD[self.kind]) or [])

    def to_dict(self) -> dict:
        name = SEQUENCE_FIELD[self.kind]
        return {
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "length": self.length,
            "visited": self.visited,
            name: getattr(self, name),
            "config": self.config,
            "verification": self.verification,
        }

    @staticmethod
    def from_dict(data: dict) -> "Solution":
        if not isinstance(data, dict):
            raise InputError("solution file must hold a JSON object")
        if data.get("version") != FORMAT_VERSION:
            raise InputError(f"unsupported solution version {data.get('version')!r}")
        kind = data.get("kind")
        name = SEQUENCE_FIELD[_known(kind)]
        _reject_unknown(data, SOLUTION_FIELDS, (name,), f"{kind} solution")
        seqs = _one_per_path(kind, data.get(name))
        if not isinstance(seqs, list) or not all(_is_id_list(seq) for seq in seqs):
            raise InputError(f"{kind} solution needs {name} of point ids")
        if not _is_real(data.get("length")):
            raise InputError("solution length must be a number")
        if not _is_int(data.get("visited")):
            raise InputError("solution visited count must be an integer")
        return Solution(kind, float(data["length"]), data["visited"], config=data.get("config", {}),
                        verification=data.get("verification", "unchecked"), **{name: data[name]})


def dumps(obj) -> str:
    """Deterministic serialization of an Instance or Solution."""
    return json.dumps(obj.to_dict(), indent=2) + "\n"


def load_instance(path) -> Instance:
    return Instance.from_dict(_read_json(path))


def load_solution(path) -> Solution:
    return Solution.from_dict(_read_json(path))


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
