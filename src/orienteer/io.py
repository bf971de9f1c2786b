"""Versioned JSON instance and solution files.

Both formats carry an explicit ``version`` field; unknown versions are a hard
error rather than a best-effort parse.  Serialization is deterministic: fixed
key order, two-space indentation, and shortest round-trip float repr, so equal
objects produce byte-identical files (a property the golden tests rely on).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import PointSet

FORMAT_VERSION = 1

KINDS = ("ktsp", "mktsp", "orienteering")


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
        if self.kind not in KINDS:
            raise InputError(f"unknown problem kind {self.kind!r}")
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
            if self.k is not None or self.pairs is not None:
                raise InputError("budget and k/pairs are mutually exclusive")
            if not (self.delta < 1):
                raise InputError("orienteering delta must lie in (0, 1)")
        elif self.kind == "ktsp":
            check_id("source", self.source)
            check_id("sink", self.sink)
            check_k(2)
            if self.budget is not None:
                raise InputError("budget and k are mutually exclusive")
        else:  # mktsp
            if not isinstance(self.pairs, (list, tuple)) or not self.pairs:
                raise InputError("mktsp needs a list of endpoint pairs")
            for pair in self.pairs:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise InputError("each pair is [source, sink]")
                check_id("pair source", pair[0])
                check_id("pair sink", pair[1])
            check_k(1)
            if self.budget is not None:
                raise InputError("budget and k are mutually exclusive")
        return self

    def to_dict(self) -> dict:
        out = {
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "dimension": self.dimension,
            "points": self.points,
            "delta": self.delta,
        }
        if self.kind == "orienteering":
            out["root"] = self.root
            out["budget"] = self.budget
        elif self.kind == "ktsp":
            out["source"] = self.source
            out["sink"] = self.sink
            out["k"] = self.k
        else:
            out["pairs"] = self.pairs
            out["k"] = self.k
        return out

    @staticmethod
    def from_dict(data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise InputError("instance file must hold a JSON object")
        version = data.get("version")
        if version != FORMAT_VERSION:
            raise InputError(f"unsupported instance version {version!r}")
        known = {"version", "kind", "dimension", "points", "delta", "root",
                 "budget", "source", "sink", "k", "pairs"}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown instance fields: {sorted(unknown)}")
        inst = Instance(
            kind=data.get("kind"),
            points=data.get("points"),
            delta=data.get("delta", 0.5),
            root=data.get("root"),
            budget=data.get("budget"),
            source=data.get("source"),
            sink=data.get("sink"),
            k=data.get("k"),
            pairs=data.get("pairs") or None,
        )
        inst.validate()
        if "dimension" in data and data["dimension"] != inst.dimension:
            raise InputError("declared dimension does not match the points")
        return inst


@dataclass
class Solution:
    kind: str
    length: float
    visited: int
    visits: list | None = None  # ktsp / orienteering: one visit sequence
    visits_per_path: list | None = None  # mktsp: one sequence per pair
    config: dict = field(default_factory=dict)
    verification: str = "unchecked"

    def to_dict(self) -> dict:
        out = {
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "length": self.length,
            "visited": self.visited,
        }
        if self.visits is not None:
            out["visits"] = self.visits
        if self.visits_per_path is not None:
            out["visits_per_path"] = self.visits_per_path
        out["config"] = self.config
        out["verification"] = self.verification
        return out

    @staticmethod
    def from_dict(data: dict) -> "Solution":
        if not isinstance(data, dict):
            raise InputError("solution file must hold a JSON object")
        if data.get("version") != FORMAT_VERSION:
            raise InputError(f"unsupported solution version {data.get('version')!r}")
        kind = data.get("kind")
        if kind not in KINDS:
            raise InputError(f"unknown problem kind {kind!r}")
        if kind == "mktsp":
            paths = data.get("visits_per_path")
            if not isinstance(paths, list) or not all(_is_id_list(seq) for seq in paths):
                raise InputError("mktsp solution needs visits_per_path, lists of point ids")
        elif not _is_id_list(data.get("visits")):
            raise InputError(f"{kind} solution needs a visits list of point ids")
        if not _is_real(data.get("length")):
            raise InputError("solution length must be a number")
        if not _is_int(data.get("visited")):
            raise InputError("solution visited count must be an integer")
        return Solution(
            kind=kind,
            length=float(data["length"]),
            visited=data["visited"],
            visits=data.get("visits"),
            visits_per_path=data.get("visits_per_path"),
            config=data.get("config", {}),
            verification=data.get("verification", "unchecked"),
        )


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
