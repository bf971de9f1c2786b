"""Windows: axis-orthogonal slabs anchored at two points of the set.

A window is identified by the ids of its left and right anchor points, so
membership is decided purely by the tie-broken sweep order and no
floating-point boundary case can arise.  ``decompose_path`` splits a path
into disjoint windows that swallow all backward edges plus the monotone
segments between them; the sweep solvers never call it, but it turns the
correctness argument behind them into something tests can execute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .geometry import PointSet
from .paths import Path, path_length


@dataclass(frozen=True)
class Window:
    """Slab between the sweep coordinates of two anchor points (inclusive)."""

    host: PointSet
    left_id: int
    right_id: int

    def __post_init__(self):
        if self.host.ranks[self.left_id] > self.host.ranks[self.right_id]:
            raise InputError(
                f"window anchors out of order: {self.left_id} after {self.right_id}"
            )

    @property
    def width(self) -> float:
        return float(
            self.host.coords[self.right_id, 0] - self.host.coords[self.left_id, 0]
        )

    def contains(self, point_id: int) -> bool:
        r = self.host.ranks
        return r[self.left_id] <= r[point_id] <= r[self.right_id]


@dataclass(frozen=True)
class WindowDecomposition:
    """Disjoint windows covering all backward edges of a path, in sweep order.

    ``entry_exit[i]`` holds the first and last visit of the path inside
    ``windows[i]``; ``monotone_segments`` are the connecting subpaths (each
    one axis-monotone), including a leading and trailing segment when the
    path starts or ends outside every window.
    """

    windows: tuple[Window, ...]
    entry_exit: tuple[tuple[int, int], ...]
    monotone_segments: tuple[Path, ...]


def window_excess(path: Path, window: Window, entry_id: int, exit_id: int) -> float:
    """Excess of the path's traversal of a window: subpath length minus the
    sweep-axis distance between its entry and exit points."""
    sub = path.subpath(entry_id, exit_id)
    coords = path.host.coords
    return path_length(sub) - abs(float(coords[exit_id, 0] - coords[entry_id, 0]))


def decompose_path(path: Path) -> WindowDecomposition:
    """Cover every backward edge of the path with merged disjoint windows.

    Each maximal backward run (consecutive edges moving left in the tie-broken
    sweep order) spans a window; overlapping windows are merged until pairwise
    disjoint.  Edges outside all windows are then forward, so the connecting
    segments are monotone.
    """
    host = path.host
    ranks = host.ranks
    if ranks[path.source] >= ranks[path.sink]:
        raise InputError("decompose_path requires the source left of the sink")
    visits = path.visits

    # Maximal backward runs as inclusive rank intervals [lo, hi].
    spans = []
    run: list[int] = []
    for a, b in path.edges():
        if ranks[b] < ranks[a]:
            if run:
                run.append(b)
            else:
                run = [a, b]
        else:
            if run:
                spans.append((min(ranks[p] for p in run), max(ranks[p] for p in run)))
            run = []
    if run:
        spans.append((min(ranks[p] for p in run), max(ranks[p] for p in run)))

    # Merge overlapping (boundary-inclusive) rank intervals.
    spans.sort()
    merged: list[list[int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])

    order = host.sweep_order
    windows = tuple(Window(host, int(order[lo]), int(order[hi])) for lo, hi in merged)

    # Entry and exit: first and last visit of the path inside each window.
    entry_exit = []
    for w in windows:
        inside = [v for v in visits if w.contains(v)]
        entry_exit.append((inside[0], inside[-1]))
    entry_exit = tuple(entry_exit)

    # Monotone segments between consecutive windows (plus lead-in/out).
    segments: list[Path] = []
    boundary_ids: list[int] = [path.source]
    for (c, d) in entry_exit:
        boundary_ids.extend([c, d])
    boundary_ids.append(path.sink)
    for i in range(0, len(boundary_ids) - 1, 2):
        a, b = boundary_ids[i], boundary_ids[i + 1]
        if a != b:
            segments.append(path.subpath(a, b))

    return WindowDecomposition(windows, entry_exit, tuple(segments))
