"""Deterministic SVG rendering of 2-d instances and solutions.

Route edges are drawn as individual line elements, visits as circle markers,
and (optionally) the backward-covering window decomposition of a single-path
solution as shaded vertical slabs.  Identical inputs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .geometry import PointSet
from .io import Instance, Solution
from .paths import Path
from .windows import decompose_path

CANVAS = 640
MARGIN = 40

PATH_COLORS = ("#000000", "#b03030", "#3060b0", "#208050")
SLAB_FILL = "#d0d8e8"


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _checked_sequences(instance: Instance, solution: Solution) -> list:
    """The solution's visit sequences, once its kind is the instance's and
    each id names one of the instance's points."""
    if solution.kind != instance.kind:
        raise InputError(f"solution kind {solution.kind} does not match instance kind {instance.kind}")
    seqs = solution.sequences
    outside = [v for seq in seqs for v in seq if not 0 <= v < instance.n]
    if outside:
        raise InputError(f"solution visits point {outside[0]}, outside the instance's {instance.n} points")
    return seqs


def render_svg(instance: Instance, solution: Solution | None = None, show_windows: bool = False) -> str:
    if instance.dimension != 2:
        raise InputError("rendering supports d = 2 only")
    coords = np.asarray(instance.points, dtype=float)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (CANVAS - 2 * MARGIN) / float(span.max())

    def sx(x: float) -> float:
        return MARGIN + (x - lo[0]) * scale

    def sy(y: float) -> float:
        # SVG y grows downward; flip so larger y plots higher.
        return CANVAS - MARGIN - (y - lo[1]) * scale

    width = 2 * MARGIN + span[0] * scale
    height = CANVAS
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]

    seqs = [] if solution is None else _checked_sequences(instance, solution)

    if show_windows and len(seqs) == 1 and len(seqs[0]) >= 2:
        host = PointSet(coords)
        path = Path(host, tuple(seqs[0]))
        if host.ranks[path.source] < host.ranks[path.sink]:
            for w in decompose_path(path).windows:
                x0 = sx(coords[w.left_id, 0])
                x1 = sx(coords[w.right_id, 0])
                parts.append(
                    f'<rect x="{_fmt(x0)}" y="{_fmt(MARGIN / 2)}" '
                    f'width="{_fmt(max(x1 - x0, 1.0))}" '
                    f'height="{_fmt(height - MARGIN)}" fill="{SLAB_FILL}" />'
                )

    for idx, seq in enumerate(seqs):
        color = PATH_COLORS[idx % len(PATH_COLORS)]
        for a, b in zip(seq, seq[1:]):
            parts.append(
                f'<line x1="{_fmt(sx(coords[a, 0]))}" y1="{_fmt(sy(coords[a, 1]))}" '
                f'x2="{_fmt(sx(coords[b, 0]))}" y2="{_fmt(sy(coords[b, 1]))}" '
                f'stroke="{color}" stroke-width="1.5" />'
            )

    anchors = set()
    if instance.kind == "orienteering":
        anchors = {instance.root}
    elif instance.kind == "ktsp":
        anchors = {instance.source, instance.sink}
    elif instance.kind == "mktsp":
        anchors = {v for pair in instance.pairs for v in pair}

    for i in range(instance.n):
        r = 5.0 if i in anchors else 3.0
        fill = "#c02020" if i in anchors else "#202020"
        parts.append(
            f'<circle cx="{_fmt(sx(coords[i, 0]))}" cy="{_fmt(sy(coords[i, 1]))}" '
            f'r="{_fmt(r)}" fill="{fill}" />'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
