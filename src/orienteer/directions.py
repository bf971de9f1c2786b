"""Find a sweep direction making every prescribed segment face forward.

Given m unit vectors, a random Gaussian direction (restricted to their span
when the ambient dimension exceeds m) almost surely has inner product at
least 1/(4m * ||x||) with every vector up to sign.  Accepted samples therefore
guarantee a margin of at least 1/(8m*sqrt(min(d, m))), which bounds every
signed vector's angle to the axis away from a right angle by 1/(8m^1.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError, SamplingFailureError
from .geometry import PointSet, Transform, rotation_mapping_to_axis, unit_vector

DEFAULT_MAX_ATTEMPTS = 10000

#: Rank decision tolerance for projecting onto the span of the input vectors.
SPAN_RANK_TOL = 1e-10


def margin_bound(m: int, d: int) -> float:
    """Guaranteed minimum inner product for m vectors in ambient dimension d."""
    return 1.0 / (8.0 * m * np.sqrt(min(d, m)))


def angle_margin(m: int) -> float:
    """Every oriented segment ends up within pi/2 - angle_margin(m) of the axis."""
    return 1.0 / (8.0 * m ** 1.5)


@dataclass(frozen=True)
class DirectionResult:
    axis: np.ndarray
    signs: tuple[int, ...]
    margin: float


def _span_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the span, Gram-Schmidt with pivoting."""
    basis: list[np.ndarray] = []
    residuals = vectors.copy()
    while True:
        norms = np.linalg.norm(residuals, axis=1)
        pivot = int(np.argmax(norms))
        if norms[pivot] <= SPAN_RANK_TOL:
            break
        b = residuals[pivot] / norms[pivot]
        basis.append(b)
        residuals = residuals - np.outer(residuals @ b, b)
    return np.stack(basis)


def find_direction(vectors, rng_seed: int, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> DirectionResult:
    """Unit axis and signs with <axis, sign_i * v_i> >= 1/(8m*sqrt(min(d,m))).

    Samples standard Gaussian vectors, rejecting when the squared norm reaches
    4 * dim or any |<x, v_i>| fails to clear 1/(4m); an accepted sample is
    normalized, which keeps the margin at least 1/(4m * ||x||).  Raises
    SamplingFailureError after `max_attempts` rejections (the acceptance
    probability per draw exceeds 1/4).
    """
    vecs = np.array(vectors, dtype=float)
    if vecs.ndim != 2 or vecs.shape[0] < 1:
        raise InputError("need at least one vector")
    m, d = vecs.shape
    norms = np.linalg.norm(vecs, axis=1)
    if not np.allclose(norms, 1.0, rtol=0, atol=1e-9):
        raise InputError("vectors must be unit length")

    basis = _span_basis(vecs)
    if basis.shape[0] < d:
        work = vecs @ basis.T
        # Unit length is preserved: each vector lies in its own span.
        work = work / np.linalg.norm(work, axis=1, keepdims=True)
    else:
        basis = None
        work = vecs
    dim = work.shape[1]

    rng = np.random.default_rng(rng_seed)
    threshold = 1.0 / (4.0 * m)
    for _ in range(max_attempts):
        x = rng.standard_normal(dim)
        if float(x @ x) >= 4.0 * dim:
            continue
        inner = work @ x
        if np.any(np.abs(inner) <= threshold):
            continue
        y = x / np.linalg.norm(x)
        signs = np.where(work @ y >= 0.0, 1, -1)
        if signs[0] < 0:
            y = -y
            signs = -signs
        axis = y if basis is None else y @ basis
        margin = float(np.min((work @ y) * signs))
        return DirectionResult(axis, tuple(int(s) for s in signs), margin)
    raise SamplingFailureError(
        f"no valid direction in {max_attempts} samples (m={m}, dim={dim})"
    )


def orient_pairs(points: PointSet, pairs, rng_seed: int = 0) -> tuple[Transform, list[bool]]:
    """Rotate space (and swap endpoint pairs as needed) so every directed
    segment makes an angle of at most pi/2 - 1/(8m^1.5) with the sweep axis.

    Returns the rigid motion and a per-pair flag saying whether the pair was
    swapped.  The motion is a pure rotation about the origin.
    """
    coords = points.coords
    vecs = []
    for s_id, t_id in pairs:
        v = coords[t_id] - coords[s_id]
        if not v.any():
            raise DegenerateInputError(f"pair ({s_id}, {t_id}) is degenerate")
        vecs.append(unit_vector(v))
    result = find_direction(vecs, rng_seed)
    rotation = rotation_mapping_to_axis(result.axis)
    transform = Transform(rotation, np.zeros(points.dim))
    swapped = [s < 0 for s in result.signs]
    return transform, swapped
