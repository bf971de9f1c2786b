import math

import numpy as np
import pytest

from orienteer import PointSet, find_direction, orient_pairs
from orienteer.directions import angle_margin, margin_bound
from orienteer.errors import DegenerateInputError, InputError, SamplingFailureError
from orienteer.geometry import angle_to_axis


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_single_vector_axis_is_the_vector():
    res = find_direction([(0.0, 1.0)], rng_seed=1)
    assert res.signs == (1,)
    assert res.axis == pytest.approx([0.0, 1.0], abs=1e-12)
    assert res.margin == pytest.approx(1.0, abs=1e-12)
    assert res.margin >= 1.0 / 8.0


def test_antipodal_pair_reduces_to_one_vector():
    res = find_direction([(1.0, 0.0), (-1.0, 0.0)], rng_seed=3)
    assert res.axis == pytest.approx([1.0, 0.0], abs=1e-12)
    assert res.signs == (1, -1)
    assert res.margin == pytest.approx(1.0, abs=1e-12)


def test_margin_bound_holds_for_random_triples(rng):
    m, d = 3, 3
    bound = margin_bound(m, d)
    assert bound == pytest.approx(1 / (8 * 3 * math.sqrt(3)), abs=1e-12)
    for seed in range(100):
        vecs = [unit(rng.standard_normal(d)) for _ in range(m)]
        res = find_direction(vecs, rng_seed=seed)
        assert np.linalg.norm(res.axis) == pytest.approx(1.0, abs=1e-12)
        for sign, v in zip(res.signs, vecs):
            assert sign * float(np.dot(res.axis, v)) >= bound
        assert res.margin >= bound


def test_rejects_non_unit_vectors():
    with pytest.raises(InputError):
        find_direction([(2.0, 0.0)], rng_seed=0)


def test_sampling_failure_surfaces():
    with pytest.raises(SamplingFailureError):
        find_direction([(1.0, 0.0), (0.0, 1.0)], rng_seed=0, max_attempts=0)


def test_orient_single_vertical_pair():
    pts = PointSet([[0.0, 0.0], [0.0, 3.0]])
    transform, swapped = orient_pairs(pts, [(0, 1)], rng_seed=0)
    moved = pts.transformed(transform)
    assert swapped == [False]
    assert moved.coords[1] == pytest.approx([3.0, 0.0], abs=1e-9)


def test_orient_backward_pair_swaps_or_rotates():
    pts = PointSet([[0.0, 0.0], [-3.0, 0.0]])
    transform, swapped = orient_pairs(pts, [(0, 1)], rng_seed=0)
    moved = pts.transformed(transform)
    s, t = (1, 0) if swapped[0] else (0, 1)
    seg = moved.coords[t] - moved.coords[s]
    assert angle_to_axis(seg) == pytest.approx(0.0, abs=1e-9)


def test_orient_pairs_angle_guarantee(rng):
    m = 4
    limit = math.pi / 2 - angle_margin(m)
    assert angle_margin(m) == pytest.approx(1.0 / 64.0, abs=0)
    for trial in range(25):
        pts = PointSet(rng.random((2 * m, 2)))
        pairs = [(2 * j, 2 * j + 1) for j in range(m)]
        transform, swapped = orient_pairs(pts, pairs, rng_seed=trial)
        moved = pts.transformed(transform)
        for (s, t), flip in zip(pairs, swapped):
            if flip:
                s, t = t, s
            assert angle_to_axis(moved.coords[t] - moved.coords[s]) <= limit


def test_orient_pairs_rejects_degenerate():
    pts = PointSet([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateInputError):
        orient_pairs(pts, [(0, 1)], rng_seed=0)


def attempts_used(vectors, seed):
    """Draws find_direction makes for this seed: the least max_attempts that
    succeeds, since a run with max_attempts = a stops after its a-th draw."""
    for attempts in range(1, 1000):
        try:
            find_direction(vectors, seed, max_attempts=attempts)
        except SamplingFailureError:
            continue
        return attempts
    raise AssertionError("no accepted draw in 1000 attempts")


def test_a_draw_is_accepted_with_probability_over_a_quarter():
    # The docstring's rate: above 1/4, so at most 4 draws per accepted one.
    # Measured over this grid it is 0.74-0.93, about 1.1-1.35 draws.
    for m in (1, 2, 3, 4, 6, 8):
        for d in (1, 2, 3, 5, 8):
            rng = np.random.default_rng(1000 * m + d)
            draws = 0
            for seed in range(40):
                vectors = [unit(v) for v in rng.standard_normal((m, d))]
                draws += attempts_used(vectors, seed)
            assert draws / 40 <= 4, (m, d)
