"""Property tests: answers do not depend on the frame or on the labels, and
hold their guarantee on a budget that sits exactly on an optimal length."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orienteer import PointSet, solve_ktsp, solve_mktsp
from orienteer.oracle import brute_orienteering, distances, seq_length
from orienteer.orienteering import OrienteeringInstance, solve_orienteering

coordinate = st.one_of(
    st.integers(0, 4).map(lambda v: v / 4),  # grid values: ties and coincident points
    st.integers(0, 1 << 20).map(lambda v: v / (1 << 20)),
)


@st.composite
def ktsp_instances(draw):
    n = draw(st.integers(3, 8))
    d = draw(st.integers(2, 3))
    coords = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    assume(not np.array_equal(coords[0], coords[1]))
    return coords, draw(st.integers(2, n))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    instance=ktsp_instances(),
    data=st.data(),
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    exponent=st.integers(-4, 4),
)
def test_ktsp_length_is_invariant_under_relabelling_and_similarity(
    instance, data, angle, shift, exponent
):
    coords, k = instance
    n, d = coords.shape
    _, length = solve_ktsp(PointSet(coords), 0, 1, k)

    perm = np.array(data.draw(st.permutations(range(n))))  # new id i is old id perm[i]
    rotation = np.eye(d)
    rotation[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    moved = (coords[perm] @ rotation.T + np.array(shift[:d])) * 2.0**exponent
    where = np.argsort(perm)  # old id i is new id where[i]
    _, moved_length = solve_ktsp(PointSet(moved), int(where[0]), int(where[1]), k)

    assert moved_length == pytest.approx(length * 2.0**exponent, rel=1e-9, abs=1e-12)


@st.composite
def mktsp_instances(draw):
    m = draw(st.integers(1, 2))
    n = draw(st.integers(2 * m, 7))
    d = draw(st.integers(2, 3))
    coords = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    return coords, [(2 * l, 2 * l + 1) for l in range(m)], draw(st.integers(2 * m, n))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    instance=mktsp_instances(),
    data=st.data(),
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    exponent=st.integers(-4, 4),
)
def test_mktsp_length_is_invariant_under_relabelling_and_similarity(
    instance, data, angle, shift, exponent
):
    coords, pairs, k = instance
    n, d = coords.shape
    _, length = solve_mktsp(PointSet(coords), pairs, k)

    perm = np.array(data.draw(st.permutations(range(n))))  # new id i is old id perm[i]
    rotation = np.eye(d)
    rotation[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    moved = (coords[perm] @ rotation.T + np.array(shift[:d])) * 2.0**exponent
    where = np.argsort(perm)  # old id i is new id where[i]
    moved_pairs = [(int(where[s]), int(where[t])) for s, t in pairs]
    _, moved_length = solve_mktsp(PointSet(moved), moved_pairs, k)

    assert moved_length == pytest.approx(length * 2.0**exponent, rel=1e-9, abs=1e-12)


@st.composite
def orienteering_instances(draw):
    n = draw(st.integers(3, 6))
    d = draw(st.integers(2, 3))
    coords = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    budget = draw(st.integers(0, 16)) / 4  # grid values: budgets on path lengths
    return coords, budget, draw(st.sampled_from([0.34, 0.5]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    instance=orienteering_instances(),
    data=st.data(),
    angle=st.floats(0.0, 2 * np.pi),
    shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    exponent=st.integers(-4, 4),
)
def test_orienteering_visits_are_invariant_under_relabelling_and_similarity(
    instance, data, angle, shift, exponent
):
    coords, budget, delta = instance
    n, d = coords.shape
    sol = solve_orienteering(OrienteeringInstance(PointSet(coords), 0, budget, delta))

    perm = np.array(data.draw(st.permutations(range(n))))  # new id i is old id perm[i]
    rotation = np.eye(d)
    rotation[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    moved = PointSet((coords[perm] @ rotation.T + np.array(shift[:d])) * 2.0**exponent)
    where = np.argsort(perm)  # old id i is new id where[i]
    scaled_budget = budget * 2.0**exponent
    moved_sol = solve_orienteering(OrienteeringInstance(moved, int(where[0]), scaled_budget, delta))

    assert moved_sol.visited == sol.visited
    assert moved_sol.length <= scaled_budget + moved.length_tolerance()


@st.composite
def budgets_on_an_optimal_length(draw):
    """Orienteering instances whose budget is the length of an optimal path."""
    n = draw(st.integers(3, 7))
    d = draw(st.sampled_from([1, 2, 3]))
    coords = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    _, path = brute_orienteering(coords, 0, draw(st.integers(0, 16)) / 4)
    budget = seq_length(distances(coords), path)
    return coords, budget, draw(st.sampled_from([0.2, 0.34, 0.5]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(instance=budgets_on_an_optimal_length())
def test_orienteering_keeps_its_guarantee_with_the_budget_on_an_optimal_length(instance):
    coords, budget, delta = instance
    points = PointSet(coords)
    sol = solve_orienteering(OrienteeringInstance(points, 0, budget, delta))

    k_opt, _ = brute_orienteering(coords, 0, budget)
    assert sol.visited >= math.ceil((1.0 - delta) * k_opt)
    assert sol.length <= budget + points.length_tolerance()
