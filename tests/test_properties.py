"""Property tests: answers do not depend on the frame or on the labels,
hold their guarantee on a budget that sits exactly on an optimal length, and
equal brute force at d = 1, at k = n and on points a few ulps apart."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orienteer import PointSet, solve_ktsp, solve_mktsp
from orienteer.oracle import brute_ktsp, brute_mktsp, brute_orienteering, distances, seq_length
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


def nudge(value: float, ulps: int) -> float:
    """`value` moved `ulps` representable floats up (or down, if negative)."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
    return value


#: ``coordinate`` moved up to two ulps either way, so besides ties and
#: coincident points, points a few ulps apart are common.
near_coordinate = st.tuples(coordinate, st.integers(-2, 2)).map(lambda c: nudge(*c))


@st.composite
def near_points(draw, n, d):
    return np.array(draw(st.lists(st.lists(near_coordinate, min_size=d, max_size=d),
                                  min_size=n, max_size=n)))


@pytest.mark.parametrize("case", ["d = 1", "k = n"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_ktsp_equals_brute_force_at_d_1_and_at_k_n(case, data):
    n = data.draw(st.integers(3, 7))
    d = 1 if case == "d = 1" else data.draw(st.integers(2, 3))
    coords = data.draw(near_points(n, d))
    assume(not np.array_equal(coords[0], coords[1]))
    k = data.draw(st.integers(2, n)) if case == "d = 1" else n
    path, length = solve_ktsp(PointSet(coords), 0, 1, k)

    _, opt = brute_ktsp(coords, 0, 1, k)
    assert length == pytest.approx(opt, rel=1e-9, abs=1e-12)
    assert (path.visits[0], path.visits[-1]) == (0, 1)
    assert len(path.visits) >= k


@pytest.mark.parametrize("case", ["d = 1", "k = n"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_mktsp_equals_brute_force_at_d_1_and_at_k_n(case, data):
    m = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(2 * m, 7))
    d = 1 if case == "d = 1" else data.draw(st.integers(2, 3))
    coords = data.draw(near_points(n, d))
    pairs = [(2 * l, 2 * l + 1) for l in range(m)]
    k = data.draw(st.integers(2 * m, n)) if case == "d = 1" else n
    multi, total = solve_mktsp(PointSet(coords), pairs, k)

    _, opt = brute_mktsp(coords, pairs, k)
    assert total == pytest.approx(opt, rel=1e-9, abs=1e-12)
    assert [(p.visits[0], p.visits[-1]) for p in multi.paths] == pairs
    assert len(multi.visited_ids()) >= k


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    # Under the project's warning filters, a failing hypothesis test fails
    # alone: the run goes on and reports every test.
    (tmp_path / "test_guard.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider",
         "-q", "test_guard.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
