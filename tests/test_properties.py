"""Property tests: answers do not depend on the frame or on the labels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orienteer import PointSet, solve_ktsp, solve_mktsp

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
