import math

import numpy as np
import pytest

from orienteer import InputError, Path, PointSet, angle_to_axis, dist, excess, oracle, path_length, rotate_to_axis
from orienteer.errors import DegenerateInputError


def test_dist_345():
    assert dist((0, 0), (3, 4)) == pytest.approx(5.0, abs=0)


def test_dist_identity():
    assert dist((2.5, -1.0), (2.5, -1.0)) == 0.0


def test_dist_diagonal_3d():
    assert dist((1, 1, 1), (2, 2, 2)) == pytest.approx(math.sqrt(3), abs=1e-12)


def test_dist_dimension_mismatch():
    with pytest.raises(InputError):
        dist((0, 0), (0, 0, 0))


def test_angle_to_axis_cardinal():
    assert angle_to_axis((1, 0)) == pytest.approx(0.0, abs=0)
    assert angle_to_axis((0, 1)) == pytest.approx(math.pi / 2, abs=1e-15)
    assert angle_to_axis((-1, 0)) == pytest.approx(math.pi, abs=1e-15)


def test_angle_to_axis_zero_vector():
    with pytest.raises(InputError):
        angle_to_axis((0.0, 0.0))


def test_rotate_vertical_pair_lands_on_axis():
    pts = PointSet([[0, 0], [0, 5]])
    rotated, _ = rotate_to_axis(pts, 0, 1)
    assert rotated.coords[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert rotated.coords[1] == pytest.approx([5.0, 0.0], abs=1e-12)


def test_rotate_already_on_axis_is_identity():
    pts = PointSet([[0, 0], [1, 0], [0.3, 0.7]])
    rotated, tf = rotate_to_axis(pts, 0, 1)
    assert np.allclose(tf.rotation, np.eye(2))
    assert np.allclose(tf.shift, 0.0)
    assert np.allclose(rotated.coords, pts.coords)


def test_rotate_degenerate_pair_rejected():
    pts = PointSet([[1, 1], [1, 1]])
    with pytest.raises(DegenerateInputError):
        rotate_to_axis(pts, 0, 1)


def test_rotate_a_pair_one_subnormal_apart():
    # The difference's square underflows to 0, yet the pair is distinct.
    tiny = float(np.nextafter(0.0, 1.0))
    pts = PointSet([[0.0, 0.0], [0.0, tiny], [1.0, 0.5]])
    rotated, tf = rotate_to_axis(pts, 0, 1)
    assert np.allclose(tf.rotation @ tf.rotation.T, np.eye(2), atol=0)
    assert rotated.coords[1, 0] > rotated.coords[0, 0]
    assert rotated.coords[1, 1] == rotated.coords[0, 1]


def test_distances_of_a_pair_one_subnormal_apart():
    # np.linalg.norm reads 0.0 here; np.hypot does not underflow.
    pts = PointSet([[0, 0], [5e-324, 0], [1, 0], [2, 0.5]])
    dmat = pts.distance_matrix()
    assert pts.distance(0, 1) == dmat[0, 1] == dmat[1, 0] == np.hypot(5e-324, 0) == 5e-324
    assert dist((0, 0), (5e-324, 0)) == 5e-324
    assert np.array_equal(oracle.distances(pts.coords), dmat)
    assert path_length(Path(pts, (0, 1))) == 5e-324
    assert excess(Path(pts, (0, 1, 2))) == 0.0
    # A pair 1e-160 apart on both axes: its squares are subnormal.
    small = PointSet([[0, 0, 0], [1e-160, -1e-160, 0]])
    assert small.distance(0, 1) == pytest.approx(np.hypot(1e-160, 1e-160), rel=1e-15)
    assert small.distance_matrix()[0, 1] == small.distance(0, 1)
    # Every pair that is not tiny keeps np.linalg.norm's value, bit for bit.
    rng = np.random.default_rng(0)
    for coords in (pts.coords, rng.random((9, 3)), rng.integers(0, 3, (9, 2)) / 2.0):
        mixed = PointSet(coords)
        plain = np.linalg.norm(coords[:, None] - coords[None], axis=2)
        keep = np.abs(coords[:, None] - coords[None]).max(axis=2) >= 1e-150
        assert np.array_equal(mixed.distance_matrix()[keep], plain[keep])
        steps = np.diff(coords, axis=0)
        scale = np.abs(steps).max(axis=1)
        if not ((0 < scale) & (scale < 1e-150)).any():
            edges = np.linalg.norm(steps, axis=1)
            assert path_length(Path(mixed, tuple(range(len(coords))))) == float(edges.sum())
        assert all(
            mixed.distance(i, j) == np.linalg.norm(coords[i] - coords[j])
            for i in range(len(coords)) for j in range(len(coords)) if keep[i, j]
        )


def test_rotate_preserves_distances_3d(rng):
    # Rigid motion: compare full distance matrices before and after.
    for _ in range(25):
        pts = PointSet(rng.random((3, 3)) * 10 - 5)
        rotated, tf = rotate_to_axis(pts, 0, 2)
        before = pts.distance_matrix()
        after = rotated.distance_matrix()
        assert np.allclose(after, before, rtol=1e-12, atol=1e-12)
        # endpoints share all non-sweep coordinates, source left of sink
        assert np.allclose(rotated.coords[0][1:], rotated.coords[2][1:], atol=1e-9)
        assert rotated.coords[0][0] < rotated.coords[2][0]
        # inverse transform restores the original coordinates
        assert np.allclose(tf.apply_inverse(rotated.coords), pts.coords, atol=1e-9)


def test_sweep_order_is_a_strict_total_order_under_ties():
    # Identical x, identical full coordinates: ids break the tie.
    pts = PointSet([[1.0, 2.0], [1.0, 1.0], [1.0, 2.0], [0.5, 9.0]])
    order = list(pts.sweep_order)
    assert order == [3, 1, 0, 2]
    ranks = pts.ranks
    assert sorted(ranks) == [0, 1, 2, 3]
    assert pts.sweep_before(1, 0) and pts.sweep_before(0, 2)


def test_pointset_rejects_nonfinite():
    with pytest.raises(InputError):
        PointSet([[0.0, float("nan")]])


def test_distance_matrix_is_computed_once_and_read_only(rng):
    pts = PointSet(rng.random((7, 3)))
    dmat = pts.distance_matrix()
    assert pts.distance_matrix() is dmat
    assert not dmat.flags.writeable
    assert np.array_equal(dmat, np.linalg.norm(pts.coords[:, None] - pts.coords[None], axis=2))
    moved, _ = rotate_to_axis(pts, 0, 1)
    moved_dmat = moved.distance_matrix()
    assert moved_dmat is not dmat and moved.distance_matrix() is moved_dmat
    assert np.array_equal(
        moved_dmat, np.linalg.norm(moved.coords[:, None] - moved.coords[None], axis=2)
    )
