import numpy as np
import pytest

from orienteer import PointSet, Path
from orienteer.geometry import rotate_to_axis
from orienteer.window_solver import ExactWindowSolver


def random_pointset(rng, n=None, d=2, n_range=(4, 10)):
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    return PointSet(rng.random((n, d)))


def random_path(rng, n=None, d=2, n_range=(4, 10)):
    """Random visit order over a fresh random point set."""
    pts = random_pointset(rng, n, d, n_range)
    order = rng.permutation(pts.n)
    return Path(pts, tuple(int(i) for i in order))


def random_rotated_path(rng, n=None, d=2, n_range=(4, 10)):
    """Random path re-expressed in the frame where its endpoints sit on the
    sweep axis with the source on the left."""
    path = random_path(rng, n, d, n_range)
    rotated, _ = rotate_to_axis(path.host, path.source, path.sink)
    return Path(rotated, path.visits)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class CallSpy(ExactWindowSolver):
    """The exact oracle, recording (method, point count, max_visits) of
    every request in ``calls``; the multi-slot requests, which take no
    ``max_visits``, record None."""

    def __init__(self):
        self.calls = []

    def solve_lengths(self, host, point_ids, endpoints):
        self.calls.append(("solve_lengths", len(point_ids), None))
        return super().solve_lengths(host, point_ids, endpoints)

    def solve_window(self, host, point_ids, endpoints, k):
        self.calls.append(("solve_window", len(point_ids), None))
        return super().solve_window(host, point_ids, endpoints, k)

    def single_slot_table(self, host, point_ids, max_visits=None):
        self.calls.append(("single_slot_table", len(point_ids), max_visits))
        return super().single_slot_table(host, point_ids, max_visits)

    def rooted_table(self, host, point_ids, root, max_visits=None):
        self.calls.append(("rooted_table", len(point_ids), max_visits))
        return super().rooted_table(host, point_ids, root, max_visits)


@pytest.fixture
def call_spy():
    return CallSpy()
