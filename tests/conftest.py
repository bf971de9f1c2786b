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


class DeltaPrimeSpy(ExactWindowSolver):
    """The exact oracle, recording (method, delta_prime) of every call."""

    def __init__(self):
        self.seen = []

    def solve_lengths(self, host, point_ids, endpoints, delta_prime=0.0):
        self.seen.append(("solve_lengths", delta_prime))
        return super().solve_lengths(host, point_ids, endpoints, delta_prime)

    def solve_window(self, host, point_ids, endpoints, k, delta_prime=0.0):
        self.seen.append(("solve_window", delta_prime))
        return super().solve_window(host, point_ids, endpoints, k, delta_prime)

    def single_slot_table(self, host, point_ids, delta_prime=0.0):
        self.seen.append(("single_slot_table", delta_prime))
        return super().single_slot_table(host, point_ids, delta_prime)


@pytest.fixture
def delta_spy():
    return DeltaPrimeSpy()
