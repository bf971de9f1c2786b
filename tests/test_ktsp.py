import math

import numpy as np
import pytest

from orienteer import EndpointArrays, PointSet, solve_ktsp, window_solver
from orienteer.errors import DegenerateInputError, InfeasibleError, InputError
from orienteer.oracle import brute_ktsp, seq_length
from orienteer.paths import excess, path_length
from orienteer.windows import decompose_path
from orienteer.window_solver import ExactWindowSolver


def test_monotone_collinear_instance():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]])
    path, length = solve_ktsp(pts, 0, 3, 4)
    assert path.visits == (0, 1, 2, 3)
    assert length == pytest.approx(3.0, abs=1e-12)
    assert excess(path) == pytest.approx(0.0, abs=1e-12)


def test_point_left_of_source_forces_detour():
    pts = PointSet([[0.0, 0], [1.0, 0], [-1.0, 0]])
    path, length = solve_ktsp(pts, 0, 1, 3)
    assert path.visits == (0, 2, 1)
    assert length == pytest.approx(3.0, abs=1e-12)


def test_k_equals_two_is_direct_edge():
    pts = PointSet([[0.0, 0], [0.3, 0.9], [1.0, 0.2]])
    path, length = solve_ktsp(pts, 0, 2, 2)
    assert path.visits == (0, 2)
    assert length == pytest.approx(pts.distance(0, 2), abs=1e-12)


def test_input_validation():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0]])
    with pytest.raises(InfeasibleError):
        solve_ktsp(pts, 0, 1, 4)
    with pytest.raises(DegenerateInputError):
        solve_ktsp(pts, 1, 1, 2)
    with pytest.raises(InputError):
        solve_ktsp(pts, 0, 1, 1)
    with pytest.raises(InputError):
        solve_ktsp(pts, 0, 1, 3, delta=0.0)


def test_matches_brute_force(rng):
    # Exact window oracle makes the sweep exact; lengths must agree.
    for trial in range(50):
        n = int(rng.integers(4, 11))
        d = 2 if trial % 2 == 0 else 3
        pts = PointSet(rng.random((n, d)))
        k = int(rng.integers(3, n + 1))
        path, length = solve_ktsp(pts, 0, 1, k, delta=0.5)
        _, opt = brute_ktsp(pts, 0, 1, k)
        assert length == pytest.approx(opt, rel=1e-9)
        assert path.visits[0] == 0 and path.visits[-1] == 1
        assert len(set(path.visits)) >= k


def test_reported_length_recomputes_from_coordinates(rng):
    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = PointSet(rng.random((n, 2)))
        k = int(rng.integers(3, n + 1))
        path, length = solve_ktsp(pts, 0, 1, k)
        assert path_length(path) == pytest.approx(length, abs=1e-9)


def test_table_values_non_increasing_in_column(rng):
    # Fixing the path end and the visit count, letting the sweep advance one
    # more point can only add candidate decompositions.
    from orienteer.geometry import rotate_to_axis
    from orienteer.ktsp import WINDOW_ACCURACY_FRACTION, _fill_table

    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = PointSet(rng.random((n, 2)))
        k = int(rng.integers(3, n + 1))
        rotated, _ = rotate_to_axis(pts, 0, 1)
        solver = ExactWindowSolver()
        V, order, _ = _fill_table(rotated, solver, 0, k, WINDOW_ACCURACY_FRACTION * 0.5)
        for i in range(n - 1):
            later = V[i + 1, : i + 1, :]
            assert np.all(later <= V[i, : i + 1, :] + 1e-12)


def test_table_plumbs_quarter_delta_to_window_oracle(delta_spy):
    pts = PointSet([[0.0, 0], [0.5, 0.4], [1.0, 0]])
    solve_ktsp(pts, 0, 2, 3, delta=0.8, window_solver=delta_spy)
    assert delta_spy.seen == [("single_slot_table", 0.2)]


def test_optimal_path_window_chain_bounds_cost(rng):
    # Executable version of the correctness argument: stitch the brute-force
    # optimum's own windows, inflating each window cost by (1 + delta/4);
    # the result must stay within OPT + delta * excess.
    delta = 0.5
    for _ in range(20):
        n = int(rng.integers(5, 10))
        pts = PointSet(rng.random((n, 2)))
        k = int(rng.integers(3, n + 1))
        seq, opt = brute_ktsp(pts, 0, 1, k)
        from orienteer.geometry import rotate_to_axis
        from orienteer.paths import Path

        rotated, _ = rotate_to_axis(pts, 0, 1)
        star = Path(rotated, tuple(seq))
        deco = decompose_path(star)
        stitched = opt
        for w, (c, d) in zip(deco.windows, deco.entry_exit):
            sub_len = path_length(star.subpath(c, d))
            stitched += (delta / 4.0) * sub_len
        assert stitched <= opt + delta * excess(star) + 1e-9


def tie_heavy_points(rng, n, d):
    """Half-grid points of the unit cube with one interior point doubled, so
    sweep ties, coincident points and equal-length optima are common."""
    coords = rng.integers(0, 3, (n, d)) / 2.0
    coords[int(rng.integers(2, n))] = coords[int(rng.integers(2, n))]
    while np.array_equal(coords[0], coords[1]):
        coords[1] = rng.integers(0, 3, d) / 2.0
    return PointSet(coords)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matches_brute_force_on_tie_heavy_inputs(rng, d):
    for _ in range(40):
        n = int(rng.integers(3, 9))
        pts = tie_heavy_points(rng, n, d)
        k = int(rng.integers(2, n + 1))
        path, length = solve_ktsp(pts, 0, 1, k)
        _, opt = brute_ktsp(pts, 0, 1, k)
        assert length == pytest.approx(opt, rel=1e-9, abs=1e-12)
        assert path.visits[0] == 0 and path.visits[-1] == 1
        assert len(set(path.visits)) == len(path.visits) >= k


@pytest.mark.parametrize(
    "coords, k, visits",
    [
        ([[0.0], [1.0], [0.5], [0.5], [1.0], [0.0], [0.5]], 5, (0, 2, 3, 4, 1)),
        ([[0.0, 0.0], [0.5, 1.0], [1.0, 0.5], [0.0, 1.0], [0.0, 0.5], [0.0, 0.5]], 6,
         (0, 5, 4, 3, 2, 1)),
        (
            [[0.5, 0.5], [0.0, 1.0], [1.0, 0.5], [1.0, 0.5], [0.0, 1.0], [1.0, 1.0], [1.0, 0.5]],
            7,
            (0, 2, 3, 6, 5, 4, 1),
        ),
        (
            [[0.0, 1.0, 0.0], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0], [1.0, 0.5, 0.5],
             [0.5, 0.5, 1.0], [1.0, 0.5, 0.0], [1.0, 0.0, 0.0]],
            7,
            (0, 4, 2, 3, 6, 5, 1),
        ),
    ],
)
def test_tie_order_picks_a_fixed_optimum(coords, k, visits):
    # Each instance has several optimal paths.  Among equal candidates the
    # sweep keeps the first in (prefix column, window entry, window visit
    # count) order, and each bridge the first prefix end d', which yields
    # exactly these visits.
    path, _ = solve_ktsp(PointSet(coords), 0, 1, k)
    assert path.visits == visits


@pytest.mark.parametrize("one_start_per_chunk", [False, True])
def test_table_path_is_the_window_oracle_path_tie_for_tie(rng, monkeypatch, one_start_per_chunk):
    # With one start per chunk, every start but the last takes the path
    # request's rerun of the pass.
    if one_start_per_chunk:
        monkeypatch.setattr(window_solver, "TABLE_BYTES", 1)
    solver = ExactWindowSolver()
    checked = 0
    for n, d in [(3, 1), (4, 2), (5, 3), (6, 1), (7, 2), (8, 3)]:
        pts = tie_heavy_points(rng, n, d)
        table = solver.single_slot_table(pts, range(n))
        for lo in range(n):
            for hi in range(lo, n):
                run = table.run(lo, hi)
                for c in range(lo, hi + 1):
                    for e in range(lo, hi + 1):
                        ends = EndpointArrays((table.pts[c],), (table.pts[e],))
                        for k in range(1, hi - lo + 2):
                            entry = run[k, e - lo, c - lo]
                            if not math.isfinite(entry):
                                continue
                            visits = table.path(lo, hi, c, e, k)
                            oracle = solver.solve_window(pts, table.pts[lo : hi + 1], ends, k)
                            assert visits == oracle.paths[0].visits
                            assert seq_length(pts.distance_matrix(), visits) == entry
                            checked += 1
    assert checked > 1000


class CountingWindowSolver(ExactWindowSolver):
    """The exact oracle, counting table requests and per-window solves."""

    def __init__(self):
        super().__init__()
        self.tables = self.windows = 0

    def single_slot_table(self, *args, **kwargs):
        self.tables += 1
        return super().single_slot_table(*args, **kwargs)

    def solve_window(self, *args, **kwargs):
        self.windows += 1
        return super().solve_window(*args, **kwargs)


def test_a_solve_makes_one_table_request_and_no_window_solve():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        pts = PointSet(rng.random((n, 1 + seed % 3)))
        solver = CountingWindowSolver()
        solve_ktsp(pts, 0, 1, int(rng.integers(2, n + 1)), window_solver=solver)
        assert (solver.tables, solver.windows) == (1, 0), seed
