import math

import numpy as np
import pytest

from orienteer import EndpointArrays, PointSet, solve_ktsp, window_solver
from orienteer.errors import (
    CapacityError,
    ConsistencyError,
    DegenerateInputError,
    InfeasibleError,
    InputError,
)
from orienteer.generate import DISTRIBUTIONS, generate
from orienteer.geometry import rotate_to_axis
from orienteer.ktsp import _sweep_ktsp
from orienteer.oracle import brute_ktsp, seq_length
from orienteer.paths import excess, path_length
from orienteer.windows import decompose_path
from orienteer.window_solver import DEFAULT_POINT_CAP, ExactWindowSolver


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


def test_coincident_endpoints_are_solved_in_the_given_frame():
    # Distinct ids at the same coordinates have no direction to rotate onto
    # the sweep axis, so the read and the sweep keep the given frame; both
    # give the enumerated optimum in either id order.  One id as both ends
    # is still degenerate.
    pts = PointSet([[0.0, 0], [1.0, 0], [0.5, 0.5], [0.0, 0]])
    path, length = solve_ktsp(pts, 0, 3, 3)
    assert path.visits == (0, 2, 3) and length == brute_ktsp(pts, 0, 3, 3)[1]
    with pytest.raises(DegenerateInputError):
        solve_ktsp(pts, 3, 3, 2)
    checked = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        if seed % 2:
            coords = rng.random((n, 2))
        else:
            coords = rng.integers(0, 3, (n, 1 + seed % 3)) / 2.0  # ties, d = 1-3
        a, b = (int(i) for i in rng.choice(n, 2, replace=False))
        coords[b] = coords[a]
        pts = PointSet(coords)
        k = int(rng.integers(2, n + 1))
        for s, t in ((a, b), (b, a)):
            _, opt = brute_ktsp(pts, s, t, k)
            for solve in (solve_ktsp, _sweep_ktsp):
                path, length = solve(pts, s, t, k)
                assert (path.visits[0], path.visits[-1], len(set(path.visits))) == (s, t, k)
                assert length == pytest.approx(opt, rel=1e-9, abs=1e-12), (seed, s, t)
            checked += 1
    assert checked == 120


def test_over_the_point_cap_a_solve_raises():
    # The whole set is the one window a solve reads, so one point over the
    # oracle's cap raises CapacityError, at a small k too.
    pts = PointSet(np.random.default_rng(3).random((DEFAULT_POINT_CAP + 1, 2)))
    for k in (2, DEFAULT_POINT_CAP // 2):
        with pytest.raises(CapacityError):
            solve_ktsp(pts, 0, DEFAULT_POINT_CAP, k)


def test_matches_brute_force(rng):
    # The whole set is one exact window; lengths must agree.
    for trial in range(50):
        n = int(rng.integers(4, 11))
        d = 2 if trial % 2 == 0 else 3
        pts = PointSet(rng.random((n, d)))
        k = int(rng.integers(3, n + 1))
        path, length = solve_ktsp(pts, 0, 1, k)
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
    from orienteer.ktsp import _fill_table

    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = PointSet(rng.random((n, 2)))
        k = int(rng.integers(3, n + 1))
        rotated, _ = rotate_to_axis(pts, 0, 1)
        solver = ExactWindowSolver()
        V = _fill_table(rotated, solver, 0, k)[0]
        for i in range(n - 1):
            later = V[i + 1, : i + 1, :]
            assert np.all(later <= V[i, : i + 1, :] + 1e-12)


def test_the_sweep_asks_for_a_rooted_and_a_window_table_stopped_at_k(call_spy):
    # A rooted table over every point and a window table over the two right
    # of the source; the sweep reads no count above k, so both passes may
    # stop there.
    pts = PointSet([[0.0, 0], [0.5, 0.4], [1.0, 0]])
    _sweep_ktsp(pts, 0, 2, 3, window_solver=call_spy)
    assert call_spy.calls == [("rooted_table", 3, 3), ("single_slot_table", 2, 3)]


def test_a_solve_asks_for_one_whole_set_window_table(call_spy):
    # A solve's answer is the one-window candidate, which the exact oracle
    # makes optimal: one window table over every point, stopped at k, and no
    # rooted table or window solve.
    pts = PointSet([[0.0, 0], [0.5, 0.4], [1.0, 0]])
    solve_ktsp(pts, 0, 2, 3, window_solver=call_spy)
    assert call_spy.calls == [("single_slot_table", 3, 3)]


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


TIE_CASES = [
    [[0.0], [1.0], [0.5], [0.5], [1.0], [0.0], [0.5]],
    [[0.0, 0.0], [0.5, 1.0], [1.0, 0.5], [0.0, 1.0], [0.0, 0.5], [0.0, 0.5]],
    [[0.5, 0.5], [0.0, 1.0], [1.0, 0.5], [1.0, 0.5], [0.0, 1.0], [1.0, 1.0], [1.0, 0.5]],
    [[0.0, 1.0, 0.0], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0], [1.0, 0.5, 0.5],
     [0.5, 0.5, 1.0], [1.0, 0.5, 0.0], [1.0, 0.0, 0.0]],
]


@pytest.mark.parametrize(
    "coords, k, visits",
    [
        (TIE_CASES[0], 5, (0, 2, 3, 4, 1)),
        (TIE_CASES[1], 6, (0, 5, 4, 3, 2, 1)),
        (TIE_CASES[2], 7, (0, 2, 3, 6, 5, 4, 1)),
        (TIE_CASES[3], 7, (0, 4, 2, 3, 6, 5, 1)),
    ],
)
def test_tie_order_picks_a_fixed_optimum(coords, k, visits):
    # Each instance has several optimal paths.  Among equal candidates the
    # sweep keeps the first in (prefix column, window entry, window visit
    # count) order, and each bridge the first prefix end d', which yields
    # exactly these visits.
    path, _ = _sweep_ktsp(PointSet(coords), 0, 1, k)
    assert path.visits == visits


@pytest.mark.parametrize(
    "coords, k, visits, length",
    [
        (TIE_CASES[0], 5, (0, 2, 3, 4, 1), 1.0),
        (TIE_CASES[1], 6, (0, 4, 5, 3, 2, 1), 2.8251407699364424),
        (TIE_CASES[2], 7, (0, 2, 3, 6, 5, 4, 1), 2.0),
        (TIE_CASES[3], 7, (0, 2, 4, 3, 6, 5, 1), 3.8460652149512313),
    ],
)
def test_the_one_window_read_picks_a_fixed_optimum_of_the_sweeps_length(
    coords, k, visits, length
):
    # A solve's one-window read breaks ties inside its one window as the
    # rooted walk does, so two of the sweep's optima above move to another
    # order of coincident points, with the same length bits.
    pts = PointSet(coords)
    path, got = solve_ktsp(pts, 0, 1, k)
    assert (path.visits, got) == (visits, length)
    assert _sweep_ktsp(pts, 0, 1, k)[1] == length


@pytest.mark.parametrize("no_room", [False, True])
def test_table_path_is_the_window_oracle_path_tie_for_tie(rng, monkeypatch, no_room):
    # Every path request reads its path from a rooted pass over its run,
    # started at the path's start.  With no room (a one-byte chunk ceiling)
    # the build and each rooted pass step over chunks of one set each.
    if no_room:
        monkeypatch.setattr(window_solver, "CHUNK_BYTES", 1)
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rooted_table_is_the_window_table_at_its_root(rng, d):
    # The rooted table's fold over prefixes gives the window table's numbers,
    # folded over runs, at the root's start column for every prefix, bit for
    # bit, and its kept layers give the same paths tie for tie over every
    # prefix; tie-heavy points include a coincident pair.  A table asked for
    # fewer visits holds the leading counts and paths of the whole one, and
    # refuses a path over more.
    solver = ExactWindowSolver()
    checked = 0
    for n in (1, 2, 5, 7, 9):
        pts = tie_heavy_points(rng, n, d) if n > 2 else PointSet(rng.random((n, d)))
        table = solver.single_slot_table(pts, range(n))
        for root in range(n):
            r = table.pts.index(root)
            paths = {
                (hi, e, k): table.path(0, hi, r, e, k)
                for hi in range(r, n)
                for e in range(hi + 1)
                for k in range(1, hi + 2)
            }
            for max_visits in (None, 1, 2, -(-n // 2), n):
                top = n if max_visits is None else max_visits
                rooted = solver.rooted_table(pts, range(n), root, max_visits=max_visits)
                assert (rooted.pts, rooted.root) == (table.pts, r)
                assert all(np.isinf(rooted.run(hi)).all() for hi in range(r))
                for hi in range(r, n):
                    whole = table.run(0, hi)[: top + 1, :, r]
                    assert np.array_equal(rooted.run(hi), whole), (n, root, max_visits, hi)
                got = {query: rooted.path(*query) for query in paths if query[2] <= top}
                assert got == {query: paths[query] for query in got}, (n, root, max_visits)
                checked += sum(visits is not None for visits in got.values())
                if top < n:
                    with pytest.raises(InputError):
                        rooted.path(n - 1, (r + 1) % n, top + 1)
    assert checked > 2000, checked


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_one_window_read_is_the_sweep_over_the_same_tables(d, distribution):
    # With the exact oracle, a solve's one-window read and the full sweep
    # over the same tables give the same visits and the same length bits.
    # On a line every monotone path over the same points is as long as any
    # other, so at d = 1 the two may take different optima, whose sums
    # differ only in rounding (seed 4, n = 9, k = 5, collinear-jitter:
    # 0.8135686133709301 and ...302).
    compared = 0
    for n in range(3, 13):
        for seed in (1, 2, 3):
            inst = generate(seed=seed, n=n, d=d, distribution=distribution, kind="ktsp")
            pts = inst.point_set()
            for k in {inst.k, max(2, n - 2)}:
                read = solve_ktsp(pts, inst.source, inst.sink, k)
                sweep = _sweep_ktsp(pts, inst.source, inst.sink, k)
                if d == 1:
                    assert abs(read[1] - sweep[1]) <= pts.length_tolerance(), (n, seed, k)
                else:
                    assert (read[0].visits, read[1]) == (sweep[0].visits, sweep[1]), (n, seed, k)
                compared += 1
    assert compared > 50


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_one_window_read_has_the_sweeps_length_on_tie_heavy_inputs(rng, d):
    # Ties may send the two to different optima, but never to different
    # lengths, and both are the enumerated optimum.
    for _ in range(40):
        n = int(rng.integers(3, 10))
        pts = tie_heavy_points(rng, n, d)
        k = int(rng.integers(2, n + 1))
        _, read = solve_ktsp(pts, 0, 1, k)
        _, sweep = _sweep_ktsp(pts, 0, 1, k)
        assert read == sweep
        assert read == pytest.approx(brute_ktsp(pts, 0, 1, k)[1], rel=1e-9, abs=1e-12)


class CountingWindowSolver(ExactWindowSolver):
    """The exact oracle, counting table requests and per-window solves and
    keeping the last window table."""

    def __init__(self):
        super().__init__()
        self.rooted = self.tables = self.windows = 0
        self.table = None

    def rooted_table(self, *args, **kwargs):
        self.rooted += 1
        return super().rooted_table(*args, **kwargs)

    def single_slot_table(self, *args, **kwargs):
        self.tables += 1
        self.table = super().single_slot_table(*args, **kwargs)
        return self.table

    def solve_window(self, *args, **kwargs):
        self.windows += 1
        return super().solve_window(*args, **kwargs)


def test_a_solve_makes_one_request_of_each_table_and_no_window_solve():
    # A sweep asks for each table once.  Its window table holds exactly the
    # points right of the source, so the first window is the rooted table's
    # alone.  A solve asks for one window table, over every point, and reads
    # one path from it, so the table never makes its per-run passes.
    left_of_source = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        pts = PointSet(rng.random((n, 1 + seed % 3)))
        k = int(rng.integers(2, n + 1))
        solver = CountingWindowSolver()
        _sweep_ktsp(pts, 0, 1, k, window_solver=solver)
        assert (solver.rooted, solver.tables, solver.windows) == (1, 1, 0), seed
        order = rotate_to_axis(pts, 0, 1)[0].sweep_order.tolist()
        r_s = order.index(0)
        assert solver.table.pts == tuple(order[r_s + 1 :]), seed
        assert len(solver.table.pts) == n - r_s - 1
        left_of_source += r_s > 0
        solver = CountingWindowSolver()
        solve_ktsp(pts, 0, 1, k, window_solver=solver)
        assert (solver.rooted, solver.tables, solver.windows) == (0, 1, 0), seed
        assert solver.table.pts == tuple(order), seed
        assert "_ranges" not in vars(solver.table), seed
    assert 0 < left_of_source < 20


class SwappedTable:
    """An exact table behind the two methods the sweep reads."""

    def __init__(self, table):
        self.table = table

    def run(self, *span):
        return self.table.run(*span)

    def path(self, *query):
        return self.table.path(*query)


class NoPathTable(SwappedTable):
    """Lengths ten units short, so that a window right of the source
    undercuts the rooted lengths and is read back, and no path to read."""

    def run(self, *span):
        return self.table.run(*span) - 10.0

    def path(self, *query):
        return None


class DriftingTable(SwappedTable):
    """Each read of ``run`` takes one more unit off every length, so that a
    window right of the source undercuts the rooted lengths, and no read
    after the fill reproduces the lengths the fill saw."""

    reads = 0

    def run(self, *span):
        self.reads += 1
        return self.table.run(*span) - self.reads


class NoEntryTable(SwappedTable):
    """No finite length anywhere and no path to read back, so the sweep
    finds no entry for an instance the input checks call feasible."""

    def run(self, *span):
        return np.full_like(self.table.run(*span), math.inf)

    def path(self, *query):
        return None


class WrongPathTable(SwappedTable):
    """The exact lengths, and a path that is not one a k-TSP solve asked
    for: it ends short of the sink, misses a point, or repeats one."""

    def __init__(self, table, wrong):
        super().__init__(table)
        self.wrong = wrong

    def path(self, *query):
        visits = self.table.path(*query)
        return {"short": visits[:-1], "missing": visits[:1] + visits[2:],
                "repeated": visits[:1] + visits[:-1]}[self.wrong]


class SwappedTableSolver(ExactWindowSolver):
    """The exact oracle with its rooted and window tables wrapped."""

    def __init__(self, rooted_type=SwappedTable, table_type=SwappedTable):
        super().__init__()
        self.rooted_type, self.table_type = rooted_type, table_type

    def rooted_table(self, *args, **kwargs):
        return self.rooted_type(super().rooted_table(*args, **kwargs))

    def single_slot_table(self, *args, **kwargs):
        return self.table_type(super().single_slot_table(*args, **kwargs))


@pytest.mark.parametrize("table_type", [NoPathTable, DriftingTable])
def test_a_read_back_that_disagrees_with_the_lengths_is_a_consistency_error(rng, table_type):
    # Every walk back ends at a first window read from the rooted table, and
    # reads a window right of the source only when it won the fill.
    pts = PointSet(rng.random((6, 2)))
    assert _sweep_ktsp(pts, 0, 1, 4, window_solver=SwappedTableSolver())
    for solver in (SwappedTableSolver(rooted_type=table_type),
                   SwappedTableSolver(table_type=table_type)):
        with pytest.raises(ConsistencyError):
            _sweep_ktsp(pts, 0, 1, 4, window_solver=solver)


def test_a_table_with_no_entry_for_a_feasible_instance_is_a_consistency_error(rng):
    # The input checks guarantee a path, so finding none is the oracle's
    # fault, not the instance's: ConsistencyError (exit 1), not
    # InfeasibleError (exit 3).
    pts = PointSet(rng.random((6, 2)))
    solver = SwappedTableSolver(rooted_type=NoEntryTable, table_type=NoEntryTable)
    with pytest.raises(ConsistencyError, match="no feasible entry"):
        _sweep_ktsp(pts, 0, 1, 4, window_solver=solver)


@pytest.mark.parametrize("table_type", [NoPathTable, NoEntryTable])
def test_a_whole_set_table_with_no_path_is_a_consistency_error(rng, table_type):
    # A solve's answer is one path read from its window table; a table that
    # has no path for a feasible instance is the oracle's fault, not the
    # instance's.
    pts = PointSet(rng.random((6, 2)))
    assert solve_ktsp(pts, 0, 1, 4, window_solver=SwappedTableSolver())
    solver = SwappedTableSolver(table_type=table_type)
    with pytest.raises(ConsistencyError, match="no feasible entry"):
        solve_ktsp(pts, 0, 1, 4, window_solver=solver)


@pytest.mark.parametrize("wrong", ["short", "missing", "repeated"])
def test_a_read_back_that_is_not_a_k_point_path_to_the_sink_is_a_consistency_error(rng, wrong):
    # The one read of a solve is checked: from the source, to the sink, over
    # k distinct points.  The sweep's own read-back is checked the same way.
    pts = PointSet(rng.random((6, 2)))
    solver = SwappedTableSolver(table_type=lambda table: WrongPathTable(table, wrong))
    with pytest.raises(ConsistencyError, match="not a 0 -> 1 path over 4 distinct points"):
        solve_ktsp(pts, 0, 1, 4, window_solver=solver)
    solver = SwappedTableSolver(rooted_type=lambda table: WrongPathTable(table, wrong))
    with pytest.raises(ConsistencyError, match="not a 0 -> 1 path over 4 distinct points"):
        _sweep_ktsp(pts, 0, 1, 4, window_solver=solver)
