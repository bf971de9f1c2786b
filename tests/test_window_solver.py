import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from orienteer import (
    EndpointArrays,
    ExactWindowSolver,
    PointSet,
    solve_ktsp,
    solve_mktsp,
    window_solver,
)
from orienteer.errors import CapacityError, InputError
from orienteer.generate import DISTRIBUTIONS, generate
from orienteer.ktsp import _sweep_ktsp
from orienteer.mktsp import _sweep_mktsp
from orienteer.oracle import brute_ktsp, brute_mktsp
from orienteer.orienteering import OrienteeringInstance, solve_orienteering
from orienteer.paths import path_length


@pytest.fixture
def solver():
    return ExactWindowSolver()


def test_two_point_slot_is_direct(solver):
    pts = PointSet([[0.0, 0.0], [3.0, 4.0]])
    sol = solver.solve_window(pts, [0, 1], EndpointArrays((0,), (1,)), 2)
    assert sol.total_length == pytest.approx(5.0, abs=0)
    assert sol.paths[0].visits == (0, 1)
    assert sol.visited_count == 2


def test_degenerate_slot_single_point(solver):
    pts = PointSet([[0.5, 0.5], [1.0, 1.0]])
    sol = solver.solve_window(pts, [0], EndpointArrays((0,), (0,)), 1)
    assert sol.total_length == 0.0
    assert sol.paths[0].visits == (0,)


def test_unit_square_all_corners(solver):
    # Best 4-visit path between opposite corners: straight edge, then the
    # far side of the square; both interior orders tie at 2 + sqrt(2).
    pts = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
    _, oracle_len = brute_ktsp(pts, 0, 2, 4)
    sol = solver.solve_window(pts, [0, 1, 2, 3], EndpointArrays((0,), (2,)), 4)
    assert oracle_len == pytest.approx(2 + math.sqrt(2), abs=1e-12)
    assert sol.total_length == pytest.approx(oracle_len, abs=1e-12)
    assert path_length(sol.paths[0]) == pytest.approx(sol.total_length, abs=1e-9)


def test_half_null_slot_is_infeasible(solver):
    pts = PointSet([[0, 0], [1, 0]])
    sol = solver.solve_window(pts, [0, 1], EndpointArrays((0, None), (1, 0)), 2)
    assert not sol.feasible


def test_idle_slots_are_ignored(solver):
    pts = PointSet([[0, 0], [1, 0]])
    ends = EndpointArrays((None, 0), (None, 1))
    sol = solver.solve_window(pts, [0, 1], ends, 2)
    assert sol.feasible
    assert sol.paths[0] is None
    assert sol.paths[1].visits == (0, 1)


def test_infeasible_counts(solver):
    pts = PointSet([[0, 0], [1, 0], [2, 0]])
    ends = EndpointArrays((0,), (1,))
    assert not solver.solve_window(pts, [0, 1, 2], ends, 4).feasible  # k > |points|
    assert not solver.solve_window(pts, [0, 1, 2], ends, 1).feasible  # k < endpoints


def test_endpoint_outside_window_rejected(solver):
    pts = PointSet([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(InputError):
        solver.solve_window(pts, [0, 1], EndpointArrays((0,), (2,)), 2)


class FivePointSolver(ExactWindowSolver):
    point_cap = 5


def test_point_cap_enforced():
    pts = PointSet(np.random.default_rng(0).random((6, 2)))
    assert ExactWindowSolver.point_cap == window_solver.DEFAULT_POINT_CAP
    small = FivePointSolver()
    with pytest.raises(CapacityError):
        small.solve_window(pts, list(range(6)), EndpointArrays((0,), (1,)), 3)


def test_matches_enumeration_single_slot(rng, solver):
    for _ in range(30):
        n = int(rng.integers(4, 9))
        pts = PointSet(rng.random((n, 2)))
        k = int(rng.integers(2, n + 1))
        sol = solver.solve_window(pts, list(range(n)), EndpointArrays((0,), (1,)), k)
        _, expected = brute_ktsp(pts, 0, 1, k)
        assert sol.total_length == pytest.approx(expected, rel=1e-12)
        assert sol.visited_count == k
        assert len(set(sol.paths[0].visits)) == k


def test_matches_enumeration_two_slots(rng, solver):
    for _ in range(20):
        n = int(rng.integers(5, 9))
        pts = PointSet(rng.random((n, 2)))
        ids = [int(i) for i in rng.permutation(n)]
        pairs = [(ids[0], ids[1]), (ids[2], ids[3])]
        k = int(rng.integers(4, n + 1))
        ends = EndpointArrays((pairs[0][0], pairs[1][0]), (pairs[0][1], pairs[1][1]))
        sol = solver.solve_window(pts, list(range(n)), ends, k)
        _, expected = brute_mktsp(pts, pairs, k)
        assert sol.total_length == pytest.approx(expected, rel=1e-12)
        total = sum(path_length(p) for p in sol.paths if p is not None)
        assert total == pytest.approx(sol.total_length, abs=1e-9)


def test_shared_junction_endpoints(rng, solver):
    # Chained prescriptions (a -> b, b -> c) share the junction point b.
    for _ in range(10):
        n = int(rng.integers(5, 8))
        pts = PointSet(rng.random((n, 2)))
        a, b, c = (int(i) for i in rng.permutation(n)[:3])
        ends = EndpointArrays((a, b), (b, c))
        k = int(rng.integers(3, n + 1))
        sol = solver.solve_window(pts, list(range(n)), ends, k)
        _, expected = brute_mktsp(pts, [(a, b), (b, c)], k)
        assert sol.total_length == pytest.approx(expected, rel=1e-12)


def test_monotone_in_k(rng, solver):
    # Visiting more points never shortens the optimum.
    for _ in range(10):
        n = int(rng.integers(4, 9))
        pts = PointSet(rng.random((n, 2)))
        lengths = solver.solve_lengths(pts, list(range(n)), EndpointArrays((0,), (1,)))
        ks = sorted(lengths)
        for a, b in zip(ks, ks[1:]):
            assert lengths[b] >= lengths[a] - 1e-12


def test_single_slot_excess_nonnegative(rng, solver):
    for _ in range(10):
        n = int(rng.integers(3, 8))
        pts = PointSet(rng.random((n, 2)))
        sol = solver.solve_window(pts, list(range(n)), EndpointArrays((0,), (1,)), n)
        assert sol.total_length >= pts.distance(0, 1) - 1e-12


def table_length(table, c, d, k):
    """Optimal c -> d path over exactly k of a whole table's points, by id."""
    where = {p: r for r, p in enumerate(table.pts)}
    return float(table.run(0, len(table.pts) - 1)[k, where[d], where[c]])


def test_batched_table_agrees_with_per_query(rng, solver):
    # The dense all-pairs table and the per-query solver are two routes to
    # the same exact numbers.
    for _ in range(5):
        n = int(rng.integers(3, 7))
        pts = PointSet(rng.random((n, 2)))
        table = solver.single_slot_table(pts, list(range(n)))
        for c in range(n):
            for d in range(n):
                for k in range(1, n + 1):
                    got = table_length(table, c, d, k)
                    ends = EndpointArrays((c,), (d,))
                    ref = solver.solve_window(pts, list(range(n)), ends, k)
                    if math.isfinite(got):
                        assert got == pytest.approx(ref.total_length, rel=1e-12)
                    else:
                        assert not ref.feasible


def test_table_chunked_by_start_equals_one_chunk(rng, monkeypatch):
    # A one-byte chunk ceiling forces chunks of one set each, in the build
    # and in the rooted pass that ``path`` makes over each run; the runs and
    # the paths read back equal those of the default chunks.
    pts = PointSet(rng.random((9, 2)))
    whole = ExactWindowSolver().single_slot_table(pts, range(9))
    paths = {
        (lo, hi, c, d, k): whole.path(lo, hi, c, d, k)
        for lo in range(9)
        for hi in range(lo, 9)
        for c, d in [(lo, hi), (hi, lo), ((lo + hi) // 2, hi)]
        for k in range(1, hi - lo + 2)
    }
    runs = {(lo, hi): whole.run(lo, hi) for lo in range(9) for hi in range(lo, 9)}
    monkeypatch.setattr(window_solver, "CHUNK_BYTES", 1)
    chunked = ExactWindowSolver().single_slot_table(pts, range(9))
    for (lo, hi), run in runs.items():
        assert np.array_equal(chunked.run(lo, hi), run)
    assert {query: chunked.path(*query) for query in paths} == paths
    assert sum(visits is not None for visits in paths.values()) > 200


def held_karp_by_loops(coords):
    """best[k, last, start] by a plain loop over visited sets, as reference."""
    w = len(coords)
    dmat = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    best = np.full((w + 1, w, w), math.inf)
    for start in range(w):
        dp = {(1 << start, start): 0.0}
        for mask in range(1 << w):  # every proper subset comes first
            for last in range(w):
                cost = dp.get((mask, last))
                if cost is None:
                    continue
                k = bin(mask).count("1")
                best[k, last, start] = min(best[k, last, start], cost)
                for p in range(w):
                    if not mask >> p & 1:
                        key = (mask | 1 << p, p)
                        dp[key] = min(dp.get(key, math.inf), cost + dmat[last, p])
    return best


def test_every_run_of_one_pass_equals_its_own_table(rng):
    # One pass over a window yields the table of each contiguous run of its
    # sweep order, bitwise equal to a pass over that run's points alone and,
    # for up to 8 points, to the plain loop.  A pass asked for fewer visits
    # yields the leading counts of each run's table and, for up to 8 points,
    # the same paths over those counts; the half-grid points make many of
    # those paths tie.
    shapes = [(1, 2), (2, 3), (5, 2), (8, 3), (10, 2), (12, 3)]
    for pts in [PointSet(rng.random(shape)) for shape in shapes] + [PointSet(TIE_GRID)]:
        n = len(pts)
        table = ExactWindowSolver().single_slot_table(pts, range(n))
        assert table.pts == tuple(int(p) for p in pts.sweep_order)
        paths = {}
        for max_visits in (1, 2, -(-n // 2), n):
            fewer = ExactWindowSolver().single_slot_table(pts, range(n), max_visits=max_visits)
            for lo in range(n):
                for hi in range(lo, n):
                    whole = table.run(lo, hi)[: max_visits + 1]
                    assert np.array_equal(fewer.run(lo, hi), whole), (n, max_visits, lo, hi)
                    if n > 8:
                        continue
                    for c in range(lo, hi + 1):
                        for e in range(lo, hi + 1):
                            for k in range(1, min(max_visits, hi - lo + 1) + 1):
                                query = (lo, hi, c, e, k)
                                if query not in paths:
                                    paths[query] = table.path(*query)
                                assert fewer.path(*query) == paths[query], (n, max_visits, query)
        for lo in range(n):
            for hi in range(lo, n):
                alone = ExactWindowSolver().single_slot_table(pts, table.pts[lo : hi + 1])
                assert alone.pts == table.pts[lo : hi + 1]
                for a in range(hi - lo + 1):  # every sub-run of the standalone table
                    for b in range(a, hi - lo + 1):
                        assert np.array_equal(alone.run(a, b), table.run(lo + a, lo + b))
                if n <= 8:
                    loops = held_karp_by_loops(pts.coords[list(alone.pts)])
                    assert np.array_equal(table.run(lo, hi), loops)


def tie_heavy_coords(rng, w, d):
    """Half-grid coordinates; up to three rows copy one point and one more
    row copies another, so points coincide besides tying on the grid."""
    coords = rng.integers(0, 3, (w, d)) / 2.0
    coords[rng.integers(0, w, 3)] = coords[rng.integers(0, w)]
    coords[rng.integers(0, w)] = coords[rng.integers(0, w)]
    return coords


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("chunk_bytes", [window_solver.CHUNK_BYTES, 1])
def test_kernel_equals_the_loops_on_ties_and_coincident_points(rng, monkeypatch, d, chunk_bytes):
    # The pass gives the loop's numbers over the default chunks and over the
    # one-set chunks that a one-byte ceiling forces.
    monkeypatch.setattr(window_solver, "CHUNK_BYTES", chunk_bytes)
    for w in range(1, 10):
        for _ in range(2):
            pts = PointSet(tie_heavy_coords(rng, w, d))
            table = ExactWindowSolver().single_slot_table(pts, range(w))
            loops = held_karp_by_loops(pts.coords[list(table.pts)])
            assert np.array_equal(table.run(0, w - 1), loops)


def test_a_fifteen_point_build_stays_under_its_byte_ceiling(monkeypatch):
    # Besides its ranges, a build holds the kept layers of one rooted pass at
    # a time (each rooted table is dropped before the next is made) and, in
    # a step or a fold, four float-sized temporaries of a chunk of sets at
    # most, each at most CHUNK_BYTES.  SLACK covers the index plans of the
    # passes over 14 points (0.6 MB, most of it predecessor rows, and 0.1 MB
    # of per-mask arrays), which run first, from the whole window, and the
    # copies of distances.  The smaller second ceiling checks that the peak
    # follows it.
    SLACK = 1 << 20
    w = 15
    pts = PointSet(np.random.default_rng(15).random((w, 2)))
    ranges_bytes = 8 * w**4 * (w + 1)
    layers_bytes = sum(8 * k * math.comb(w - 1, k) for k in range(1, w))
    for chunk_bytes in (window_solver.CHUNK_BYTES, 128 << 10):
        monkeypatch.setattr(window_solver, "CHUNK_BYTES", chunk_bytes)
        window_solver._plan.cache_clear()
        window_solver._masks.cache_clear()
        tracemalloc.start()
        try:
            ExactWindowSolver().single_slot_table(pts, range(w)).run(0, w - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ranges_bytes + layers_bytes + 4 * chunk_bytes + SLACK, (chunk_bytes, peak)


def test_a_fifteen_point_rooted_build_stays_under_its_byte_ceiling(monkeypatch):
    # A rooted build holds its prefixes and every layer of its one-start
    # pass, which the table keeps, and, in a step or a fold, four float-sized
    # temporaries of a chunk of sets at most, each at most CHUNK_BYTES.
    # SLACK is the window table's.
    SLACK = 1 << 20
    w = 15
    pts = PointSet(np.random.default_rng(15).random((w, 2)))
    prefixes_bytes = 8 * w * (w + 1) * w
    layers_bytes = sum(8 * k * math.comb(w - 1, k) for k in range(1, w))
    for chunk_bytes in (window_solver.CHUNK_BYTES, 128 << 10):
        monkeypatch.setattr(window_solver, "CHUNK_BYTES", chunk_bytes)
        window_solver._plan.cache_clear()
        window_solver._masks.cache_clear()
        tracemalloc.start()
        try:
            rooted = ExactWindowSolver().rooted_table(pts, range(w), int(pts.sweep_order[w // 2]))
            rooted.run(w - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rooted.path(w - 1, 0, w) is not None
        assert peak < prefixes_bytes + layers_bytes + 4 * chunk_bytes + SLACK, (chunk_bytes, peak)


def test_the_plans_of_every_size_up_to_the_cap_stay_cached():
    # Every pass over up to the cap's points asks for the plans of the set
    # sizes it reaches; none of them is evicted and rebuilt.
    cap = window_solver.DEFAULT_POINT_CAP
    pairs = [(w, k) for w in range(1, cap + 1) for k in range(1, w + 1)]
    window_solver._plan.cache_clear()
    window_solver._masks.cache_clear()
    try:
        for pair in pairs:
            window_solver._plan(*pair)
        misses = window_solver._plan.cache_info().misses, window_solver._masks.cache_info().misses
        for pair in pairs:
            window_solver._plan(*pair)
        for w in range(1, cap + 1):
            window_solver._masks(w)
        plan, masks = window_solver._plan.cache_info(), window_solver._masks.cache_info()
        assert (plan.currsize, masks.currsize) == (len(pairs), cap) == (171, 18)
        assert (plan.misses, masks.misses) == misses
    finally:
        window_solver._plan.cache_clear()
        window_solver._masks.cache_clear()


def test_a_pass_stopped_early_builds_only_the_plans_it_reads():
    # A 12-point table's first run makes, for each run start lo, a rooted
    # pass from each start c >= lo over the other 11 - lo points of pts[lo:];
    # stopped after its paths over 4 points, each pass reads the plans of
    # sizes 1 to 3 (fewer when it has fewer points) and no others.  A rooted
    # table over the same points and counts builds none besides.
    pts = PointSet(np.random.default_rng(12).random((12, 2)))
    reads = [(w, k) for w in range(12) for k in range(1, min(w, 3) + 1)]
    window_solver._plan.cache_clear()
    try:
        ExactWindowSolver().single_slot_table(pts, range(12), max_visits=4).run(0, 11)
        built = window_solver._plan.cache_info()
        ExactWindowSolver().rooted_table(pts, range(12), 5, max_visits=4)
        for pair in reads:
            window_solver._plan(*pair)
        info = window_solver._plan.cache_info()
        assert (built.currsize, info.currsize, info.misses) == (len(reads), len(reads), built.misses)
    finally:
        window_solver._plan.cache_clear()


@pytest.mark.parametrize(
    "method, args, max_visits",
    [
        ("rooted_table", (0,), 0),
        ("rooted_table", (0,), -1),
        ("rooted_table", (0,), 2.0),
        ("rooted_table", (7,), None),  # a root outside the window
        ("single_slot_table", (), 0),
        ("single_slot_table", (), -1),
        ("single_slot_table", (), "3"),
    ],
    ids=["rooted 0", "rooted -1", "rooted 2.0", "root outside", "window 0", "window -1", "window 3"],
)
def test_a_table_request_outside_its_domain_raises_input_error(method, args, max_visits):
    pts = PointSet(np.random.default_rng(8).random((8, 2)))
    with pytest.raises(InputError):
        getattr(ExactWindowSolver(), method)(pts, range(6), *args, max_visits=max_visits)


def test_a_path_over_more_points_than_the_table_holds_raises_input_error():
    # Both tables hold the counts up to their max_visits and read no path
    # above them, though a window table's path builds its own rooted table.
    pts = PointSet(np.random.default_rng(6).random((6, 2)))
    table = ExactWindowSolver().single_slot_table(pts, range(6), max_visits=2)
    rooted = ExactWindowSolver().rooted_table(pts, range(6), table.pts[0], max_visits=2)
    assert table.path(0, 5, 0, 5, 2) == rooted.path(5, 5, 2) is not None
    for read in (lambda: table.path(0, 5, 0, 5, 4), lambda: rooted.path(5, 5, 4)):
        with pytest.raises(InputError):
            read()


def test_runs_of_a_scattered_request_follow_the_sweep_order(rng):
    pts = PointSet(rng.random((11, 2)))
    ids = [int(p) for p in pts.sweep_order[::2]]
    shuffled = [ids[i] for i in rng.permutation(len(ids))]
    table = ExactWindowSolver().single_slot_table(pts, shuffled)
    assert table.pts == tuple(ids)
    for lo in range(len(ids)):
        for hi in range(lo, len(ids)):
            alone = ExactWindowSolver().single_slot_table(pts, ids[lo : hi + 1])
            assert np.array_equal(table.run(lo, hi), alone.run(0, hi - lo))


def test_fifteen_point_table_matches_collinear_closed_form(rng, solver):
    # Unit-spaced points on a line, ids shuffled.  A c -> d path covers the
    # |x_c - x_d| + 1 points between its ends for free; each further point
    # lies outside that span and costs a detour of 2.  Checked at 15 points
    # and at 17.
    for w in (15, 17):
        x = rng.permutation(w)
        pts = PointSet(np.column_stack([x, np.zeros(w)]))
        table = solver.single_slot_table(pts, range(w))
        for c in range(w):
            for d in range(w):
                for k in range(1, w + 1):
                    span = abs(int(x[c]) - int(x[d]))
                    if (k == 1) == (c == d):
                        expected = span + 2 * max(0, k - span - 1)
                    else:
                        expected = math.inf
                    assert table_length(table, c, d, k) == expected, (w, c, d, k)


def test_reused_solver_keeps_no_point_set(monkeypatch):
    built = []  # a weak reference to every PointSet made
    init = PointSet.__init__

    def tracked(self, coords):
        init(self, coords)
        built.append(weakref.ref(self))

    monkeypatch.setattr(PointSet, "__init__", tracked)
    solver = ExactWindowSolver()

    def solve_all():
        for seed in range(25):
            inst = generate(seed=seed, n=7, d=2, kind="orienteering", delta=0.34)
            solve_orienteering(
                OrienteeringInstance(inst.point_set(), inst.root, inst.budget, inst.delta),
                window_solver=solver,
            )
            inst = generate(seed=seed, n=7, d=2, kind="mktsp", m=2)
            pts = inst.point_set()
            for solve in (solve_mktsp, _sweep_mktsp):
                solve(pts, inst.pairs, inst.k, window_solver=solver)

    solve_all()
    gc.collect()
    assert len(built) > 50  # the instances and the sweeps' rotated copies
    assert [ref for ref in built if ref() is not None] == []
    assert solver.point_cap == window_solver.DEFAULT_POINT_CAP  # still in use


class RunAndPathTable:
    """A table that answers ``run`` and ``path`` and has no other member."""

    __slots__ = ("_table",)

    def __init__(self, table):
        self._table = table

    def run(self, *span):
        return self._table.run(*span)

    def path(self, *query):
        return self._table.path(*query)


class RunAndPathSolver(ExactWindowSolver):
    """The exact oracle, with its tables cut down to ``run`` and ``path``."""

    def single_slot_table(self, host, point_ids, max_visits=None):
        return RunAndPathTable(super().single_slot_table(host, point_ids, max_visits))

    def rooted_table(self, host, point_ids, root, max_visits=None):
        return RunAndPathTable(super().rooted_table(host, point_ids, root, max_visits))


def test_sweeps_read_a_table_only_through_run_and_path():
    # A swapped-in rooted or window table needs nothing but the two methods,
    # for the k-TSP solve's one-window read and for the full sweep alike, and
    # the oracle gains no state from serving a solve.
    def ktsp(inst, oracle, solve=solve_ktsp):
        path, length = solve(inst.point_set(), inst.source, inst.sink, inst.k, window_solver=oracle)
        return path.visits, length

    def orienteering(inst, oracle):
        sol = solve_orienteering(
            OrienteeringInstance(inst.point_set(), inst.root, inst.budget, inst.delta),
            window_solver=oracle,
        )
        return sol.path.visits, sol.length, sol.certificate

    solver = ExactWindowSolver()
    for seed in range(8):
        for dist in DISTRIBUTIONS:
            for kind, solve in (("ktsp", ktsp), ("orienteering", orienteering)):
                inst = generate(seed=seed, n=4 + seed, d=1 + seed % 3, distribution=dist, kind=kind)
                default = solve(inst, None)
                assert solve(inst, RunAndPathSolver()) == default, (seed, dist, kind)
                assert solve(inst, solver) == default, (seed, dist, kind)
                if kind == "ktsp":
                    sweep = ktsp(inst, solver, _sweep_ktsp)
                    assert ktsp(inst, RunAndPathSolver(), _sweep_ktsp) == sweep, (seed, dist)
    assert vars(ExactWindowSolver()) == vars(solver) == {}


#: Half-grid points with a doubled point (ids 2 and 3), so many systems tie.
TIE_GRID = [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]]


@pytest.mark.parametrize(
    "sources, sinks, lengths, visits",
    [
        (  # one slot
            (0,), (4,),
            [(2, 1.0), (3, 1.0), (4, 1.4142135623730951), (5, 1.7071067811865475),
             (6, 2.0), (7, 2.7071067811865475)],
            {2: ((0, 4),), 3: ((0, 1, 4),), 4: ((0, 2, 3, 4),), 5: ((0, 1, 2, 3, 4),),
             6: ((0, 1, 2, 3, 5, 4),), 7: ((0, 1, 6, 2, 3, 5, 4),)},
        ),
        (  # chained a -> b, b -> c
            (0, 4), (4, 6),
            [(3, 2.118033988749895), (4, 2.118033988749895), (5, 2.2071067811865475),
             (6, 2.2071067811865475), (7, 2.5)],
            {3: ((0, 4), (4, 6)), 4: ((0, 1, 4), (4, 6)), 5: ((0, 1, 4), (4, 2, 6)),
             6: ((0, 1, 4), (4, 2, 3, 6)), 7: ((0, 1, 4), (4, 5, 2, 3, 6))},
        ),
        (  # an idle slot, then a one-point slot beside a normal slot
            (None, 3, 0), (None, 3, 5),
            [(3, 1.118033988749895), (4, 1.2071067811865475), (5, 1.5),
             (6, 2.2071067811865475), (7, 2.5)],
            {3: (None, (3,), (0, 5)), 4: (None, (3,), (0, 1, 5)), 5: (None, (3,), (0, 1, 2, 5)),
             6: (None, (3,), (0, 1, 2, 4, 5)), 7: (None, (3,), (0, 6, 2, 1, 4, 5))},
        ),
    ],
)
def test_multi_slot_tie_order_picks_a_fixed_optimum(sources, sinks, lengths, visits):
    # Recorded from the dict DP before it became one layered loop: the
    # lengths come in this order, and ties go to the first system found.
    pts = PointSet(TIE_GRID)
    ends = EndpointArrays(sources, sinks)
    ids = range(len(TIE_GRID))
    assert list(ExactWindowSolver().solve_lengths(pts, ids, ends).items()) == lengths
    for k, expected in visits.items():
        sol = ExactWindowSolver().solve_window(pts, ids, ends, k)
        assert tuple(None if p is None else p.visits for p in sol.paths) == expected
        assert sol.total_length == dict(lengths)[k]
