import gc
import math
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
    pts = PointSet(rng.random((9, 2)))
    whole = ExactWindowSolver().single_slot_table(pts, range(9))
    monkeypatch.setattr(window_solver, "TABLE_BYTES", 1)  # one start per chunk
    chunked = ExactWindowSolver().single_slot_table(pts, range(9))
    for lo in range(9):
        for hi in range(lo, 9):
            assert np.array_equal(chunked.run(lo, hi), whole.run(lo, hi))


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
    # for up to 8 points, to the plain loop.
    for n, d in [(1, 2), (2, 3), (5, 2), (8, 3), (10, 2), (12, 3)]:
        pts = PointSet(rng.random((n, d)))
        table = ExactWindowSolver().single_slot_table(pts, range(n))
        assert table.pts == tuple(int(p) for p in pts.sweep_order)
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
    # lies outside that span and costs a detour of 2.
    w = 15
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
                assert table_length(table, c, d, k) == expected


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
            solve_mktsp(inst.point_set(), inst.pairs, inst.k, inst.delta, window_solver=solver)

    solve_all()
    gc.collect()
    assert len(built) > 50  # the instances and the sweeps' rotated copies
    assert [ref for ref in built if ref() is not None] == []
    assert solver.point_cap == window_solver.DEFAULT_POINT_CAP  # still in use


def test_delta_prime_is_recorded(solver, delta_spy):
    # The exact oracle takes delta_prime on each method, gives the answers it
    # gives at 0 and keeps no record of it; the spy that the sweep tests use
    # records every value it is passed.
    pts = PointSet([[0, 0], [1, 0], [0.5, 0.5]])
    ends = EndpointArrays((0,), (1,))
    ids = [0, 1, 2]
    for oracle in (solver, delta_spy):
        assert oracle.solve_window(pts, ids, ends, 3, delta_prime=0.125) == (
            solver.solve_window(pts, ids, ends, 3)
        )
        assert oracle.solve_lengths(pts, ids, ends, 0.125) == solver.solve_lengths(pts, ids, ends)
        table = oracle.single_slot_table(pts, ids, 0.125)
        assert np.array_equal(table.run(0, 2), solver.single_slot_table(pts, ids).run(0, 2))
    assert vars(solver) == {}
    assert delta_spy.seen == [
        ("solve_window", 0.125), ("solve_lengths", 0.125), ("single_slot_table", 0.125)
    ]


class RunAndPathTable:
    """A table that answers ``run`` and ``path`` and has no other member."""

    __slots__ = ("_table",)

    def __init__(self, table):
        self._table = table

    def run(self, lo, hi):
        return self._table.run(lo, hi)

    def path(self, lo, hi, c, d, k):
        return self._table.path(lo, hi, c, d, k)


class RunAndPathSolver(ExactWindowSolver):
    """The exact oracle, with its tables cut down to ``run`` and ``path``."""

    def single_slot_table(self, host, point_ids, delta_prime=0.0):
        return RunAndPathTable(super().single_slot_table(host, point_ids, delta_prime))


def test_sweeps_read_a_table_only_through_run_and_path():
    # A swapped-in table needs nothing but the two methods, and the oracle
    # gains no state from serving a solve.
    def ktsp(inst, oracle):
        path, length = solve_ktsp(
            inst.point_set(), inst.source, inst.sink, inst.k, inst.delta, window_solver=oracle
        )
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
