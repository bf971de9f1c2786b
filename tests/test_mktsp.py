import math

import numpy as np
import pytest

from orienteer import PointSet, solve_ktsp, solve_mktsp
from orienteer.directions import angle_margin
from orienteer.errors import DegenerateInputError, InfeasibleError, InputError
from orienteer.mktsp import window_accuracy
from orienteer.oracle import brute_mktsp
from orienteer.paths import path_length
from orienteer.window_solver import ExactWindowSolver


def random_pairs(rng, n, m):
    ids = [int(i) for i in rng.permutation(n)]
    return [(ids[2 * j], ids[2 * j + 1]) for j in range(m)]


def test_forced_assignment_two_parallel_segments():
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]])
    multi, total = solve_mktsp(pts, [(0, 1), (2, 3)], 4)
    assert total == pytest.approx(2.0, abs=1e-9)
    assert [p.visits for p in multi.paths] == [(0, 1), (2, 3)]


def test_single_pair_matches_ktsp(rng):
    for _ in range(20):
        n = int(rng.integers(4, 9))
        pts = PointSet(rng.random((n, 2)))
        k = int(rng.integers(2, n + 1))
        multi, total = solve_mktsp(pts, [(0, 1)], k, 0.5)
        if k >= 2:
            _, ref = solve_ktsp(pts, 0, 1, max(k, 2), 0.5)
            assert total == pytest.approx(ref, rel=1e-9)
        assert multi.paths[0].visits[0] == 0
        assert multi.paths[0].visits[-1] == 1


def test_matches_brute_force(rng):
    for trial in range(30):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(1, 4))
        if 2 * m > n:
            m = n // 2
        pts = PointSet(rng.random((n, 2)))
        pairs = random_pairs(rng, n, m)
        n_eps = len({x for p in pairs for x in p})
        k = int(rng.integers(n_eps, n + 1))
        multi, total = solve_mktsp(pts, pairs, k, 0.5)
        _, opt = brute_mktsp(pts, pairs, k)
        assert total == pytest.approx(opt, rel=1e-9)
        assert len(multi.visited_ids()) >= k
        for path, (s, t) in zip(multi.paths, pairs):
            assert path.visits[0] == s and path.visits[-1] == t


def test_chained_pairs_share_junctions(rng):
    for _ in range(10):
        n = int(rng.integers(5, 9))
        pts = PointSet(rng.random((n, 2)))
        q = [int(i) for i in rng.permutation(n)[:3]]
        pairs = [(q[0], q[1]), (q[1], q[2])]
        k = int(rng.integers(3, n + 1))
        multi, total = solve_mktsp(pts, pairs, k, 0.5)
        _, opt = brute_mktsp(pts, pairs, k)
        assert total == pytest.approx(opt, rel=1e-9)


def test_coincident_points_keep_slots_apart():
    # Points 0 and 1 coincide; slot 0 must not end a window segment on
    # point 0, which is the prescribed source of slot 1.
    pts = PointSet([[0.1, 0.5], [0.1, 0.5], [0.9, 0.3], [0.7, 0.8], [0.6, 0.7]])
    pairs = [(1, 4), (0, 2)]
    multi, total = solve_mktsp(pts, pairs, 5)
    _, opt = brute_mktsp(pts, pairs, 5)
    assert total == pytest.approx(opt, rel=1e-9)
    assert [(p.visits[0], p.visits[-1]) for p in multi.paths] == pairs


def test_matches_brute_force_with_a_coincident_pair(rng):
    # Two distinct ids share coordinates; they never form one pair, whose
    # direction would be undefined.
    for _ in range(100):
        n = int(rng.integers(4, 8))
        coords = rng.random((n, 2))
        pairs = random_pairs(rng, n, 2)
        a, b = (int(i) for i in rng.permutation(n)[:2])
        if {a, b} in ({*pairs[0]}, {*pairs[1]}):
            continue
        coords[b] = coords[a]
        pts = PointSet(coords)
        k = int(rng.integers(4, n + 1))
        multi, total = solve_mktsp(pts, pairs, k, 0.5)
        _, opt = brute_mktsp(pts, pairs, k)
        assert total == pytest.approx(opt, rel=1e-9)
        assert len(multi.visited_ids()) >= k


def test_matches_brute_force_when_a_pair_coincides(rng):
    # One pair's two points share coordinates, so only the other pair has a
    # direction to orient; the coincident pair is swept in id order.
    for _ in range(60):
        n = int(rng.integers(4, 8))
        coords = rng.random((n, 2))
        pairs = random_pairs(rng, n, 2)
        s, t = pairs[int(rng.integers(0, 2))]
        coords[t] = coords[s]
        pts = PointSet(coords)
        k = int(rng.integers(4, n + 1))
        multi, total = solve_mktsp(pts, pairs, k, 0.5)
        _, opt = brute_mktsp(pts, pairs, k)
        assert total == pytest.approx(opt, rel=1e-9)
        assert [(p.visits[0], p.visits[-1]) for p in multi.paths] == pairs
        assert len(multi.visited_ids()) >= k
        # Alone, the pair leaves no direction at all; the frame stays as given.
        multi, total = solve_mktsp(pts, [(t, s)], k - 1, 0.5)
        _, opt = brute_mktsp(pts, [(t, s)], k - 1)
        assert total == pytest.approx(opt, rel=1e-9, abs=1e-12)
        assert (multi.paths[0].visits[0], multi.paths[0].visits[-1]) == (t, s)


#: Ids 0 and 1 lie one ulp apart and form a pair; in the rotated frame,
#: rounding puts the end that ``orient_pairs`` picks as source after its sink.
ULP_PAIR = [
    [8.842571952196899, 0.8401188067097154],
    [8.842571952196899, 0.8401188067097153],
    [9.554624999157227, 3.627947248239929],
    [8.698237611788644, 5.416275236284393],
]


def test_a_pair_a_few_ulps_apart_is_solved():
    pts = PointSet(ULP_PAIR)
    multi, total = solve_mktsp(pts, [(0, 1), (2, 3)], 4, 0.5)
    _, opt = brute_mktsp(pts, [(0, 1), (2, 3)], 4)
    assert total == pytest.approx(opt, rel=1e-9)
    assert [(p.visits[0], p.visits[-1]) for p in multi.paths] == [(0, 1), (2, 3)]
    # Seeded draws with pair (0, 1) one to three ulps apart.
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 8))
        coords = rng.random((n, 2)) * 10
        coords[1] = coords[0]
        for _ in range(int(rng.integers(1, 4))):
            axis = int(rng.integers(0, 2))
            coords[1, axis] = np.nextafter(coords[1, axis], rng.choice([-np.inf, np.inf]))
        pts = PointSet(coords)
        pairs = [(0, 1), (2, 3)]
        k = int(rng.integers(4, n + 1))
        multi, total = solve_mktsp(pts, pairs, k, 0.5)
        _, opt = brute_mktsp(pts, pairs, k)
        assert total == pytest.approx(opt, rel=1e-9), seed
        assert [(p.visits[0], p.visits[-1]) for p in multi.paths] == pairs


def test_total_length_recomputes(rng):
    for _ in range(10):
        n = int(rng.integers(4, 8))
        pts = PointSet(rng.random((n, 2)))
        pairs = random_pairs(rng, n, 2)
        n_eps = len({x for p in pairs for x in p})
        multi, total = solve_mktsp(pts, pairs, n_eps, 0.5)
        assert sum(path_length(p) for p in multi.paths) == pytest.approx(total, abs=1e-9)


def test_excess_guarantee_with_exact_oracle(rng):
    # With the exact window oracle the sweep meets the excess bound with
    # room to spare: length <= OPT + delta * excess(OPT).
    delta = 0.25
    for _ in range(10):
        n = int(rng.integers(5, 8))
        pts = PointSet(rng.random((n, 2)))
        pairs = random_pairs(rng, n, 2)
        n_eps = len({x for p in pairs for x in p})
        k = int(rng.integers(n_eps, n + 1))
        _, total = solve_mktsp(pts, pairs, k, delta)
        paths, opt = brute_mktsp(pts, pairs, k)
        direct = sum(pts.distance(s, t) for s, t in pairs)
        assert total <= opt + delta * (opt - direct) + 1e-9


def test_validation():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0]])
    with pytest.raises(DegenerateInputError):
        solve_mktsp(pts, [(0, 0)], 2)
    with pytest.raises(InfeasibleError):
        solve_mktsp(pts, [(0, 1)], 4)
    with pytest.raises(InfeasibleError):
        solve_mktsp(pts, [(0, 1), (1, 2)], 2)  # fewer than the endpoints
    with pytest.raises(InputError):
        solve_mktsp(pts, [], 2)


def test_five_disjoint_pairs_are_solved(rng):
    # At k = n every point is a prescribed endpoint, so each path is its
    # pair's straight segment.
    pts = PointSet(rng.random((10, 2)))
    pairs = [(2 * j, 2 * j + 1) for j in range(5)]
    multi, total = solve_mktsp(pts, pairs, 10)
    assert total == pytest.approx(sum(pts.distance(s, t) for s, t in pairs), rel=1e-12)
    assert [p.visits for p in multi.paths] == pairs


def test_accuracy_parameter_plumbed(rng, delta_spy):
    pts = PointSet(rng.random((5, 2)))
    solve_mktsp(pts, [(0, 1), (2, 3)], 4, delta=0.8, window_solver=delta_spy)
    assert {method for method, _ in delta_spy.seen} == {"solve_lengths", "solve_window"}
    for _, delta_prime in delta_spy.seen:
        assert delta_prime == pytest.approx(window_accuracy(0.8, 2), rel=1e-12)
    assert window_accuracy(0.8, 2) == pytest.approx(0.8 / 2**5.5, rel=1e-12)


def test_cost_cap_returns_none_when_over_budget(rng):
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]])
    assert solve_mktsp(pts, [(0, 1), (2, 3)], 4, cost_cap=1.5) is None
    result = solve_mktsp(pts, [(0, 1), (2, 3)], 4, cost_cap=2.5)
    assert result is not None and result[1] == pytest.approx(2.0, abs=1e-9)
    # A cap exactly at the optimum keeps it; one just below finds nothing.
    for _ in range(20):
        n = int(rng.integers(4, 8))
        pts = PointSet(rng.random((n, 2)))
        pairs = random_pairs(rng, n, int(rng.integers(1, 3)))
        k = int(rng.integers(2 * len(pairs), n + 1))
        _, opt = brute_mktsp(pts, pairs, k)
        result = solve_mktsp(pts, pairs, k, 0.5, cost_cap=opt)
        assert result is not None and result[1] == pytest.approx(opt, rel=1e-9)
        assert solve_mktsp(pts, pairs, k, 0.5, cost_cap=opt - 1e-6) is None


def test_oriented_pairs_face_forward(rng):
    # After the orientation step inside the solver, each pair's segment makes
    # an angle at most pi/2 - 1/(8 m^1.5) with the sweep axis; verify the
    # public helper agrees on the same inputs.
    from orienteer.directions import orient_pairs
    from orienteer.geometry import angle_to_axis

    for _ in range(10):
        n = 8
        pts = PointSet(rng.random((n, 2)))
        pairs = random_pairs(rng, n, 3)
        transform, swapped = orient_pairs(pts, pairs, rng_seed=0)
        moved = pts.transformed(transform)
        limit = math.pi / 2 - angle_margin(3)
        for (s, t), flip in zip(pairs, swapped):
            if flip:
                s, t = t, s
            assert angle_to_axis(moved.coords[t] - moved.coords[s]) <= limit


class NarrowWindowSolver(ExactWindowSolver):
    """The exact oracle, except that it finds no path system in a window of
    more than `width` points.  With it the sweep has to chain several
    windows, so a sweep that drops a state it still needs gives a different
    answer, which the exact oracle's one-window decomposition would hide."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def solve_lengths(self, host, point_ids, endpoints, delta_prime=0.0):
        if len(point_ids) > self.width:
            return {}
        return super().solve_lengths(host, point_ids, endpoints, delta_prime)


def narrow_draw(seed: int):
    """n = 5-9, m <= 3, window width 3-6; every third draw on a half grid
    (ties and coincident points), every fourth with chained pairs, and every
    even draw with a cost cap of 1-2.5 times the pairs' straight lines."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 10))
    m = int(rng.integers(1, min(3, n // 2) + 1))
    width = int(rng.integers(3, 7))
    if seed % 3 == 0:
        coords = rng.integers(0, 5, (n, 2)) / 2.0
    else:
        coords = rng.random((n, 2))
    pts = PointSet(coords)
    ids = [int(i) for i in rng.permutation(n)]
    if seed % 4 == 1:
        pairs = [(ids[j], ids[j + 1]) for j in range(m)]
    else:
        pairs = [(ids[2 * j], ids[2 * j + 1]) for j in range(m)]
    k = int(rng.integers(len({p for pair in pairs for p in pair}), n + 1))
    cap = None
    if seed % 2 == 0:
        cap = sum(pts.distance(s, t) for s, t in pairs) * float(rng.uniform(1.0, 2.5))
    return pts, pairs, k, width, cap


#: seed -> (total rounded to 1e-9, visits per slot), or None when the capped
#: sweep proves the cap too tight.  Seeds left out find no path uncapped.
NARROW_PIN = {
    0: None,
    1: (1.509424375, ((0, 4, 2), (2, 5))),
    2: None,
    3: (5.702459174, ((6, 8, 3, 4, 0, 2, 7, 5),)),
    4: None,
    6: (4.354101966, ((2, 0, 5), (3, 4, 6, 1))),
    7: (2.257580734, ((4, 5, 6, 7, 3, 0), (8, 1, 2))),
    8: None,
    9: (4.236067977, ((1, 3), (3, 0), (0, 6))),
    10: None,
    11: (2.501765447, ((3, 0, 2, 1, 4),)),
    12: None,
    13: (3.458898839, ((1, 4), (4, 0, 6, 8, 3), (3, 2, 7, 5))),
    14: (1.074846005, ((4, 1, 2), (0, 3))),
    16: (2.535371422, ((6, 1, 0), (2, 4, 5, 3))),
    17: (1.93896062, ((7, 2, 5), (5, 0, 3), (3, 6))),
    18: (3.32514077, ((6, 4), (0, 3, 5, 7, 1))),
    19: (1.546905332, ((2, 4, 0), (6, 1, 3))),
    20: (1.240545061, ((3, 4, 0, 6, 2),)),
    22: (0.927619635, ((6, 0, 3), (5, 2))),
    23: (1.104500286, ((3, 4), (1, 2))),
    24: (2.0, ((1, 0, 2, 3, 4),)),
    25: (2.079203344, ((3, 0, 4, 5, 6, 1),)),
    26: (1.835522035, ((7, 1, 6), (8, 3))),
    27: (2.58113883, ((2, 0), (3, 4))),
    28: None,
    29: (1.292192582, ((8, 2, 0, 4),)),
    30: (1.118033989, ((2, 0, 4),)),
    32: None,
    33: (3.914213562, ((0, 5, 4, 7, 8, 3, 6), (6, 2))),
    34: None,
    35: (0.925008226, ((3, 0, 4),)),
    36: (2.5, ((1, 2, 4, 5, 0),)),
    37: (2.581699468, ((3, 2, 4, 0), (0, 1))),
    38: (1.037065562, ((0, 5, 2), (4, 1))),
    39: (2.736067977, ((1, 2, 0), (7, 4))),
    40: None,
    42: (3.08113883, ((1, 4), (2, 3))),
    43: (2.202698559, ((2, 1, 6, 3, 4), (0, 5))),
    44: None,
    45: (2.82514077, ((8, 4, 2), (2, 6, 7, 0, 3, 1, 5))),
    46: None,
    47: (1.793901565, ((4, 1, 3), (2, 0))),
    48: (0.707106781, ((0, 2, 3),)),
    49: (1.318566124, ((0, 4, 3, 1),)),
    50: (2.321988498, ((0, 5), (6, 2), (1, 3, 4))),
    51: (4.802775638, ((1, 3), (0, 5), (4, 2))),
    52: None,
    53: (0.273625818, ((3, 2, 7),)),
    54: (2.118033989, ((1, 3, 0, 2),)),
    55: (1.616439289, ((2, 1, 7, 0), (6, 4), (3, 5))),
    56: None,
    57: (3.702459174, ((3, 1), (1, 2))),
    58: None,
    59: (1.539550747, ((3, 4, 6), (5, 0, 1, 7))),
    60: None,
    62: (1.415623694, ((2, 1, 5, 6), (0, 3, 4))),
    63: (2.828427125, ((3, 1, 6), (2, 5, 4))),
    64: (2.196168021, ((4, 6), (0, 3, 1), (2, 5))),
    65: (0.310041903, ((2, 3, 4),)),
    66: (4.0, ((0, 4), (1, 5, 6), (8, 2, 3, 7))),
    67: (2.402103774, ((5, 6, 3, 4), (2, 7, 0, 1))),
    68: None,
    69: (2.207106781, ((2, 0, 3, 4), (4, 1))),
    70: None,
    71: (1.117515771, ((1, 8, 2, 3, 6, 4),)),
    72: (4.949747468, ((1, 0, 4), (8, 3, 7), (2, 6, 5))),
    73: (2.926019071, ((1, 8, 2), (2, 7, 3, 5, 0, 4, 6))),
    74: None,
    75: (2.0, ((2, 4, 6, 5, 7),)),
    76: None,
    77: (1.102540018, ((3, 4, 0), (0, 1))),
    78: None,
    79: (0.968322451, ((3, 4), (0, 2))),
    80: (1.254377321, ((8, 2, 6), (3, 4, 1), (5, 7))),
    81: (1.0, ((1, 3),)),
    82: (1.494347221, ((0, 2), (1, 4), (7, 5, 3))),
    83: (0.437269423, ((6, 4, 0),)),
    84: None,
    85: (3.076665604, ((4, 3, 2, 5, 1, 6, 7, 0),)),
}


def test_narrow_oracle_answers_are_pinned():
    for seed, pinned in NARROW_PIN.items():
        pts, pairs, k, width, cap = narrow_draw(seed)
        result = solve_mktsp(
            pts, pairs, k, 0.5, window_solver=NarrowWindowSolver(width), cost_cap=cap
        )
        if result is not None:
            multi, total = result
            result = (round(total, 9), tuple(p.visits for p in multi.paths))
        assert result == pinned, seed


class RecordingWindowSolver(ExactWindowSolver):
    """The exact oracle, recording every length query it is asked."""

    def __init__(self):
        super().__init__()
        self.queries = []

    def solve_lengths(self, host, point_ids, endpoints, delta_prime=0.0):
        self.queries.append((tuple(point_ids), endpoints.sources, endpoints.sinks))
        return super().solve_lengths(host, point_ids, endpoints, delta_prime)


def test_one_oracle_call_per_window_and_configuration():
    # The sweep memoizes each window's queries, so the oracle, which keeps
    # no memo, never sees the same query twice in one solve.
    asked = 0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(7, 10))
        m = 2 + seed // 2 % 2
        pts = PointSet(rng.random((n, 2)))
        ids = [int(i) for i in rng.permutation(n)]
        if seed % 2:
            pairs = [(ids[j], ids[j + 1]) for j in range(m)]
        else:
            pairs = [(ids[2 * j], ids[2 * j + 1]) for j in range(m)]
        k = int(rng.integers(len({p for pair in pairs for p in pair}), n + 1))
        cap = None
        if seed // 4 % 2:
            cap = sum(pts.distance(s, t) for s, t in pairs) * float(rng.uniform(1.0, 2.5))
        solver = RecordingWindowSolver()
        solve_mktsp(pts, pairs, k, 0.5, window_solver=solver, cost_cap=cap)
        assert len(set(solver.queries)) == len(solver.queries), seed
        asked += len(solver.queries)
    assert asked > 0
