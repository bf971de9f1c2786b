import math

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


def test_slot_cap_guard(rng):
    pts = PointSet(rng.random((10, 2)))
    pairs = [(2 * j, 2 * j + 1) for j in range(5)]
    with pytest.raises(InputError):
        solve_mktsp(pts, pairs, 10)
    # raising the guard emits a warning but works
    with pytest.warns(UserWarning):
        solve_mktsp(pts, pairs, 10, max_slots=5)


def test_accuracy_parameter_plumbed(rng):
    solver = ExactWindowSolver()
    pts = PointSet(rng.random((5, 2)))
    solve_mktsp(pts, [(0, 1), (2, 3)], 4, delta=0.8, window_solver=solver)
    assert solver.last_delta_prime == pytest.approx(window_accuracy(0.8, 2), rel=1e-12)
    assert window_accuracy(0.8, 2) == pytest.approx(0.8 / 2**5.5, rel=1e-12)


def test_cost_cap_returns_none_when_over_budget(rng):
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.0, 10.0]])
    assert solve_mktsp(pts, [(0, 1), (2, 3)], 4, cost_cap=1.5) is None
    result = solve_mktsp(pts, [(0, 1), (2, 3)], 4, cost_cap=2.5)
    assert result is not None and result[1] == pytest.approx(2.0, abs=1e-9)


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
