import math
from itertools import permutations, product

import numpy as np
import pytest

from orienteer import (
    MultiPath,
    Path,
    PointSet,
    concatenate_skeleton_paths,
    skeleton_indices,
    solve_orienteering,
)
from orienteer import orienteering
from orienteer.errors import CapacityError, ConsistencyError, InputError
from orienteer.generate import DISTRIBUTIONS, generate
from orienteer.io import Solution
from orienteer.mktsp import _sweep_mktsp, solve_mktsp
from orienteer.oracle import brute_orienteering
from orienteer.orienteering import OrienteeringInstance, segment_count
from orienteer.paths import excess, path_length
from orienteer.verify import verify_solution
from orienteer.window_solver import DEFAULT_POINT_CAP, ExactWindowSolver, WindowSolution


def test_skeleton_formula_examples():
    assert skeleton_indices(16, 3) == [1, 6, 11, 16]
    assert skeleton_indices(2, 1) == [1, 2]
    assert skeleton_indices(7, 3) == [1, 3, 5, 7]


def test_skeleton_gaps_exhaustive():
    for k in range(2, 65):
        for m in range(1, 9):
            alphas = skeleton_indices(k, m)
            assert alphas[0] == 1
            assert alphas[-1] == k
            assert all(b >= a for a, b in zip(alphas, alphas[1:]))
            gap_cap = (k - 1) // m
            assert all(b - a - 1 <= gap_cap for a, b in zip(alphas, alphas[1:]))


def test_segment_count_makes_inverse_at_most_delta():
    for delta in (0.5, 0.34, 0.25, 0.2, 0.13):
        m = segment_count(delta)
        assert 1.0 / m <= delta + 1e-12


def test_concatenate_identity_and_chain():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0]])
    single = MultiPath((Path(pts, (0, 1)),))
    assert concatenate_skeleton_paths(single, (0, 1)).visits == (0, 1)
    double = MultiPath((Path(pts, (0, 1)), Path(pts, (1, 2))))
    assert concatenate_skeleton_paths(double, (0, 1, 2)).visits == (0, 1, 2)


def test_concatenate_checks_junctions():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0]])
    bad = MultiPath((Path(pts, (0, 1)), Path(pts, (2, 1))))
    with pytest.raises(InputError):
        concatenate_skeleton_paths(bad, (0, 1, 2))


def test_concatenate_length_adds_up(rng):
    for _ in range(10):
        pts = PointSet(rng.random((9, 2)))
        ids = [int(i) for i in rng.permutation(9)]
        q = ids[:4]
        pieces = (
            Path(pts, (q[0], ids[4], q[1])),
            Path(pts, (q[1], ids[5], q[2])),
            Path(pts, (q[2], ids[6], q[3])),
        )
        multi = MultiPath(pieces)
        joined = concatenate_skeleton_paths(multi, q)
        assert path_length(joined) == pytest.approx(
            sum(path_length(p) for p in pieces), abs=1e-12
        )


def test_collinear_budget_instance():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0]])
    sol = solve_orienteering(OrienteeringInstance(pts, 0, 3.5, 0.5))
    assert sol.visited == 4
    assert sol.length == pytest.approx(3.0, abs=1e-9)
    assert sol.path.visits == (0, 1, 2, 3)


def test_zero_budget_returns_root_only():
    pts = PointSet([[0.0, 0], [1.0, 0]])
    sol = solve_orienteering(OrienteeringInstance(pts, 0, 0.0, 0.5))
    assert sol.visited == 1
    assert sol.path.visits == (0,)
    assert sol.length == 0.0


@pytest.mark.parametrize("budget", [0.0, 1.0])
def test_over_the_point_cap_the_bound_table_request_raises(monkeypatch, budget):
    # The rooted table is the driver's one capacity owner: past the oracle's
    # point cap it raises before any skeleton goes to the multi-path
    # solver, at a zero budget too.
    def spy(*args, **kwargs):
        raise AssertionError("solve_mktsp called")

    monkeypatch.setattr(orienteering, "solve_mktsp", spy)
    pts = PointSet(np.random.default_rng(3).random((DEFAULT_POINT_CAP + 1, 2)))
    with pytest.raises(CapacityError):
        solve_orienteering(OrienteeringInstance(pts, 0, budget, 0.5))


class OnePointShortWindowSolver(ExactWindowSolver):
    """The exact oracle, but its read-back system drops the first interior
    point of its paths and still reports the exact total."""

    def solve_window(self, host, point_ids, endpoints, k):
        sol = super().solve_window(host, point_ids, endpoints, k)
        paths = list(sol.paths)
        j = next(j for j, p in enumerate(paths) if p is not None and len(p.visits) > 2)
        paths[j] = Path(host, paths[j].visits[:1] + paths[j].visits[2:])
        return WindowSolution(sol.total_length, tuple(paths), sol.visited_count - 1)


def test_a_skeleton_system_one_point_short_is_a_consistency_error():
    # The (m,k)-TSP read rejects a system over other than k points, so no
    # joined skeleton path over fewer than k points reaches the driver.  At
    # k = n = 6 with two segments, three of the six points are interior.
    pts = PointSet(np.random.default_rng(7).random((6, 2)))
    with pytest.raises(ConsistencyError, match="not a system over 6 points"):
        solve_orienteering(
            OrienteeringInstance(pts, 0, 10.0, 0.5), window_solver=OnePointShortWindowSolver()
        )


class NoLengthsWindowSolver(ExactWindowSolver):
    """The exact oracle, but it finds no multi-slot system at any count."""

    def solve_lengths(self, host, point_ids, endpoints):
        return {}


def test_an_oracle_that_finds_no_skeleton_system_is_a_consistency_error():
    # The rooted table gives k_opt = 5 here, so the guarantee needs at least
    # 4 visits: a skeleton read that finds nothing is the oracle breaking
    # its contract, not a licence to answer with the root alone.
    inst = generate(seed=5, n=7, d=2, delta=0.34)
    with pytest.raises(ConsistencyError, match="over 5 points"):
        solve_orienteering(
            OrienteeringInstance(inst.point_set(), inst.root, inst.budget, inst.delta),
            window_solver=NoLengthsWindowSolver(),
        )


def test_guarantee_on_random_instances(rng):
    for trial in range(12):
        n = int(rng.integers(5, 10))
        pts = PointSet(rng.random((n, 2)))
        budget = float(rng.uniform(0.8, 2.0))
        k_opt, _ = brute_orienteering(pts, 0, budget)
        tol = 1e-9 * max(1.0, pts.diameter())
        for delta in (0.34, 0.5):
            sol = solve_orienteering(OrienteeringInstance(pts, 0, budget, delta))
            assert sol.length <= budget + tol
            assert sol.path.visits[0] == 0
            assert sol.visited >= math.ceil((1 - delta) * k_opt)
            assert sol.visited == k_opt
            assert sol.visited == len(set(sol.path.visits))



def test_guarantee_with_five_or_more_segments(rng):
    # delta < 1/4 asks for m = ceil(1/delta) >= 5 skeleton segments.
    for trial in range(12):
        n = int(rng.integers(7, 9))
        pts = PointSet(rng.random((n, 2)))
        budget = float(rng.uniform(1.0, 2.0))
        k_opt, _ = brute_orienteering(pts, 0, budget)
        for delta in (0.2, 0.15):
            sol = solve_orienteering(OrienteeringInstance(pts, 0, budget, delta))
            assert sol.length <= budget + 1e-9 * max(1.0, pts.diameter())
            assert math.ceil((1 - delta) * k_opt) <= sol.visited
            assert sol.visited == k_opt
            assert sol.visited == len(set(sol.path.visits))

def test_budget_chain_excess_split(rng):
    # Dropping the largest-excess skeleton segment of the optimal path leaves
    # a strictly shorter path on most of the points: the inequality chain the
    # reduction rides on, checked on oracle optima.
    for _ in range(10):
        n = int(rng.integers(6, 10))
        pts = PointSet(rng.random((n, 2)))
        budget = float(rng.uniform(1.0, 2.0))
        k_opt, opt_seq = brute_orienteering(pts, 0, budget)
        if k_opt < 3:
            continue
        m = min(3, k_opt - 1)
        alphas = skeleton_indices(k_opt, m)
        star = Path(pts, tuple(opt_seq))
        seg_excesses = []
        for a, b in zip(alphas, alphas[1:]):
            sub = star.subpath(opt_seq[a - 1], opt_seq[b - 1])
            seg_excesses.append(excess(sub))
        nu = int(np.argmax(seg_excesses))
        a, b = alphas[nu], alphas[nu + 1]
        kept = opt_seq[: a] + opt_seq[b - 1:]
        shortcut = Path(pts, tuple(kept))
        assert path_length(shortcut) == pytest.approx(
            path_length(star) - seg_excesses[nu], abs=1e-9
        )
        assert len(kept) >= (1 - 1 / m) * k_opt - 1e-12
        assert seg_excesses[nu] >= sum(seg_excesses) / m - 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_budget_tolerance_is_scale_relative(scale):
    # With a slack of 1e-9 * max(1, diameter), the 1e-9 copy of this
    # instance accepted an 8-visit path 72% over budget; the optimum visits 6.
    inst = generate(seed=3, n=8, d=2, kind="orienteering")
    inst.points = [[c * scale for c in p] for p in inst.points]
    inst.budget = 1.3 * scale
    pts = inst.point_set()
    sol = solve_orienteering(OrienteeringInstance(pts, inst.root, inst.budget, inst.delta))
    assert sol.visited == 6
    assert path_length(sol.path) <= inst.budget

    over = Path(pts, (0, 2, 5, 6, 7, 1, 3, 4))
    report = verify_solution(
        inst, Solution(kind="orienteering", length=path_length(over), visited=8,
                       visits=list(over.visits))
    )
    assert [c["check"] for c in report.checks if not c["ok"]] == ["within budget"]


def test_instance_validation():
    pts = PointSet([[0.0, 0], [1.0, 0]])
    with pytest.raises(InputError):
        OrienteeringInstance(pts, 5, 1.0, 0.5)
    with pytest.raises(InputError):
        OrienteeringInstance(pts, 0, -1.0, 0.5)
    with pytest.raises(InputError):
        OrienteeringInstance(pts, 0, 1.0, 1.5)


def test_coincident_skeleton_pair_is_solved():
    # Points 1 and 2 coincide, and the skeleton scan asks for the pair
    # (1, 2), which has no direction of its own.
    pts = PointSet([[0, 0], [0.5, 0.5], [0.5, 0.5], [1, 0]])
    sol = solve_orienteering(OrienteeringInstance(pts, 0, 1.2, 0.5))
    best, _ = brute_orienteering(pts, 0, 1.2)
    assert sol.visited == best == 3
    assert path_length(sol.path) <= 1.2


def bound_draws():
    """Seeded instances for the rooted path bound: n = 5-9, three deltas and
    the generator's three distributions, then tie-heavy sets on a small
    integer grid (coincident points included) and exactly collinear sets."""
    sizes = {0.5: (5, 9), 0.34: (6, 8), 0.2: (7, 9)}
    for i, (dist, delta) in enumerate(product(DISTRIBUTIONS, sizes)):
        for n in sizes[delta]:
            inst = generate(seed=2000 + 10 * i + n, n=n, d=2, distribution=dist, delta=delta)
            yield OrienteeringInstance(inst.point_set(), inst.root, inst.budget, inst.delta)
    rng = np.random.default_rng(11)
    for delta in (0.5, 0.34, 0.2):
        grid = PointSet(rng.integers(0, 3, size=(8, 2)).astype(float))
        yield OrienteeringInstance(grid, 0, 3.0, delta)
        line = PointSet([[float(x), 0.0] for x in rng.permutation(7)])
        yield OrienteeringInstance(line, 0, 4.0, delta)


def rooted_bounds(inst):
    """rooted[k, q], the optimal root -> q path length over exactly k
    points, read at the root's start column of the exact whole-set window
    table (a fold over runs, apart from the rooted table's fold over
    prefixes that the driver reads), and reach[k, q], the least
    rooted[k', q] over k' >= k."""
    n = inst.points.n
    table = ExactWindowSolver().single_slot_table(inst.points, list(range(n)))
    where = {p: r for r, p in enumerate(table.pts)}
    whole = table.run(0, n - 1)
    rooted, reach = {}, {}
    for q in range(n):
        best = math.inf
        for k in range(n, 0, -1):
            rooted[k, q] = float(whole[k, where[q], where[inst.root]])
            best = reach[k, q] = min(best, rooted[k, q])
    return rooted, reach


def test_least_rooted_path_never_shortens_as_k_grows():
    # A (k + 1)-point path is a k-point path plus one nonnegative edge, so
    # the least rooted path over exactly k points is nondecreasing in k: the
    # counts with an in-budget rooted path are exactly 1 .. k_opt, and the
    # suffix minimum over k, which a scan from k = n down would keep, equals
    # the least path at each k.
    rng = np.random.default_rng(12)
    for draw in range(40):
        n = 3 + draw % 8
        if draw % 2:
            coords = rng.integers(0, 3, (n, 2)) / 2.0  # ties and coincident points
        else:
            coords = rng.random((n, 2))
        table = ExactWindowSolver().single_slot_table(PointSet(coords), range(n))
        whole = table.run(0, n - 1)
        for root in range(n):
            least = whole[1:, :, root].min(axis=1)  # k = 1 .. n
            assert np.all(least[1:] >= least[:-1]), (draw, root)
            reach = np.minimum.accumulate(whole[::-1, :, root])[::-1]
            assert np.array_equal(reach[1:].min(axis=1), least), (draw, root)


def test_the_bound_asks_for_one_whole_set_rooted_table_of_every_count(call_spy):
    # One rooted table over all 7 points, stopped at no count, since the
    # bound reads every visit count; no window table.
    inst = generate(seed=5, n=7, d=2, delta=0.34)
    solve_orienteering(
        OrienteeringInstance(inst.point_set(), inst.root, inst.budget, inst.delta),
        window_solver=call_spy,
    )
    tables = [call for call in call_spy.calls if call[0].endswith("_table")]
    assert tables == [("rooted_table", 7, None)]


def scanned_skeletons(inst, k, bounds):
    """Skeletons the driver would reach at k, each with its verdict under
    the rooted path bound (True: ruled out).  These are the skeletons whose
    straight-line length fits the budget, and none when no rooted path over
    exactly k points fits, as at every k above k_opt."""
    pts, root = inst.points, inst.root
    rooted, reach = bounds
    limit = inst.budget + pts.length_tolerance()
    if min(rooted[k, q] for q in range(pts.n)) > limit:
        return
    dmat = pts.distance_matrix()
    m = min(segment_count(inst.delta), k - 1)
    others = [q for q in range(pts.n) if q != root]
    for tail in permutations(others, m):
        skeleton = (root,) + tail
        if sum(dmat[a, b] for a, b in zip(skeleton, skeleton[1:])) <= limit:
            yield skeleton, reach[k, skeleton[-1]] > limit


def test_rooted_path_bound_prunes_only_hopeless_skeletons():
    # Every skeleton the bound rules out would have come back empty from
    # the multi-path solver under the budget cap.
    pruned = 0
    for inst in bound_draws():
        found = solve_orienteering(inst).certificate[0]
        bounds = rooted_bounds(inst)
        for k in range(inst.points.n, max(found, 2) - 1, -1):
            for skeleton, ruled_out in scanned_skeletons(inst, k, bounds):
                if ruled_out:
                    pairs = list(zip(skeleton, skeleton[1:]))
                    result = solve_mktsp(inst.points, pairs, k, cost_cap=inst.budget)
                    assert result is None, (skeleton, k)
                    pruned += 1
    assert pruned > 100


def test_scan_calls_the_solver_on_exactly_the_skeletons_the_bound_keeps(monkeypatch):
    # Above k_opt the bounds keep no skeleton and the driver tries none; at
    # k_opt it tries only skeletons that the straight-line and rooted path
    # bounds keep, the winner among them.
    calls = {}

    def spy(points, pairs, k, *args, **kwargs):
        calls.setdefault(k, set()).add(tuple(p for p, _ in pairs) + (pairs[-1][1],))
        return solve_mktsp(points, pairs, k, *args, **kwargs)

    monkeypatch.setattr(orienteering, "solve_mktsp", spy)
    tried = 0
    for inst in bound_draws():
        calls.clear()
        found, winner = solve_orienteering(inst).certificate
        bounds = rooted_bounds(inst)
        for k in range(inst.points.n, max(found, 2) - 1, -1):
            kept = {s for s, ruled_out in scanned_skeletons(inst, k, bounds) if not ruled_out}
            if k > found:
                assert calls.get(k, set()) == kept, k
            else:
                assert winner in calls[k] <= kept, k
            tried += len(calls.get(k, ()))
    assert tried > 20


# (visited, repr(length), certificate) of generated instances: seed 1100 + i
# is the i-th of (n, delta, distribution) over n = 5-10, three deltas and the
# three distributions, at d = 2 with the generator's budget.
ORIENTEERING_PIN = {
    1100: (4, '0.6538841007352538', (4, (0, 3, 2))),
    1101: (4, '0.08358400130809204', (4, (0, 4, 1))),
    1102: (4, '0.6257030371175382', (4, (0, 2, 3))),
    1103: (4, '1.0114622787636258', (4, (0, 3, 4, 2))),
    1104: (4, '0.07990698871064328', (4, (0, 3, 2, 4))),
    1105: (3, '0.153202323856735', (3, (0, 1, 2))),
    1106: (4, '0.6198634979909627', (4, (0, 3, 2, 4))),
    1107: (4, '0.06476482683113209', (4, (0, 2, 1, 3))),
    1108: (2, '0.3194669252967231', (2, (0, 1))),
    1109: (4, '0.9198578704084722', (4, (0, 5, 2))),
    1110: (3, '0.05595450061100058', (3, (0, 2, 4))),
    1111: (5, '0.2665555547292401', (5, (0, 1, 2))),
    1112: (5, '1.3889435557202279', (5, (0, 1, 3, 5))),
    1113: (3, '0.07877033805415931', (3, (0, 4, 2))),
    1114: (2, '0.43526430630993784', (2, (0, 1))),
    1115: (5, '1.3711897868027034', (5, (0, 4, 2, 3, 5))),
    1116: (3, '0.053619878341545926', (3, (0, 4, 2))),
    1117: (3, '0.27827561692583436', (3, (0, 1, 2))),
    1118: (5, '1.3061562121748198', (5, (0, 6, 3))),
    1119: (4, '0.16291470599932334', (4, (0, 4, 2))),
    1120: (4, '0.5291167001141812', (4, (0, 2, 3))),
    1121: (5, '1.2788242050611025', (5, (0, 3, 5, 1))),
    1122: (4, '0.09780553192068873', (4, (0, 2, 6, 4))),
    1123: (4, '0.2722618929690181', (4, (0, 1, 2, 3))),
    1124: (6, '1.480676452972911', (6, (0, 2, 1, 6, 3, 5))),
    1125: (4, '0.1471753533784133', (4, (0, 2, 6, 4))),
    1126: (4, '0.38254464814988254', (4, (0, 1, 2, 3))),
    1127: (7, '1.2966317393136328', (7, (0, 1, 3))),
    1128: (4, '0.14042946280087973', (4, (0, 6, 4))),
    1129: (4, '0.29403054708730303', (4, (0, 1, 3))),
    1130: (6, '1.532151775168749', (6, (0, 7, 4, 1))),
    1131: (6, '0.17365589296834996', (6, (0, 6, 1, 7))),
    1132: (7, '0.8245760227026107', (7, (0, 1, 3, 6))),
    1133: (7, '1.9256794817117984', (7, (0, 5, 1, 7, 6, 4))),
    1134: (4, '0.12090033903639621', (4, (0, 6, 4, 2))),
    1135: (7, '0.38040693123485914', (7, (0, 1, 2, 3, 4, 5))),
    1136: (7, '1.2307734340932548', (7, (0, 7, 3))),
    1137: (5, '0.13117967629769742', (5, (0, 4, 8))),
    1138: (6, '0.5656464133046647', (6, (0, 1, 3))),
    1139: (7, '1.7027780224822084', (7, (0, 4, 8, 3))),
    1140: (6, '0.18926752747305192', (6, (0, 8, 6, 5))),
    1141: (6, '0.5024000298396368', (6, (0, 1, 2, 4))),
    1142: (7, '1.3793504240746521', (7, (0, 5, 1, 3, 7, 4))),
    1143: (5, '0.1755324533367954', (5, (0, 8, 6, 2, 4))),
    1144: (4, '0.3865037895799007', (4, (0, 1, 2, 3))),
    1145: (9, '1.6431035093840667', (9, (0, 5, 3))),
    1146: (5, '0.15492149729137294', (5, (0, 6, 4))),
    1147: (7, '0.7165049823124253', (7, (0, 1, 3))),
    1148: (9, '2.1215808273468952', (9, (0, 9, 3, 5))),
    1149: (8, '0.29373639577385474', (8, (0, 6, 9, 3))),
    1150: (6, '0.654437088998578', (6, (0, 1, 3, 4))),
    1151: (9, '2.0115666206597846', (9, (0, 3, 6, 1, 4, 5))),
    1152: (8, '0.15307197966507305', (8, (0, 4, 5, 9, 3, 6))),
    1153: (5, '0.501599625216114', (5, (0, 2, 1, 3, 4))),
}


def test_orienteering_answers_are_pinned():
    draws = product(range(5, 11), (0.5, 0.34, 0.2), DISTRIBUTIONS)
    for seed, (n, delta, dist) in enumerate(draws, 1100):
        inst = generate(seed=seed, n=n, d=2, distribution=dist, delta=delta)
        sol = solve_orienteering(
            OrienteeringInstance(inst.point_set(), inst.root, inst.budget, inst.delta)
        )
        assert (sol.visited, repr(sol.length), sol.certificate) == ORIENTEERING_PIN[seed], seed


def test_the_mktsp_sweep_gives_the_pinned_orienteering_answers(monkeypatch):
    # The (m,k)-TSP sweep, swapped in for the one-window read, gives the
    # same answers, length bits included.
    monkeypatch.setattr(orienteering, "solve_mktsp", _sweep_mktsp)
    test_orienteering_answers_are_pinned()
