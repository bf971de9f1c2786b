import pytest

from orienteer import (
    Path,
    PointSet,
    Window,
    decompose_path,
    directed_edge_partition,
    excess,
    window_excess,
    window_points,
)
from orienteer.paths import edge_set_length, path_length
from conftest import random_rotated_path


def enumerate_windows(points: PointSet) -> list[Window]:
    """All n*(n+1)/2 windows over anchor pairs a <= b in sweep order."""
    order = points.sweep_order
    return [
        Window(points, int(order[i]), int(order[j]))
        for i in range(points.n)
        for j in range(i, points.n)
    ]


@pytest.mark.parametrize("n,expected", [(1, 1), (3, 6), (10, 55)])
def test_window_count(rng, n, expected):
    pts = PointSet(rng.random((n, 2)))
    assert len(enumerate_windows(pts)) == expected


def test_zero_width_window_holds_one_point():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0]])
    zero = [w for w in enumerate_windows(pts) if w.left_id == w.right_id]
    assert len(zero) == 3
    for w in zero:
        assert window_points(w, pts) == [w.left_id]
        assert w.width == 0.0


def test_window_points_full_span():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]])
    full = [w for w in enumerate_windows(pts) if w.left_id == 0 and w.right_id == 3]
    assert window_points(full[0], pts) == [0, 1, 2, 3]


def test_window_points_inclusive_boundaries():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]])
    w = [w for w in enumerate_windows(pts) if w.left_id == 1 and w.right_id == 2][0]
    assert window_points(w, pts) == [1, 2]


def fig_style_fixture():
    """16-point path with three backward runs, two of whose windows overlap.

    Ids: 0 is the start s at x=1; i >= 1 is point p_i (p_1 at x=0, p_i at
    x=i for i >= 2).  The path runs monotone except for: the opening hop
    s -> p_1, a long backward run p_14 -> p_10 -> p_8 -> p_7, and the final
    hop p_15 -> p_12.  Merging leaves windows (p_1, s) and (p_7, p_15).
    """
    ys = {1: 0.5, 2: 0.8, 3: 0.2, 4: 0.9, 5: 0.1, 6: 0.7, 7: 0.3, 8: 0.8,
          9: 0.2, 10: 0.6, 11: 0.4, 12: 0.9, 13: 0.1, 14: 0.5, 15: 0.3}
    coords = [[1.0, 0.0]]  # s
    for i in range(1, 16):
        coords.append([0.0 if i == 1 else float(i), ys[i]])
    pts = PointSet(coords)
    visit_order = (0, 1, 2, 3, 4, 5, 6, 14, 10, 8, 7, 9, 11, 13, 15, 12)
    return Path(pts, visit_order)


def test_decompose_monotone_path_has_no_windows():
    pts = PointSet([[0.0, 0], [1.0, 1], [2.0, 0], [3.0, 1]])
    deco = decompose_path(Path(pts, (0, 1, 2, 3)))
    assert deco.windows == ()
    assert len(deco.monotone_segments) == 1


def test_decompose_merges_overlapping_windows():
    path = fig_style_fixture()
    deco = decompose_path(path)
    assert [(w.left_id, w.right_id) for w in deco.windows] == [(1, 0), (7, 15)]
    assert deco.entry_exit[0] == (0, 1)
    assert deco.entry_exit[1] == (14, 12)


def test_decompose_random_paths_properties(rng):
    for _ in range(50):
        path = random_rotated_path(rng)
        host = path.host
        deco = decompose_path(path)
        ranks = host.ranks
        # windows pairwise disjoint, in sweep order
        for a, b in zip(deco.windows, deco.windows[1:]):
            assert ranks[a.right_id] < ranks[b.left_id]
        # every backward edge inside some window
        _, backward = directed_edge_partition(path, [1.0] + [0.0] * (host.dim - 1))
        for u, v in backward:
            assert any(
                ranks[w.left_id] <= ranks[v] and ranks[u] <= ranks[w.right_id]
                for w in deco.windows
            )
        # segments between windows are axis-monotone
        for seg in deco.monotone_segments:
            _, seg_back = directed_edge_partition(seg, [1.0] + [0.0] * (host.dim - 1))
            assert seg_back == []


def test_window_excess_monotone_subpath_is_zero():
    pts = PointSet([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 1]])
    path = Path(pts, (0, 1, 2, 3))
    w = [w for w in enumerate_windows(pts) if (w.left_id, w.right_id) == (0, 2)][0]
    assert window_excess(path, w, 0, 2) == pytest.approx(0.0, abs=1e-15)


def test_window_excess_zigzag():
    pts = PointSet([[0.0, 0], [2.0, 0], [1.0, 0], [3.0, 0]])
    path = Path(pts, (0, 1, 2, 3))
    w = [w for w in enumerate_windows(pts) if (w.left_id, w.right_id) == (0, 1)][0]
    # subpath 0 -> 1 -> 2 has length 3, sweep gap |1 - 0| = 1
    assert window_excess(path, w, 0, 2) == pytest.approx(2.0, abs=1e-12)


def test_window_excess_sum_bounded_by_path_excess(rng):
    for _ in range(50):
        path = random_rotated_path(rng)
        deco = decompose_path(path)
        total = sum(
            window_excess(path, w, c, d)
            for w, (c, d) in zip(deco.windows, deco.entry_exit)
        )
        assert total <= excess(path) + 1e-12


def test_window_subpath_bounded_by_backwards_and_excess(rng):
    # Each traversed window is short relative to its backward mass or excess.
    axis2 = {2: (1.0, 0.0), 3: (1.0, 0.0, 0.0)}
    for _ in range(50):
        path = random_rotated_path(rng)
        deco = decompose_path(path)
        for w, (c, d) in zip(deco.windows, deco.entry_exit):
            sub = path.subpath(c, d)
            _, back = directed_edge_partition(sub, axis2[path.host.dim])
            back_len = edge_set_length(path.host, back)
            wexc = window_excess(path, w, c, d)
            assert path_length(sub) <= 2 * max(back_len, wexc) + 1e-12
