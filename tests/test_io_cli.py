import json
import math

import numpy as np
import pytest

from orienteer.cli import main
from orienteer.errors import InputError
from orienteer.generate import CLUSTER_RADIUS, generate, generate_points
from orienteer.io import Instance, Solution, dumps, load_instance, load_solution
from orienteer.render import render_svg
from orienteer.verify import verify_solution
from orienteer.window_solver import DEFAULT_POINT_CAP


# ---- file formats ----------------------------------------------------------

def test_instance_round_trip(tmp_path):
    inst = generate(seed=5, n=6, d=2, kind="orienteering")
    path = tmp_path / "inst.json"
    path.write_text(dumps(inst))
    again = load_instance(path)
    assert again.to_dict() == inst.to_dict()


def test_unknown_version_rejected(tmp_path):
    inst = generate(seed=5, n=6, d=2, kind="ktsp")
    data = inst.to_dict()
    data["version"] = 99
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError):
        load_instance(path)


def test_unknown_fields_rejected(tmp_path):
    data = generate(seed=5, n=6, d=2, kind="ktsp").to_dict()
    data["surprise"] = True
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError):
        load_instance(path)


def test_budget_and_k_mutually_exclusive():
    inst = generate(seed=5, n=6, d=2, kind="orienteering")
    inst.k = 3
    with pytest.raises(InputError):
        inst.validate()


# ---- generators ------------------------------------------------------------

def test_generate_deterministic():
    a = dumps(generate(seed=7, n=5, d=2, kind="orienteering"))
    b = dumps(generate(seed=7, n=5, d=2, kind="orienteering"))
    assert a == b


def test_generate_unit_cube_bounds():
    pts = generate_points(3, 50, 3, "uniform-cube")
    assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_collinear_zero_jitter_is_a_line():
    pts = generate_points(11, 12, 2, "collinear-jitter", jitter=0.0)
    # rank of the centered matrix is 1: all points on one line
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    assert s[1] <= 1e-12 * max(1.0, s[0])


def _min_enclosing_radius_2d(points):
    """Exact smallest enclosing circle radius for a handful of 2-d points.

    The optimal circle is determined by two or three support points, so
    checking all pair midpoints and triple circumcenters is exhaustive.
    """
    pts = np.asarray(points, dtype=float)
    best = math.inf
    candidates = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            candidates.append((pts[i] + pts[j]) / 2)
            for l in range(j + 1, len(pts)):
                ax, ay = pts[i]
                bx, by = pts[j]
                cx, cy = pts[l]
                d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
                if abs(d) < 1e-12:
                    continue
                ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
                      + (cx**2 + cy**2) * (ay - by)) / d
                uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
                      + (cx**2 + cy**2) * (bx - ax)) / d
                candidates.append(np.array([ux, uy]))
    for center in candidates:
        best = min(best, max(np.linalg.norm(p - center) for p in pts))
    return best


def test_clustered_points_live_in_few_balls():
    # Post-hoc: points are assigned to ceil(n/5) clusters round-robin, so
    # each residue class must fit in a ball of the advertised radius.
    n = 20
    pts = generate_points(23, n, 2, "clustered")
    n_balls = math.ceil(n / 5)
    for cluster in range(n_balls):
        members = pts[cluster::n_balls]
        assert _min_enclosing_radius_2d(members) <= CLUSTER_RADIUS + 1e-9


# ---- rendering -------------------------------------------------------------

def test_render_single_edge_has_one_line_two_markers():
    inst = Instance(kind="ktsp", points=[[0.0, 0.0], [1.0, 1.0]], delta=0.5,
                    source=0, sink=1, k=2).validate()
    sol = Solution(kind="ktsp", length=math.sqrt(2), visited=2, visits=[0, 1])
    svg = render_svg(inst, sol)
    assert svg.count("<line") == 1
    assert svg.count("<circle") == 2


def test_render_deterministic():
    inst = generate(seed=9, n=7, d=2, kind="orienteering")
    sol = Solution(kind="orienteering", length=0.0, visited=1, visits=[0])
    assert render_svg(inst, sol) == render_svg(inst, sol)


def test_render_rejects_3d():
    inst = generate(seed=9, n=5, d=3, kind="orienteering")
    with pytest.raises(InputError):
        render_svg(inst, None)


def test_render_window_slabs_match_decomposition():
    # A zigzag path with one backward run: exactly one shaded slab.
    pts = [[0.0, 0.0], [1.0, 0.3], [2.0, 0.6], [3.0, 0.1]]
    inst = Instance(kind="ktsp", points=pts, delta=0.5, source=0, sink=3, k=4).validate()
    sol = Solution(kind="ktsp", length=0.0, visited=4, visits=[0, 2, 1, 3])
    sol.length = sum(
        math.dist(pts[a], pts[b]) for a, b in zip(sol.visits, sol.visits[1:])
    )
    svg = render_svg(inst, sol, show_windows=True)
    assert svg.count("<rect") == 1


# ---- verification ----------------------------------------------------------

def make_solution_via_cli(tmp_path, kind, seed=3, n=6, gen=(), extra=()):
    inst_file = tmp_path / "inst.json"
    sol_file = tmp_path / "sol.json"
    assert main(["generate", "--kind", kind, "--seed", str(seed), "--n", str(n),
                 *gen, "-o", str(inst_file)]) == 0
    assert main(["solve", str(inst_file), "-o", str(sol_file), *extra]) == 0
    return inst_file, sol_file


@pytest.mark.parametrize("kind", ["ktsp", "mktsp", "orienteering"])
def test_solve_then_verify_passes(tmp_path, kind):
    inst_file, sol_file = make_solution_via_cli(tmp_path, kind)
    assert main(["verify", str(inst_file), str(sol_file), "--oracle-check"]) == 0
    sol = load_solution(sol_file)
    assert sol.verification == "passed"


def test_corrupted_solution_fails_verification(tmp_path):
    inst_file, sol_file = make_solution_via_cli(tmp_path, "ktsp")
    data = json.loads(sol_file.read_text())
    data["visits"][1], data["visits"][2] = data["visits"][2], data["visits"][1]
    sol_file.write_text(json.dumps(data))
    report = verify_solution(load_instance(inst_file), load_solution(sol_file))
    assert not report.passed
    failing = [c["check"] for c in report.checks if not c["ok"]]
    assert "length recomputes" in failing


def test_corrupted_length_fails_verification(tmp_path):
    inst_file, sol_file = make_solution_via_cli(tmp_path, "orienteering")
    data = json.loads(sol_file.read_text())
    data["length"] = data["length"] * 1.01 + 0.01
    sol_file.write_text(json.dumps(data))
    assert main(["verify", str(inst_file), str(sol_file)]) == 5


# ---- CLI end to end --------------------------------------------------------

def test_cli_collinear_budget_instance(tmp_path):
    inst = Instance(
        kind="orienteering",
        points=[[float(x), 0.0] for x in range(5)],
        delta=0.5,
        root=0,
        budget=3.5,
    ).validate()
    inst_file = tmp_path / "line.json"
    inst_file.write_text(dumps(inst))
    sol_file = tmp_path / "line_sol.json"
    assert main(["solve", str(inst_file), "-o", str(sol_file), "--oracle-check"]) == 0
    sol = load_solution(sol_file)
    assert sol.visited == 4
    assert sol.length == pytest.approx(3.0, abs=1e-9)


def test_cli_solves_a_coincident_skeleton_pair(tmp_path):
    inst = Instance(
        kind="orienteering",
        points=[[0.0, 0.0], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0]],
        delta=0.5,
        root=0,
        budget=1.2,
    ).validate()
    inst_file = tmp_path / "twin.json"
    inst_file.write_text(dumps(inst))
    sol_file = tmp_path / "twin_sol.json"
    assert main(["solve", str(inst_file), "-o", str(sol_file), "--oracle-check"]) == 0
    assert load_solution(sol_file).visited == 3


def test_cli_solves_a_pair_a_few_ulps_apart(tmp_path):
    inst = Instance(
        kind="mktsp",
        points=[
            [8.842571952196899, 0.8401188067097154],
            [8.842571952196899, 0.8401188067097153],
            [9.554624999157227, 3.627947248239929],
            [8.698237611788644, 5.416275236284393],
        ],
        delta=0.5,
        pairs=[[0, 1], [2, 3]],
        k=4,
    ).validate()
    inst_file = tmp_path / "ulp.json"
    inst_file.write_text(dumps(inst))
    sol_file = tmp_path / "ulp_sol.json"
    assert main(["solve", str(inst_file), "-o", str(sol_file), "--oracle-check"]) == 0
    assert main(["verify", str(inst_file), str(sol_file), "--oracle-check"]) == 0


def test_cli_solve_is_deterministic(tmp_path):
    a1, s1 = make_solution_via_cli(tmp_path, "orienteering", seed=12)
    sol_text_1 = s1.read_text()
    s1.unlink()
    a2, s2 = make_solution_via_cli(tmp_path, "orienteering", seed=12)
    assert s2.read_text() == sol_text_1


def test_cli_render_out(tmp_path):
    inst_file, sol_file = make_solution_via_cli(
        tmp_path, "ktsp", extra=("--render-out", str(tmp_path / "route.svg"))
    )
    svg = (tmp_path / "route.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_cli_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "-o", str(tmp_path / "out.json")]) == 2


def test_cli_infeasible_exit_code(tmp_path):
    data = generate(seed=3, n=5, d=2, kind="ktsp", k=3).to_dict()
    data["k"] = 9
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(data))
    out = str(tmp_path / "out.json")
    assert main(["solve", str(inst_file), "-o", out]) == 2  # k > n caught by validation


def test_cli_truly_infeasible_exit_code(tmp_path):
    # k passes file validation but sits below the distinct endpoint count.
    inst = generate(seed=3, n=6, d=2, kind="mktsp", m=2, k=2)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(inst))
    assert main(["solve", str(inst_file), "-o", str(tmp_path / "out.json")]) == 3


def test_cli_capacity_exit_code(tmp_path):
    inst = generate(seed=3, n=24, d=2, kind="ktsp", k=20)
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(inst))
    assert main(["solve", str(inst_file), "-o", str(tmp_path / "out.json")]) == 4


def test_orienteering_over_the_window_cap_exits_4(tmp_path, capsys):
    inst = generate(seed=3, n=DEFAULT_POINT_CAP + 1, d=2, kind="orienteering")
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(dumps(inst))
    assert main(["solve", str(inst_file), "-o", str(tmp_path / "out.json")]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "capacity"


def test_oracle_check_skips_over_the_point_cap(tmp_path, capsys):
    inst_file, sol_file = make_solution_via_cli(
        tmp_path, "ktsp", n=11, extra=("--oracle-check",)
    )
    capsys.readouterr()
    assert main(["verify", str(inst_file), str(sol_file), "--oracle-check"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"check": "oracle", "ok": True, "detail": "skipped: n=11 over the oracle cap"} in checks


def test_cli_solves_five_segment_orienteering(tmp_path):
    # delta = 0.2 makes m = 5 skeleton segments once k >= 6, and the budget
    # lets the answer visit 6 points.
    inst_file, sol_file = make_solution_via_cli(
        tmp_path, "orienteering", n=7, gen=("--delta", "0.2", "--budget", "1.6"),
        extra=("--oracle-check",)
    )
    assert load_solution(sol_file).visited == 6
    assert main(["verify", str(inst_file), str(sol_file), "--oracle-check"]) == 0


def test_oracle_check_skips_over_the_path_cap(tmp_path, capsys):
    inst_file, sol_file = make_solution_via_cli(
        tmp_path, "mktsp", seed=1, n=9, gen=("--m", "4"), extra=("--oracle-check",)
    )
    capsys.readouterr()
    assert main(["verify", str(inst_file), str(sol_file), "--oracle-check"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"check": "oracle", "ok": True, "detail": "skipped: 4 paths over the oracle cap"} in checks


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
VALID_FILES = {
    "orienteering": {"version": 1, "kind": "orienteering", "points": SQUARE,
                     "delta": 0.5, "root": 0, "budget": 2.5},
    "ktsp": {"version": 1, "kind": "ktsp", "points": SQUARE, "delta": 0.5,
             "source": 0, "sink": 3, "k": 3},
    "mktsp": {"version": 1, "kind": "mktsp", "points": SQUARE, "delta": 0.5,
              "pairs": [[0, 1], [2, 3]], "k": 4},
    "solution": {"version": 1, "kind": "ktsp", "length": 3.0, "visited": 4,
                 "visits": [0, 1, 2, 3], "config": {}, "verification": "passed"},
}


@pytest.mark.parametrize(
    "base, field, value",
    [
        ("orienteering", "points", 5),
        ("orienteering", "points", [1, 2]),
        ("orienteering", "points", [["a", 0]] + SQUARE[1:]),
        pytest.param("orienteering", "points", [[10**400, 0]] + SQUARE[1:], id="huge-coordinate"),
        ("orienteering", "delta", "x"),
        ("orienteering", "budget", "1"),
        ("orienteering", "budget", math.nan),
        pytest.param("orienteering", "budget", 10**400, id="huge-budget"),
        ("orienteering", "root", 1.5),
        ("orienteering", "root", True),
        ("ktsp", "k", 2.5),
        ("ktsp", "source", 0.5),
        ("mktsp", "pairs", [[0, 1], 5]),
        ("mktsp", "pairs", [[0, 1.5], [2, 3]]),
        ("solution", "length", "x"),
        ("solution", "visited", None),
        ("solution", "visits", "01"),
        ("solution", "visits", [0, 1.0]),
        ("solution", "visits", [0, None]),
    ],
)
def test_malformed_file_exits_2(tmp_path, capsys, base, field, value):
    inst_file, sol_file = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_file.write_text(json.dumps(VALID_FILES["ktsp"]))
    sol_file.write_text(json.dumps(VALID_FILES["solution"]))
    bad = sol_file if base == "solution" else inst_file
    bad.write_text(json.dumps({**VALID_FILES[base], field: value}))
    if base == "solution":
        argv = ["verify", str(inst_file), str(sol_file)]
    else:
        argv = ["solve", str(inst_file), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "malformed-input"


def test_one_parser_serves_calls_without_leaking_options(tmp_path, monkeypatch):
    from orienteer import cli

    inst_file, sol_file = make_solution_via_cli(tmp_path, "ktsp")
    seen = []
    real_verify = cli.verify_solution

    def verify_solution(instance, solution, oracle_check=False):
        seen.append(oracle_check)
        return real_verify(instance, solution, oracle_check=oracle_check)

    monkeypatch.setattr(cli, "verify_solution", verify_solution)
    argv = ["solve", str(inst_file), "-o", str(sol_file)]
    assert main(argv + ["--oracle-check"]) == 0
    assert main(argv) == 0
    assert seen == [True, False]
    assert cli.build_parser() is cli.build_parser()
