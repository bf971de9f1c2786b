"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

sys.path.insert(0, str(run.SRC))

from orienteer.generate import generate  # noqa: E402
from orienteer.io import dumps  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: tiny(w) for name, w in WORKLOADS.items()}


def _run_tiny(name, trace, capsys):
    assert run.main(
        ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)], TINY
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_prints_every_end_to_end_metric(name, capsys):
    assert max(cell["n"] for cell in TINY[name].cells) <= 8
    lines, result = _run_tiny(name, 0, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_rate 0.0000 ratio; answer_gap 0.000000 ratio" in lines
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["pass_rate"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_prints_every_per_layer_metric(name, capsys):
    lines, result = _run_tiny(name, 1, capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any(line.startswith(f"dominant layer on {name}: ") for line in lines)
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    if name == "ktsp-table":
        assert calls["window_solver.table.calls"] > 0 and calls["mktsp.calls"] == 0
    else:
        assert calls["mktsp.calls"] > 0 and calls["window_solver.lengths.calls"] > 0
    if name == "mktsp-states":
        assert calls["window_solver.table.calls"] == 0


@pytest.mark.parametrize("kind", ["ktsp", "mktsp", "orienteering"])
def test_traced_and_plain_solutions_are_byte_identical(kind, tmp_path):
    from orienteer import cli

    inst = tmp_path / "inst.json"
    inst.write_text(dumps(generate(seed=5, n=8, d=2, kind=kind, delta=0.34)))
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert run.solve(cli.main, inst, plain)[0] == 0
    tracer = run.Tracer()
    assert run.solve_traced(tracer, cli.main, inst, traced)[0] == 0
    assert plain.read_bytes() == traced.read_bytes()
    assert tracer.calls["cli"] == 1 and tracer.calls[kind] == 1
    assert cli.solve_ktsp is not None and not hasattr(cli.solve_ktsp, "__wrapped__")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("spec", [
    {"kind": "ktsp", "n": 8, "d": 2},
    {"kind": "ktsp", "n": 8, "d": 3, "k": 6, "distribution": "collinear-jitter"},
    {"kind": "mktsp", "n": 8, "d": 2, "m": 2, "k": 6},
    {"kind": "mktsp", "n": 8, "d": 2, "m": 3, "distribution": "clustered"},
    {"kind": "orienteering", "n": 8, "d": 2},
    {"kind": "orienteering", "n": 8, "d": 3, "distribution": "clustered"},
])
def test_subset_dp_matches_the_oracle(spec, seed):
    inst = generate(seed=seed, **spec).to_dict()
    dp, brute = reference.subset_dp_optimum(inst), reference.oracle_optimum(inst)
    if inst["kind"] == "orienteering":
        assert dp == brute
    else:
        assert dp == pytest.approx(brute, rel=1e-12)


def test_check_rejects_a_worse_answer():
    inst = generate(seed=1, n=8, d=2, kind="ktsp", k=6).to_dict()
    visits = [0, 1, 2, 3, 4, 7]
    coords = [inst["points"][v] for v in visits]
    length = sum(
        sum((a - b) ** 2 for a, b in zip(p, q)) ** 0.5 for p, q in zip(coords, coords[1:])
    )
    sol = {"kind": "ktsp", "visits": visits, "visited": 6, "length": length,
           "verification": "passed"}
    ok, _, detail = reference.check_answer(inst, sol)
    assert length > reference.optimum(inst) * (1 + 1e-6)
    assert not ok and "optimum" in detail


def test_every_repeat_of_an_instance_is_checked(tmp_path):
    from orienteer import cli

    inst = generate(seed=2, n=8, d=2, kind="ktsp")
    path = tmp_path / "inst.json"
    path.write_text(dumps(inst))
    out = tmp_path / "sol.json"
    assert run.solve(cli.main, path, out)[0] == 0
    check = run.Checker([inst.to_dict()])
    assert check(0, 0, out) == (True, 0.0)
    assert check(0, 0, out)[0]
    assert not check(0, -1, out)[0]
    sol = json.loads(out.read_text())
    out.write_text(json.dumps(dict(sol, length=sol["length"] * 2)))
    assert not check(0, 0, out)[0]


def test_exits_nonzero_without_the_package():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ktsp-table",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
