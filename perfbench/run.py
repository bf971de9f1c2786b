"""Seeded end-to-end and per-layer benchmark for `orienteer solve`.

Usage (from the repository root):

    python3 perfbench/run.py --workload ktsp-table --seed 1 --seconds 50 --trace 0

Each operation is one in-process ``orienteer.cli.main(["solve", <instance>,
"-o", <out>])`` call on an instance file generated from the seed; one client
solves instances one after another for ``--seconds`` seconds (a closed loop).
Every answer is then checked against an independent optimum
(``reference.py``), outside the timed region.  The solve timings are scaled
by a calibration timed between the solves (see REFERENCE_CALIBRATION_S).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves each
instance twice, once plain and once with every layer wrapped
(``tracing.py``), checks that both runs wrote byte-identical solution files,
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

#: Samples a tail percentile should have beyond it.
TAIL_BEYOND = 10

#: The calibration: a fixed piece of work that shares no code with the
#: program, a pure-Python loop plus the reference Held-Karp DP on a fixed
#: 12-point instance, run after a solve whenever CALIBRATE_EVERY_S of solving
#: has passed since the last one.  On a shared machine the speed of a whole
#: run drifts by tens of percent from one minute to the next, and the
#: calibration's time drifts with it.  The solve timings of --trace 0 are
#: scaled by REFERENCE_CALIBRATION_S over the run's median calibration time,
#: so they read as seconds on a machine where the calibration takes
#: REFERENCE_CALIBRATION_S (a 2-vCPU Intel Xeon VM with Python 3.11 and
#: numpy 2.4).  The unscaled figures are printed beside them.
CALIBRATION_LOOP = 20_000
CALIBRATION_POINTS = 12
CALIBRATE_EVERY_S = 0.1
REFERENCE_CALIBRATION_S = 0.006


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    if not (SRC / "orienteer" / "__init__.py").is_file():
        raise BenchmarkError(f"no orienteer sources under {SRC}")
    work.mkdir(parents=True, exist_ok=True)
    specs = workload.instances(seed)
    setup_s, instance_dir = set_up(specs, work)
    sys.path.insert(0, str(SRC))
    import numpy

    import orienteer
    from orienteer import cli

    if Path(orienteer.__file__).resolve().parent != (SRC / "orienteer").resolve():
        raise BenchmarkError(f"imported orienteer from {orienteer.__file__}, not {SRC}")
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, seed {seed}, {seconds:g} s, trace {int(trace)}"
    )
    paths = [instance_dir / f"inst-{i}.json" for i in range(len(specs))]
    instances = [json.loads(p.read_text()) for p in paths]

    # The first solve in a process is slower; pay that before timing.
    solve(cli.main, paths[0], work / "warm-up.json")
    if trace:
        return run_traced(cli.main, workload, paths, instances, seconds, work)
    return run_plain(cli.main, paths, instances, seconds, setup_s, work, workload.tail_pct)


def set_up(specs: list, work: Path) -> tuple[float, Path]:
    """(median over fresh interpreters of: import orienteer, generate and
    write every instance file; the directory of the last set-up's files)."""
    specs_file = work / "specs.json"
    specs_file.write_text(json.dumps(specs))
    times = []
    for repeat in range(SETUP_REPEATS):
        out = work / f"set-up-{repeat}"
        out.mkdir()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_child.py"), str(specs_file), str(out), str(SRC)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"set-up took over {SETUP_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times), out


def calibration_instance():
    rng = random.Random(0)
    return reference.distances([(rng.random(), rng.random()) for _ in range(CALIBRATION_POINTS)])


def calibrate(dmat) -> float:
    """Seconds taken by the calibration."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    reference.held_karp(dmat, 0)
    return time.perf_counter() - start


def solve(cli_main, instance: Path, out: Path) -> tuple[int, float]:
    """One `orienteer solve` call: (exit code, wall seconds)."""
    start = time.perf_counter()
    try:
        code = cli_main(["solve", str(instance), "-o", str(out)])
    except Exception:  # a crash is a failed solve, not a benchmark error
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


class Checker:
    """Checks every solve's answer, outside the timed region.

    Each solve's exit code is checked on its own.  The first answer written
    for an instance is checked against the optimum; every later answer for
    it must be byte-identical to that one.
    """

    def __init__(self, instances: list):
        self.instances = instances
        self.first: dict[int, tuple[bytes, bool, float]] = {}  # index -> (answer, ok, gap)

    def __call__(self, index: int, code: int, out: Path) -> tuple[bool, float]:
        ok, gap, detail = False, 0.0, f"exit code {code}"
        if code == 0:
            answer = out.read_bytes()
            if index not in self.first:
                ok, gap, detail = reference.check_answer(self.instances[index], json.loads(answer))
                self.first[index] = (answer, ok, gap)
            else:
                first, ok, gap = self.first[index]
                if answer != first:
                    ok, detail = False, "answer differs from the first answer for this instance"
        if not ok:
            print(f"FAILED instance {index}: {detail}", file=sys.stderr)
        return ok, gap


def run_plain(cli_main, paths, instances, seconds, setup_s, work, tail_pct) -> dict:
    records = []  # (instance index, exit code, seconds)
    dmat, calibrations, since = calibration_instance(), [], CALIBRATE_EVERY_S
    start = time.perf_counter()
    while True:
        index = len(records) % len(paths)
        code, elapsed = solve(cli_main, paths[index], work / f"sol-{len(records)}.json")
        records.append((index, code, elapsed))
        since += elapsed
        if since >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate(dmat))
            since = 0.0
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    check = Checker(instances)
    outcomes = [check(i, code, work / f"sol-{n}.json") for n, (i, code, _) in enumerate(records)]
    print(f"checks: {len(records)} answers, {len(check.first)} against the optimum, in "
          f"{time.perf_counter() - check_start:.2f} s")
    passed = sum(ok for ok, _ in outcomes)
    attempted = len(records)
    times = [elapsed for _, _, elapsed in records]
    p50 = statistics.median(times)
    tail_s, beyond = percentile(times, tail_pct)
    calibration_s = statistics.median(calibrations)
    scale = REFERENCE_CALIBRATION_S / calibration_s
    # Over the answers that passed; with none, count the whole answer as lost.
    answer_gap = statistics.fmean(gap for ok, gap in outcomes if ok) if passed else 1.0
    fail_rate = (attempted - passed) / attempted

    print(f"solves: {attempted} attempted, {passed} passed, {sum(times):.3f} s solving, "
          f"{wall:.3f} s wall with the calibrations")
    print(f"fail_rate {fail_rate:.4f} ratio; answer_gap {answer_gap:.6f} ratio")
    print(f"solve_s.p50 over {attempted} samples; solve_s.tail is p{tail_pct} "
          f"with {beyond} samples beyond it")
    if beyond < TAIL_BEYOND:
        print(f"warning: fewer than {TAIL_BEYOND} samples beyond p{tail_pct}; "
              "the tail is under-sampled")
    print(f"calibration: median {calibration_s * 1e3:.3f} ms over {len(calibrations)} runs, "
          f"reference {REFERENCE_CALIBRATION_S * 1e3:.3f} ms; solve timings scaled by "
          f"{scale:.4f}")
    print(f"unscaled: solves_per_s {passed / sum(times):.6g} 1/s, solve_s.p50 {p50:.6g} s, "
          f"solve_s.tail {tail_s:.6g} s")
    metrics = {
        "solves_per_s": (passed / (sum(times) * scale), "1/s"),
        "solve_s.p50": (p50 * scale, "s"),
        "solve_s.tail": (tail_s * scale, "s"),
        "pass_rate": (1.0 - fail_rate, "ratio"),
        "answer_ratio": (1.0 + answer_gap, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result(passed == attempted, attempted, attempted - passed, metrics)


def percentile(times: list, pct: int) -> tuple[float, int]:
    """(nearest-rank percentile value, number of samples above it)."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def solve_traced(tracer: Tracer, cli_main, instance: Path, out: Path) -> tuple[int, float]:
    """`solve` with every layer patched for the length of the call."""
    tracer.patch()
    try:
        return solve(lambda argv: tracer.run(cli_main, argv), instance, out)
    finally:
        tracer.unpatch()


def run_traced(cli_main, workload, paths, instances, seconds, work) -> dict:
    tracer = Tracer()
    check = Checker(instances)
    plain_s = traced_s = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted == 0:
        index = attempted % len(paths)
        plain_out = work / f"plain-{index}.json"
        traced_out = work / f"traced-{index}.json"
        # Alternate which run goes first, so warm caches favour neither.
        if attempted % 2:
            code_t, elapsed_t = solve_traced(tracer, cli_main, paths[index], traced_out)
            code_p, elapsed_p = solve(cli_main, paths[index], plain_out)
        else:
            code_p, elapsed_p = solve(cli_main, paths[index], plain_out)
            code_t, elapsed_t = solve_traced(tracer, cli_main, paths[index], traced_out)
        attempted += 1
        plain_s += elapsed_p
        traced_s += elapsed_t
        same = code_p == code_t == 0 and plain_out.read_bytes() == traced_out.read_bytes()
        if not same:
            print(f"FAILED instance {index}: traced and plain solution files differ",
                  file=sys.stderr)
        if not (same and check(index, code_p, plain_out)[0]):
            failed += 1

    overhead = traced_s - plain_s
    print(f"solves: {attempted} instances, each plain and traced; "
          f"{plain_s:.3f} s plain, {traced_s:.3f} s traced")
    print(f"tracing overhead: {overhead:.3f} s ({overhead / plain_s:+.1%} of plain)")
    print(f"self-time share by layer on {workload.name}:")
    shares = tracer.shares()
    for layer, share in shares.items():
        print(f"  {layer:24s} {share:7.1%}  {tracer.self_s[layer]:9.3f} s")
    dominant = next(iter(shares))
    print(f"dominant layer on {workload.name}: {dominant} ({shares[dominant]:.1%})")
    spans = WORK / f"spans-{workload.name}.tsv"
    tracer.write_spans(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}, "
          f"{tracer.dropped_spans} counted but not kept")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (overhead, "s")
    return result(failed == 0, attempted, failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
