"""Command-line driver: generate, solve, verify and render instances.

Exit codes: 0 success, 2 malformed input, 3 infeasible, 4 over an enumeration
cap, 5 verification failure.  Failures print a machine-readable JSON object
{"error": <kind>, "detail": <message>} on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import __version__
from .errors import (
    CapacityError,
    InfeasibleError,
    InputError,
    OrienteerError,
    VerificationError,
)
from .generate import DISTRIBUTIONS, generate
from .io import Solution, dumps, load_instance, load_solution
from .ktsp import solve_ktsp
from .mktsp import solve_mktsp
from .orienteering import OrienteeringInstance, solve_orienteering
from .render import render_svg
from .verify import verify_solution
from .window_solver import DEFAULT_POINT_CAP, ExactWindowSolver

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4
EXIT_VERIFICATION = 5


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _oracle_cap(getattr(args, "cap_override", None)):
            return args.func(args)
    except InputError as exc:
        return _fail("malformed-input", exc, EXIT_MALFORMED)
    except InfeasibleError as exc:
        return _fail("infeasible", exc, EXIT_INFEASIBLE)
    except CapacityError as exc:
        return _fail("capacity", exc, EXIT_CAPACITY)
    except VerificationError as exc:
        return _fail("verification", exc, EXIT_VERIFICATION)
    except OrienteerError as exc:
        return _fail("error", exc, 1)


@contextlib.contextmanager
def _oracle_cap(cap):
    """Set the oracle's point cap for one command, restoring it afterwards."""
    saved = os.environ.get("ORIENTEER_MAX_POINTS")
    if cap is not None:
        os.environ["ORIENTEER_MAX_POINTS"] = str(cap)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("ORIENTEER_MAX_POINTS", None)
        else:
            os.environ["ORIENTEER_MAX_POINTS"] = saved


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing reads the parser and returns a fresh namespace, so one parser
    serves every call of ``main``.
    """
    parser = argparse.ArgumentParser(
        prog="orienteer",
        description="Excess-bounded k-TSP, (m,k)-TSP and orienteering at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"orienteer {__version__}")
    sub = parser.add_subparsers(required=True)

    g = sub.add_parser("generate", help="write a seeded random instance")
    g.add_argument("--kind", choices=("ktsp", "mktsp", "orienteering"), default="orienteering")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform-cube")
    g.add_argument("--jitter", type=float, default=0.01)
    g.add_argument("--delta", type=float, default=0.5)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--budget", type=float, default=None)
    g.add_argument("--m", type=int, default=2, help="pair count for mktsp")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file and write the solution")
    s.add_argument("instance")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--kind", default=None, help="must match the instance when given")
    s.add_argument("--delta", type=float, default=None, help="override the instance delta")
    s.add_argument("--k", type=int, default=None, help="override the instance k")
    s.add_argument("--budget", type=float, default=None, help="override the instance budget")
    s.add_argument("--seed", type=int, default=0, help="seed for direction sampling")
    s.add_argument("--oracle-check", action="store_true",
                   help="re-solve with the brute-force oracle and compare")
    s.add_argument("--render-out", default=None, help="also write an SVG rendering")
    s.add_argument("--cap-override", type=int, default=None,
                   help="override enumeration caps (window solver and oracle)")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="re-check a solution against its instance")
    v.add_argument("instance")
    v.add_argument("solution")
    v.add_argument("--oracle-check", action="store_true")
    v.add_argument("--cap-override", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("render", help="write an SVG drawing of instance and solution")
    r.add_argument("instance")
    r.add_argument("solution", nargs="?", default=None)
    r.add_argument("-o", "--output", required=True)
    r.add_argument("--show-windows", action="store_true",
                   help="overlay the window decomposition as shaded slabs")
    r.set_defaults(func=cmd_render)
    return parser


def cmd_generate(args) -> int:
    inst = generate(
        seed=args.seed,
        n=args.n,
        d=args.d,
        distribution=args.distribution,
        kind=args.kind,
        jitter=args.jitter,
        delta=args.delta,
        k=args.k,
        budget=args.budget,
        m=args.m,
    )
    _write(args.output, dumps(inst))
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.kind is not None and args.kind != inst.kind:
        raise InputError(f"--kind {args.kind} does not match instance kind {inst.kind}")
    if args.delta is not None:
        inst.delta = args.delta
    if args.k is not None:
        inst.k = args.k
    if args.budget is not None:
        inst.budget = args.budget
    inst.validate()
    solver = ExactWindowSolver(
        point_cap=args.cap_override if args.cap_override is not None else DEFAULT_POINT_CAP
    )

    points = inst.point_set()
    config = {
        "delta": inst.delta,
        "seed": args.seed,
        "window_solver": "exact-bitmask",
        "package_version": __version__,
    }
    if inst.kind == "ktsp":
        path, length = solve_ktsp(points, inst.source, inst.sink, inst.k, inst.delta, solver)
        solution = Solution(
            kind=inst.kind,
            length=length,
            visited=len(set(path.visits)),
            visits=list(path.visits),
            config=config,
        )
    elif inst.kind == "mktsp":
        multi, total = solve_mktsp(
            points, [tuple(p) for p in inst.pairs], inst.k, inst.delta,
            window_solver=solver, rng_seed=args.seed,
        )
        solution = Solution(
            kind=inst.kind,
            length=total,
            visited=len(multi.visited_ids()),
            visits_per_path=[list(p.visits) for p in multi.paths],
            config=config,
        )
    else:
        result = solve_orienteering(
            OrienteeringInstance(points, inst.root, inst.budget, inst.delta),
            window_solver=solver,
            rng_seed=args.seed,
        )
        solution = Solution(
            kind=inst.kind,
            length=result.length,
            visited=result.visited,
            visits=list(result.path.visits),
            config=config,
        )

    report = verify_solution(inst, solution, oracle_check=args.oracle_check)
    if not report.passed:
        raise VerificationError(json.dumps(report.to_dict()))
    solution.verification = "passed"
    _write(args.output, dumps(solution))
    if args.render_out:
        _write(args.render_out, render_svg(inst, solution))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    sol = load_solution(args.solution)
    report = verify_solution(inst, sol, oracle_check=args.oracle_check)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_render(args) -> int:
    inst = load_instance(args.instance)
    sol = load_solution(args.solution) if args.solution else None
    _write(args.output, render_svg(inst, sol, show_windows=args.show_windows))
    return EXIT_OK


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
