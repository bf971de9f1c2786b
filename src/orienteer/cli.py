"""Command-line driver: generate, solve, verify and render instances.

Exit codes: 0 success, 2 malformed input, 3 infeasible, 4 over an enumeration
cap, 5 verification failure.  Failures print a machine-readable JSON object
{"error": <kind>, "detail": <message>} on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
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
from .window_solver import ExactWindowSolver

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4
EXIT_VERIFICATION = 5


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
    s.add_argument("--oracle-check", action="store_true",
                   help="re-solve with the brute-force oracle and compare")
    s.add_argument("--render-out", default=None, help="also write an SVG rendering")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="re-check a solution against its instance")
    v.add_argument("instance")
    v.add_argument("solution")
    v.add_argument("--oracle-check", action="store_true")
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
    solver = ExactWindowSolver()

    points = inst.point_set()
    config = {
        "delta": inst.delta,
        "window_solver": "exact-bitmask",
        "package_version": __version__,
    }
    if inst.kind == "ktsp":
        path, length = solve_ktsp(points, inst.source, inst.sink, inst.k, window_solver=solver)
        paths = [path]
    elif inst.kind == "mktsp":
        multi, length = solve_mktsp(
            points, [tuple(p) for p in inst.pairs], inst.k, window_solver=solver
        )
        paths = multi.paths
    else:
        result = solve_orienteering(
            OrienteeringInstance(points, inst.root, inst.budget, inst.delta),
            window_solver=solver,
        )
        paths, length = [result.path], result.length
    solution = Solution.of(inst.kind, length, [p.visits for p in paths], config)

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
