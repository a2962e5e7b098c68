"""Command-line front end.

One subcommand per experiment (conjI, conj1..conj5, conjII, obs1, obs2)
plus a system-file solver.  Exit codes: 0 = confirmed at scale,
2 = counterexample found, 1 = execution error, 64 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import drivers
from .linalg import min_norm_solution, rank, rational_to_text
from .linear import (
    LinSystem,
    check_bound_pow2,
    conj3_stats,
    conj4_check,
    encode,
)
from .poly import Classification, buchberger, classify_dimension
from .polysys import (
    PolySystem,
    minimal_norm_indices,
    to_polynomials,
)
from .report import Report
from .solve import solve_zero_dim
from .textio import ParseError, parse_system_file

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"range must look like A..B, got {text!r}") from exc


def _add_common(sub: argparse.ArgumentParser, n_default: int, iters_default: int) -> None:
    sub.add_argument("--n", type=int, default=n_default, help="variable count")
    sub.add_argument("--iters", type=int, default=iters_default, help="randomized trial count")
    sub.add_argument("--seed", type=int, default=0, help="64-bit seed for the run")
    sub.add_argument("--threads", type=int, default=1, help="worker threads (scheduling only)")
    sub.add_argument("--json", action="store_true", help="print the JSON report")
    sub.add_argument("--witness-dir", default="witnesses", help="directory for counterexample files")


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing never mutates it."""
    parser = _Parser(prog="eqbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conjI", help="random unique-solution systems vs the 2^(n-1) bound")
    _add_common(p, 5, 1000)

    p = sub.add_parser("conj1", help="random card-<=-n systems vs the minimal-norm bound")
    _add_common(p, 5, 1000)
    p.add_argument(
        "--strict-semantics",
        action="store_true",
        help="encode drawn rows with right-hand side 0 instead of the verbatim k=j rule",
    )

    p = sub.add_parser("conj2", help="pattern-row minors vs the 2^(n-1) determinant bound")
    _add_common(p, 5, 1000)
    p.add_argument("--exhaustive", action="store_true", help="visit every row combination")
    p.add_argument("--range", type=_parse_range, default=None, metavar="A..B",
                   help="combination-rank interval for partitioned exhaustive runs")

    p = sub.add_parser("conj3", help="unique solutions vs numerator/denominator bounds")
    _add_common(p, 5, 1000)
    p.add_argument("--exhaustive", action="store_true", help="visit every rank-n system")
    p.add_argument("--range", type=_parse_range, default=None, metavar="A..B",
                   help="combination-rank interval for partitioned exhaustive runs")

    p = sub.add_parser("conj4", help="clamped consecutive ratios vs the factor-2 bound")
    _add_common(p, 5, 1000)

    p = sub.add_parser("conj5", help="greedy saturation vs the double-exponential bounds")
    _add_common(p, 5, 1000)
    p.add_argument("--variant", choices=("a", "b", "c", "d"), default="b")

    p = sub.add_parser("conjII", help="minimal-norm solutions of saturated systems vs 2^(2^(n-2))")
    _add_common(p, 4, 100)

    p = sub.add_parser("obs1", help="hat replacement for linear systems")
    _add_common(p, 3, 1000)
    p.add_argument("--exhaustive", action="store_true", default=None,
                   help="enumerate every subset of the deduplicated pool (default at n <= 3)")

    p = sub.add_parser("obs2", help="hat replacement for saturated polynomial systems")
    _add_common(p, 3, 100)

    p = sub.add_parser("solve", help="solve a system file and print its statistics")
    p.add_argument("path", help="system file (one equation per line)")
    p.add_argument("--n", type=int, default=None, help="override the inferred variable count")
    p.add_argument("--json", action="store_true")
    return parser


def _emit(report: Report, as_json: bool) -> int:
    print(report.to_json() if as_json else report.to_text())
    return report.exit_code


def _run_solve(args) -> int:
    system = parse_system_file(args.path, n=args.n)
    if isinstance(system, LinSystem):
        return _solve_linear(system, args.json)
    return _solve_poly(system, args.json)


def _solve_linear(s: LinSystem, as_json: bool) -> int:
    enc = encode(s)
    from .linalg import is_consistent

    consistent = is_consistent(enc.a, enc.b)
    payload: dict = {"kind": "linear", "n": s.n, "equations": len(s.equations),
                     "consistent": consistent}
    if consistent:
        x = min_norm_solution(enc.a, enc.b)
        unique = rank(enc.a) == s.n
        num, den = conj3_stats(x)
        ratio, ratio_ok = conj4_check(x)
        payload.update(
            solution_kind="unique" if unique else "minimal-norm",
            solution=[rational_to_text(v) for v in x],
            max_abs_coordinate=rational_to_text(max((abs(v) for v in x), default=Fraction(0))),
            pow2_bound=rational_to_text(Fraction(2) ** (s.n - 1)),
            pow2_pass=check_bound_pow2(x, s.n).passed,
            max_abs_numerator=num,
            max_denominator=den,
            max_clamped_ratio=rational_to_text(ratio),
            clamped_ratio_pass=ratio_ok,
        )
    if as_json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(f"linear system: n = {s.n}, {len(s.equations)} equations")
        print(f"consistent: {str(consistent).lower()}")
        if consistent:
            print(f"{payload['solution_kind']} solution: ({', '.join(payload['solution'])})")
            print(f"max |coordinate|: {payload['max_abs_coordinate']}"
                  f" (2^(n-1) = {payload['pow2_bound']}:"
                  f" {'pass' if payload['pow2_pass'] else 'VIOLATION'})")
            print(f"max |numerator|: {payload['max_abs_numerator']},"
                  f" max denominator: {payload['max_denominator']}")
            print(f"max clamped ratio: {payload['max_clamped_ratio']}"
                  f" ({'pass' if payload['clamped_ratio_pass'] else 'VIOLATION'})")
    return 0


def _solve_poly(s: PolySystem, as_json: bool) -> int:
    polys = to_polynomials(s)
    if s.unknowns == 0 or not polys:
        classification = Classification.ZERO_DIMENSIONAL if s.unknowns == 0 else (
            Classification.POSITIVE_DIMENSIONAL
        )
        solutions = []
    else:
        basis = buchberger(polys, polys[0].order)
        classification = classify_dimension(basis)
        solutions = (
            solve_zero_dim(polys) if classification is Classification.ZERO_DIMENSIONAL else []
        )
    payload: dict = {
        "kind": "polynomial",
        "n": s.n,
        "equations": len(s.equations),
        "classification": classification.value,
    }
    if classification is Classification.ZERO_DIMENSIONAL:
        payload["solutions"] = [
            [[z.real, z.imag] for z in sol.entries] for sol in solutions
        ]
        payload["residuals"] = [sol.residual for sol in solutions]
        payload["max_modulus"] = max(
            (abs(z) for sol in solutions for z in sol.entries), default=0.0
        )
        payload["min_norm_solution_indices"] = list(minimal_norm_indices(solutions))
    if as_json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(f"polynomial system: n = {s.n}, {len(s.equations)} equations")
        print(f"classification: {classification.value}")
        if classification is Classification.ZERO_DIMENSIONAL:
            print(f"solutions: {len(solutions)}")
            for sol in solutions:
                coords = ", ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in sol.entries)
                print(f"  ({coords})  residual {sol.residual:.3g}")
            print(f"max modulus: {payload['max_modulus']:.17g}")
            print(f"minimal-norm solution indices: {payload['min_norm_solution_indices']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "range", None) is not None and not getattr(args, "exhaustive", False):
        parser.error("--range requires --exhaustive")
    try:
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "conjI":
            report = drivers.run_conjI(args.n, args.iters, args.seed, args.threads, args.witness_dir)
        elif args.command == "conj1":
            report = drivers.run_conj1(
                args.n, args.iters, args.seed, args.strict_semantics, args.threads, args.witness_dir
            )
        elif args.command == "conj2":
            report = drivers.run_conj2(
                args.n, args.exhaustive, args.iters, args.seed, args.range,
                args.threads, args.witness_dir,
            )
        elif args.command == "conj3":
            report = drivers.run_conj3(
                args.n, args.exhaustive, args.iters, args.seed, args.range,
                args.threads, args.witness_dir,
            )
        elif args.command == "conj4":
            report = drivers.run_conj4(args.n, args.iters, args.seed, args.threads, args.witness_dir)
        elif args.command == "conj5":
            report = drivers.run_conj5(
                args.variant, args.n, args.iters, args.seed, args.threads, args.witness_dir
            )
        elif args.command == "conjII":
            report = drivers.run_conjII(args.n, args.iters, args.seed, args.threads, args.witness_dir)
        elif args.command == "obs1":
            exhaustive = args.exhaustive if args.exhaustive is not None else args.n <= 3
            report = drivers.run_obs1(
                args.n, exhaustive, args.iters, args.seed, args.threads, args.witness_dir
            )
        elif args.command == "obs2":
            report = drivers.run_obs2(args.n, args.iters, args.seed, args.threads, args.witness_dir)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
            return USAGE_EXIT
        return _emit(report, args.json)
    except ParseError as exc:
        print(f"eqbounds: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"eqbounds: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
