"""Command-line front end.

One subcommand per experiment (conjI, conj1..conj5, conjII, obs1, obs2)
plus a system-file solver.  Exit codes: 0 = confirmed at scale,
2 = counterexample found, 1 = execution error, 64 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import drivers
from .linalg import is_consistent, min_norm_solution, rank, rational_to_text
from .linear import (
    Mul,
    System,
    check_bound_pow2,
    conj3_stats,
    conj4_check,
    encode,
)
from .poly import Classification, buchberger, classify_dimension
from .polysys import minimal_norm_indices, to_polynomials
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


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _exhaustive(help_text: str, **keywords) -> tuple:
    return ("--exhaustive", dict(action="store_true", help=help_text, **keywords))


_RANGE = ("--range", dict(type=_parse_range, default=None, metavar="A..B", dest="comb_range",
                          help="combination-rank interval for partitioned exhaustive runs"))

# command -> (help, default n, default iters, extra options as (flag, add_argument keywords));
# main calls drivers.run_<command> with the parsed options as keywords
COMMANDS = {
    "conjI": ("random unique-solution systems vs the 2^(n-1) bound", 5, 1000, ()),
    "conj1": ("random card-<=-n systems vs the minimal-norm bound", 5, 1000, (
        ("--strict-semantics", dict(
            action="store_true",
            help="encode drawn rows with right-hand side 0 instead of the verbatim k=j rule")),
    )),
    "conj2": ("pattern-row minors vs the 2^(n-1) determinant bound", 5, 1000,
              (_exhaustive("visit every row combination"), _RANGE)),
    "conj3": ("unique solutions vs numerator/denominator bounds", 5, 1000,
              (_exhaustive("visit every rank-n system"), _RANGE)),
    "conj4": ("clamped consecutive ratios vs the factor-2 bound", 5, 1000, ()),
    "conj5": ("greedy saturation vs the double-exponential bounds", 5, 1000, (
        ("--variant", dict(choices=("a", "b", "c", "d"), default="b")),
    )),
    "conjII": ("minimal-norm solutions of saturated systems vs 2^(2^(n-2))", 4, 100, ()),
    "obs1": ("hat replacement for linear systems", 3, 1000, (_exhaustive(
        "enumerate every subset of the deduplicated pool (default at n <= 3)", default=None),)),
    "obs2": ("hat replacement for saturated polynomial systems", 3, 100, ()),
}


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing never mutates it."""
    parser = _Parser(prog="eqbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, n_default, iters_default, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--n", type=int, default=n_default, help="variable count")
        p.add_argument("--iters", type=_count, default=iters_default,
                       help="randomized trial count")
        p.add_argument("--seed", type=int, default=0, help="64-bit seed for the run")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (scheduling only)")
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument("--witness-dir", default="witnesses",
                       help="directory for counterexample files")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)

    p = sub.add_parser("solve", help="solve a system file and print its statistics")
    p.add_argument("path", help="system file (one equation per line)")
    p.add_argument("--n", type=int, default=None, help="override the inferred variable count")
    p.add_argument("--json", action="store_true")
    return parser


def _solve_linear(s: System) -> tuple[dict, list[str]]:
    enc = encode(s)
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
            pow2_pass=check_bound_pow2(x, s.n),
            max_abs_numerator=num,
            max_denominator=den,
            max_clamped_ratio=rational_to_text(ratio),
            clamped_ratio_pass=ratio_ok,
        )
    lines = [f"linear system: n = {s.n}, {len(s.equations)} equations",
             f"consistent: {str(consistent).lower()}"]
    if consistent:
        lines += [
            f"{payload['solution_kind']} solution: ({', '.join(payload['solution'])})",
            f"max |coordinate|: {payload['max_abs_coordinate']}"
            f" (2^(n-1) = {payload['pow2_bound']}:"
            f" {'pass' if payload['pow2_pass'] else 'VIOLATION'})",
            f"max |numerator|: {payload['max_abs_numerator']},"
            f" max denominator: {payload['max_denominator']}",
            f"max clamped ratio: {payload['max_clamped_ratio']}"
            f" ({'pass' if payload['clamped_ratio_pass'] else 'VIOLATION'})",
        ]
    return payload, lines


def _solve_poly(s: System) -> tuple[dict, list[str]]:
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
    lines = [f"polynomial system: n = {s.n}, {len(s.equations)} equations",
             f"classification: {classification.value}"]
    if classification is Classification.ZERO_DIMENSIONAL:
        lines.append(f"solutions: {len(solutions)}")
        for sol in solutions:
            coords = ", ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in sol.entries)
            lines.append(f"  ({coords})  residual {sol.residual:.3g}")
        lines.append(f"max modulus: {payload['max_modulus']:.17g}")
        lines.append(f"minimal-norm solution indices: {payload['min_norm_solution_indices']}")
    return payload, lines


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    command = options.pop("command")
    as_json = options.pop("json")
    if options.get("comb_range") is not None and not options["exhaustive"]:
        parser.error("--range requires --exhaustive")
    try:
        if command == "solve":
            system = parse_system_file(options["path"], n=options["n"])
            linear = not any(isinstance(eq, Mul) for eq in system.equations)
            solve = _solve_linear if linear else _solve_poly
            payload, lines = solve(system)
            code = 0
            text = json.dumps(payload, indent=2) if as_json else "\n".join(lines)
        else:
            if command == "obs1" and options["exhaustive"] is None:
                options["exhaustive"] = options["n"] <= 3
            report = getattr(drivers, f"run_{command}")(**options)
            code = report.exit_code
            text = report.to_json() if as_json else report.to_text()
        print(text)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except BrokenPipeError:
        # The reader left early; the run itself is complete.  Point fd 1 at
        # devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (ParseError, ValueError, OSError) as exc:
        print(f"eqbounds: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
