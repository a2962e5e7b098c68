"""Text format for systems and witness files.

One equation per line, in the forms

    x<i> = 1
    x<i> + x<j> = x<k>
    x<i> * x<j> = x<k>

with arbitrary whitespace and ``#`` comments.  A file parses to a
`linear.System`; the variable count is the largest index mentioned
unless an explicit override is given.

Witness files are ordinary system files whose solution and statistics
ride along as comment lines, so they re-parse with the same grammar.  A
linear witness carries one exact ``# solution:`` line; a polynomial
witness carries complex ``# solution:`` lines, each followed by a
``# residual:`` line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .linalg import QVector, rational_to_text
from .linear import Add, Equation, Mul, System, Unit
from .solve import ComplexVector


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


_TOKEN = re.compile(r"\s*(?:(x\d+)|(\+)|(\*)|(=)|(1\b)|(\S))")


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if m is None:
            break
        col = m.start(m.lastindex) + 1
        text = m.group(m.lastindex)
        kind = ("var", "plus", "star", "eq", "one", "junk")[m.lastindex - 1]
        if kind == "junk":
            raise ParseError(lineno, col, f"unexpected token {text!r}")
        tokens.append((kind, text, col))
        pos = m.end()
    return tokens


def _parse_line(line: str, lineno: int) -> Equation | None:
    code = line.split("#", 1)[0]
    tokens = _tokenize(code, lineno)
    if not tokens:
        return None
    kinds = [t[0] for t in tokens]
    if kinds == ["var", "eq", "one"]:
        return Unit(int(tokens[0][1][1:]))
    if kinds == ["var", "plus", "var", "eq", "var"]:
        i, j, k = (int(tokens[p][1][1:]) for p in (0, 2, 4))
        return Add(i, j, k)
    if kinds == ["var", "star", "var", "eq", "var"]:
        i, j, k = (int(tokens[p][1][1:]) for p in (0, 2, 4))
        return Mul(i, j, k)
    # best-effort column for the diagnostic: first token that breaks the shape
    for pos, expected in enumerate(_expected_shape(kinds)):
        if pos >= len(kinds) or kinds[pos] != expected:
            col = tokens[pos][2] if pos < len(tokens) else (tokens[-1][2] + 1)
            raise ParseError(lineno, col, "malformed equation")
    raise ParseError(lineno, tokens[0][2], "malformed equation")


def _expected_shape(kinds: list[str]) -> list[str]:
    if len(kinds) >= 2 and kinds[1] == "plus":
        return ["var", "plus", "var", "eq", "var"]
    if len(kinds) >= 2 and kinds[1] == "star":
        return ["var", "star", "var", "eq", "var"]
    return ["var", "eq", "one"]


def parse_system_text(text: str, n: int | None = None) -> System:
    """Parse a system; duplicates collapse, n defaults to the max index."""
    equations: list[Equation] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        eq = _parse_line(line, lineno)
        if eq is not None:
            equations.append(eq)
    max_index = 0
    for eq in equations:
        idx = (eq.i,) if isinstance(eq, Unit) else (eq.i, eq.j, eq.k)
        max_index = max(max_index, *idx)
    inferred = n if n is not None else max(max_index, 1)
    if max_index > inferred:
        raise ParseError(0, 0, f"variable x{max_index} exceeds n = {inferred}")
    return System(inferred, equations)


def parse_system_file(path: str | Path, n: int | None = None) -> System:
    return parse_system_text(Path(path).read_text(), n=n)


def equation_to_text(eq: Equation) -> str:
    if isinstance(eq, Unit):
        return f"x{eq.i} = 1"
    op = "+" if isinstance(eq, Add) else "*"
    return f"x{eq.i} {op} x{eq.j} = x{eq.k}"


def system_to_text(s: System) -> str:
    lines = [equation_to_text(eq) for eq in s.equations]
    if s.fix_x1 and Unit(1) not in s.equations:
        lines.insert(0, equation_to_text(Unit(1)))
    return "\n".join(lines)


def lin_witness_text(s: System, x: Sequence[Fraction], note: str) -> str:
    body = system_to_text(s)
    sol = " ".join(rational_to_text(Fraction(v)) for v in x)
    return f"# {note}\n{body}\n# solution: {sol}\n"


def poly_witness_text(s: System, solutions: Sequence[ComplexVector], note: str) -> str:
    lines = [f"# {note}", system_to_text(s)]
    for sol in solutions:
        coords = " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in sol.entries)
        lines.append(f"# solution: {coords}")
        lines.append(f"# residual: {sol.residual:.17g}")
    return "\n".join(lines) + "\n"


def parse_witness_solution(text: str) -> QVector | None:
    """Recover the exact solution comment from a linear witness file;
    None for a witness without one and for a polynomial witness."""
    lines = [line.strip() for line in text.splitlines()]
    if any(line.startswith("# residual:") for line in lines):
        return None
    for line in lines:
        if line.startswith("# solution:"):
            return tuple(Fraction(p) for p in line.removeprefix("# solution:").split())
    return None
