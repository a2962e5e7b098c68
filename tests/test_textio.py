from fractions import Fraction

import pytest

from eqbounds.linear import Add, Mul, System, Unit
from eqbounds.solve import ComplexVector
from eqbounds.textio import (
    ParseError,
    equation_to_text,
    lin_witness_text,
    parse_system_file,
    parse_system_text,
    parse_witness_solution,
    poly_witness_text,
    system_to_text,
)


def test_parse_linear():
    s = parse_system_text("x1 = 1\nx1 + x1 = x2")
    assert s == System(2, [Unit(1), Add(1, 1, 2)])


def test_parse_poly():
    s = parse_system_text("x1 * x1 = x2")
    assert s == System(2, [Mul(1, 1, 2)])


def test_parse_comments_and_whitespace():
    text = "# header\n\n   x1   =   1   # trailing\n\tx2+x3=x1\n"
    s = parse_system_text(text)
    assert s.equations == (Unit(1), Add(2, 3, 1))
    assert s.n == 3


def test_parse_duplicates_collapse():
    s = parse_system_text("x1 + x2 = x3\nx2 + x1 = x3")
    assert len(s.equations) == 1


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_system_text("x1 + = x2")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_system_text("x1 = 2")
    with pytest.raises(ParseError):
        parse_system_text("y1 = 1")
    with pytest.raises(ParseError):
        parse_system_text("x1 = 1\nx1 + x2")


def test_parse_n_override():
    s = parse_system_text("x1 = 1", n=4)
    assert s.n == 4
    with pytest.raises(ParseError):
        parse_system_text("x3 = 1", n=2)


def test_round_trip():
    s = System(3, [Unit(1), Add(1, 2, 3)])
    text = system_to_text(s)
    assert parse_system_text(text) == s
    p = System(3, [Unit(2), Mul(1, 2, 3)])
    assert parse_system_text(system_to_text(p)) == p


def test_fix_x1_serialization_includes_unit():
    p = System(2, [Mul(2, 2, 2)], fix_x1=True)
    text = system_to_text(p)
    assert "x1 = 1" in text
    reparsed = parse_system_text(text)
    assert Unit(1) in reparsed.equations


def test_equation_to_text():
    assert equation_to_text(Unit(3)) == "x3 = 1"
    assert equation_to_text(Add(1, 2, 3)) == "x1 + x2 = x3"
    assert equation_to_text(Mul(2, 2, 1)) == "x2 * x2 = x1"


def test_lin_witness_round_trip(tmp_path):
    s = System(2, [Unit(1), Add(1, 1, 2)])
    x = (Fraction(1), Fraction(2))
    body = lin_witness_text(s, x, "demo witness")
    path = tmp_path / "w.txt"
    path.write_text(body)
    reparsed = parse_system_file(path)
    assert reparsed == s
    assert parse_witness_solution(body) == x


def test_poly_witness_parses_back(tmp_path):
    s = System(2, [Mul(1, 1, 2)])
    sol = ComplexVector((1 + 0j, 1 + 0j), 1e-12)
    body = poly_witness_text(s, [sol], "demo")
    path = tmp_path / "w.txt"
    path.write_text(body)
    assert parse_system_file(path) == s


# An obs2 witness whose system has no multiplication equation: its
# "# solution:" line holds the re/im pairs of a complex point, not a
# rational vector of length 2n.
OBS2_WITNESS = """# hat replacement failed, trial 1
x1 + x1 = x1
x1 + x1 = x2
# solution: 0 0 0 0
# residual: 0
"""


def test_poly_witness_has_no_exact_solution():
    assert parse_system_text(OBS2_WITNESS) == System(2, [Add(1, 1, 1), Add(1, 1, 2)])
    assert parse_witness_solution(OBS2_WITNESS) is None
    s = System(2, [Mul(1, 1, 2)])
    body = poly_witness_text(s, [ComplexVector((2 + 0j, 4 + 0j), 0.0)], "demo")
    assert parse_witness_solution(body) is None
    assert parse_witness_solution(poly_witness_text(s, [], "no solutions")) is None
