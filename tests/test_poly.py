from fractions import Fraction

import pytest

from eqbounds.poly import (
    Classification,
    MonomialOrder,
    NotZeroDimensionalError,
    OrderMismatchError,
    Polynomial,
    buchberger,
    classify_dimension,
    normal_form,
    standard_monomial_count,
)
from eqbounds.rng import SplitMix64

F = Fraction


def lex(n):
    return MonomialOrder.lex(n)


def grevlex(n):
    return MonomialOrder.grevlex(n)


def var(i, n, order):
    return Polynomial.variable(i, n, order)


def const(c, n, order):
    return Polynomial.constant(c, n, order)


def test_order_keys():
    o = grevlex(2)
    x2 = (2, 0)
    xy = (1, 1)
    y2 = (0, 2)
    assert o.key(x2) > o.key(xy) > o.key(y2)
    lo = lex(2)
    assert lo.key((1, 0)) > lo.key((0, 5))
    # 1 is minimal
    assert o.key((0, 0)) < o.key((1, 0))


def test_polynomial_arithmetic_and_text():
    o = lex(2)
    x, y = var(0, 2, o), var(1, 2, o)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x * x).to_text() == "1*x1^2"
    assert Polynomial.zero(2, o).to_text() == "0"
    q = const(3, 2, o) * x + const(F(1, 2), 2, o)
    assert q.to_text() == "3*x1 + 1/2"


def test_order_mismatch():
    p = var(0, 2, lex(2))
    q = var(0, 2, grevlex(2))
    with pytest.raises(OrderMismatchError):
        p + q


def test_normal_form_examples():
    o = lex(1)
    x = var(0, 1, o)
    g = buchberger([x - const(1, 1, o)], o)
    # members of the ideal reduce to zero
    assert normal_form((x - const(1, 1, o)) * x, g).is_zero
    assert normal_form(const(1, 1, o), g) == const(1, 1, o)
    assert normal_form(x * x, g) == const(1, 1, o)


def test_buchberger_single_and_inconsistent():
    o = lex(1)
    x = var(0, 1, o)
    b = buchberger([x - const(1, 1, o)], o)
    assert b.generators == (x - const(1, 1, o),)
    b = buchberger([x, x - const(1, 1, o)], o)
    assert b.contains_one
    assert classify_dimension(b) is Classification.INCONSISTENT


def test_buchberger_doubling_pair():
    # {x1 - 1, x1 + x1 - x2} eliminates to {x1 - 1, x2 - 2} under lex
    o = lex(2)
    x1, x2 = var(0, 2, o), var(1, 2, o)
    b = buchberger([x1 - const(1, 2, o), x1 + x1 - x2], o)
    assert set(b.generators) == {x1 - const(1, 2, o), x2 - const(2, 2, o)}
    assert classify_dimension(b) is Classification.ZERO_DIMENSIONAL


def test_classify_dimension():
    o = lex(2)
    x1, x2 = var(0, 2, o), var(1, 2, o)
    assert classify_dimension(buchberger([x1 - x2], o)) is Classification.POSITIVE_DIMENSIONAL
    assert (
        classify_dimension(buchberger([x1 - const(1, 2, o), x2 - const(2, 2, o)], o))
        is Classification.ZERO_DIMENSIONAL
    )


def test_standard_monomial_count():
    o = lex(1)
    x = var(0, 1, o)
    assert standard_monomial_count(buchberger([x - const(1, 1, o)], o)) == 1
    assert standard_monomial_count(buchberger([x * x - const(1, 1, o)], o)) == 2
    o2 = lex(2)
    x1, x2 = var(0, 2, o2), var(1, 2, o2)
    b = buchberger([x1 * x1 - const(1, 2, o2), x2 - x1], o2)
    assert standard_monomial_count(b) == 2
    with pytest.raises(NotZeroDimensionalError):
        standard_monomial_count(buchberger([x1 - x2], o2))


def random_system(rng, nvars, order, count):
    """Random small systems in the sum/product equation shape."""
    polys = []
    for _ in range(count):
        i = rng.randint(0, nvars - 1)
        j = rng.randint(0, nvars - 1)
        k = rng.randint(0, nvars - 1)
        xi, xj, xk = (Polynomial.variable(t, nvars, order) for t in (i, j, k))
        if rng.randint(0, 1):
            polys.append(xi + xj - xk)
        else:
            polys.append(xi * xj - xk)
    if rng.randint(0, 1):
        polys.append(Polynomial.variable(rng.randint(0, nvars - 1), nvars, order) - Polynomial.constant(1, nvars, order))
    return polys


def test_buchberger_postconditions_random():
    rng = SplitMix64(31337)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        order = grevlex(nvars)
        gens = random_system(rng, nvars, order, rng.randint(1, 4))
        basis = buchberger(gens, order)
        if basis.contains_one:
            continue
        # every input generator reduces to zero
        for g in gens:
            assert normal_form(g, basis).is_zero
        # every pairwise S-polynomial reduces to zero
        from eqbounds.poly import _s_polynomial

        for a in range(len(basis.generators)):
            for b in range(a):
                s = _s_polynomial(basis.generators[a], basis.generators[b])
                assert normal_form(s, basis).is_zero
        # reduced: no lm divides another, all monic
        from eqbounds.poly import monomial_divides

        lms = basis.lead_monomials()
        for a in range(len(lms)):
            assert basis.generators[a].lead_coeff() == 1
            for b in range(len(lms)):
                if a != b:
                    assert not monomial_divides(lms[a], lms[b])


def test_buchberger_ideal_invariance_under_shuffle():
    rng = SplitMix64(404)
    for _ in range(15):
        nvars = rng.randint(2, 3)
        order = grevlex(nvars)
        gens = random_system(rng, nvars, order, 4)
        b1 = buchberger(gens, order)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        b2 = buchberger(shuffled, order)
        # reduced bases are canonical: both runs agree exactly
        assert b1.generators == b2.generators


def test_buchberger_deterministic():
    o = grevlex(3)
    gens = [
        var(0, 3, o) * var(0, 3, o) - var(1, 3, o),
        var(0, 3, o) + var(0, 3, o) - var(1, 3, o),
        var(1, 3, o) * var(1, 3, o) - var(2, 3, o),
    ]
    b1 = buchberger(gens, o)
    b2 = buchberger(gens, o)
    assert b1.generators == b2.generators


def test_buchberger_seed_basis_extension():
    o = grevlex(2)
    x1, x2 = var(0, 2, o), var(1, 2, o)
    base = buchberger([x1 - const(1, 2, o)], o)
    ext = buchberger([x1 + x1 - x2], o, seed_basis=base.generators)
    full = buchberger([x1 - const(1, 2, o), x1 + x1 - x2], o)
    assert ext.generators == full.generators
