"""Multivariate polynomials over Q and Groebner basis machinery.

Monomials are exponent tuples of fixed length.  Coefficient arithmetic
is exact (Fraction) throughout; floating point only enters downstream in
the numeric root-finding layer.  The design envelope is degree-2 inputs
in at most ~6 variables, so the implementation favours clarity plus the
two classic pair-elimination criteria over heavier strategies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

Monomial = tuple[int, ...]


class OrderMismatchError(Exception):
    pass


class NotZeroDimensionalError(Exception):
    pass


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial order, lex or grevlex, with
    x1 > x2 > ... > xn."""

    kind: str  # "lex" | "grevlex"
    nvars: int

    @classmethod
    def lex(cls, nvars: int) -> "MonomialOrder":
        return cls("lex", nvars)

    @classmethod
    def grevlex(cls, nvars: int) -> "MonomialOrder":
        return cls("grevlex", nvars)

    def key(self, m: Monomial):
        """Sort key; larger key means larger monomial."""
        if self.kind == "lex":
            return m
        total = sum(m)
        return (total, tuple(-e for e in reversed(m)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


_F0 = Fraction(0)
_F1 = Fraction(1)


class Polynomial:
    """Immutable sparse polynomial: map monomial -> nonzero Fraction."""

    __slots__ = ("nvars", "order", "terms", "_lead")

    def __init__(self, terms: dict[Monomial, Fraction], nvars: int, order: MonomialOrder):
        if order.nvars != nvars:
            raise OrderMismatchError(f"order over {order.nvars} variables, polynomial over {nvars}")
        self.nvars = nvars
        self.order = order
        self.terms = {m: c for m, c in terms.items() if c != 0}
        self._lead: Monomial | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, order: MonomialOrder) -> "Polynomial":
        return cls({}, nvars, order)

    @classmethod
    def constant(cls, c, nvars: int, order: MonomialOrder) -> "Polynomial":
        return cls({(0,) * nvars: Fraction(c)}, nvars, order)

    @classmethod
    def variable(cls, index: int, nvars: int, order: MonomialOrder) -> "Polynomial":
        """The variable with 0-based `index`."""
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls({mono: _F1}, nvars, order)

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        if order == self.order:
            return self
        return Polynomial(dict(self.terms), self.nvars, order)

    # -- ring operations ----------------------------------------------

    def _compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars or self.order != other.order:
            raise OrderMismatchError("operands use different variables or orders")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, _F0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(out, self.nvars, self.order)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, _F0) - c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(out, self.nvars, self.order)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()}, self.nvars, self.order)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                v = out.get(m, _F0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(out, self.nvars, self.order)

    def term_mul(self, coeff: Fraction, mono: Monomial) -> "Polynomial":
        if coeff == 0:
            return Polynomial.zero(self.nvars, self.order)
        return Polynomial(
            {monomial_mul(m, mono): c * coeff for m, c in self.terms.items()},
            self.nvars,
            self.order,
        )

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        if self._lead is None:
            self._lead = max(self.terms, key=self.order.key)
        return self._lead

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_monomial()]

    def monic(self) -> "Polynomial":
        lc = self.lead_coeff()
        if lc == 1:
            return self
        inv = _F1 / lc
        return Polynomial({m: c * inv for m, c in self.terms.items()}, self.nvars, self.order)

    def degree_in(self, var: int) -> int:
        return max((m[var] for m in self.terms), default=0)

    def support_vars(self) -> set[int]:
        return {i for m in self.terms for i in range(self.nvars) if m[i]}

    def derivative(self, var: int) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e:
                dm = tuple(x - 1 if i == var else x for i, x in enumerate(m))
                out[dm] = out.get(dm, _F0) + c * e
        return Polynomial(out, self.nvars, self.order)

    def evaluate(self, point: Sequence[complex]) -> complex:
        total = 0j
        for m, c in self.terms.items():
            v = complex(c)
            for i, e in enumerate(m):
                if e:
                    v *= point[i] ** e
            total += v
        return total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Debug/fixture form: sum of c*x1^a1*...*xn^an terms."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for m in sorted(self.terms, key=self.order.key, reverse=True):
            c = self.terms[m]
            factors = [str(c)]
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced, monic basis; generators sorted by ascending leading monomial."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    @property
    def contains_one(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant and not self.generators[0].is_zero

    def lead_monomials(self) -> list[Monomial]:
        return [g.lead_monomial() for g in self.generators]


def _reduce_terms(
    work: dict[Monomial, Fraction],
    divisors: Sequence[tuple[Monomial, Fraction, dict[Monomial, Fraction]]],
    order: MonomialOrder,
) -> dict[Monomial, Fraction]:
    """Full multivariate division; returns the remainder's term map."""
    remainder: dict[Monomial, Fraction] = {}
    key = order.key
    while work:
        lead = max(work, key=key)
        coeff = work.pop(lead)
        for lm, lc, terms in divisors:
            if monomial_divides(lm, lead):
                q = monomial_div(lead, lm)
                f = coeff / lc
                for m, cm in terms.items():
                    if m == lm:
                        continue
                    mm = monomial_mul(m, q)
                    v = work.get(mm, _F0) - f * cm
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[lead] = coeff
    return remainder


def _prep(g: Polynomial) -> tuple[Monomial, Fraction, dict[Monomial, Fraction]]:
    return g.lead_monomial(), g.lead_coeff(), g.terms


def normal_form(p: Polynomial, g: GroebnerBasis | Sequence[Polynomial]) -> Polynomial:
    """Remainder of p under division by g; no remainder monomial is divisible
    by any leading monomial of g."""
    gens = list(g.generators) if isinstance(g, GroebnerBasis) else list(g)
    order = g.order if isinstance(g, GroebnerBasis) else (gens[0].order if gens else p.order)
    if p.order != order or any(q.order != order for q in gens):
        raise OrderMismatchError("polynomial and basis use different orders")
    divisors = [_prep(q) for q in gens if not q.is_zero]
    rem = _reduce_terms(dict(p.terms), divisors, order)
    return Polynomial(rem, p.nvars, order)


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = monomial_lcm(f.lead_monomial(), g.lead_monomial())
    mf = monomial_div(lcm, f.lead_monomial())
    mg = monomial_div(lcm, g.lead_monomial())
    return f.term_mul(_F1 / f.lead_coeff(), mf) - g.term_mul(_F1 / g.lead_coeff(), mg)


def _interreduce(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Minimalize and fully reduce a generating set that is already a basis."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    # minimal: drop any generator whose lm is divisible by another's lm
    gens.sort(key=lambda g: order.key(g.lead_monomial()))
    minimal: list[Polynomial] = []
    for g in gens:
        lm = g.lead_monomial()
        if not any(monomial_divides(h.lead_monomial(), lm) for h in minimal):
            minimal.append(g)
    # reduced: replace each by its normal form against the others
    reduced: list[Polynomial] = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        divisors = [_prep(h) for h in others]
        rem = _reduce_terms(dict(g.terms), divisors, order)
        reduced.append(Polynomial(rem, g.nvars, order).monic())
    reduced.sort(key=lambda g: order.key(g.lead_monomial()))
    return reduced


def buchberger(
    gens: Iterable[Polynomial],
    order: MonomialOrder,
    seed_basis: Sequence[Polynomial] | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens (plus seed_basis).

    Pair selection follows the normal strategy (minimal lcm degree, ties
    broken by insertion indices); the product (coprime leading monomials)
    and chain (lcm) criteria prune useless pairs.  When ``seed_basis`` is
    given it must already be a Groebner basis under ``order``: pairs
    inside it are skipped, which makes incremental saturation cheap.
    """
    work: list[Polynomial] = []
    for g in seed_basis or ():
        if g.order != order:
            raise OrderMismatchError("seed basis computed under a different order")
        if not g.is_zero:
            work.append(g.monic())
    n_seed = len(work)
    for g in gens:
        g = g.with_order(order)
        if not g.is_zero:
            work.append(g.monic())
    nvars = order.nvars
    if not work:
        return GroebnerBasis((), order)
    if any(g.is_constant for g in work):
        return GroebnerBasis((Polynomial.constant(1, nvars, order),), order)

    pairs: set[tuple[int, int]] = set()
    pending: list[tuple[int, int, int]] = []  # (lcm degree, i, j)
    for j in range(len(work)):
        for i in range(j):
            if i < n_seed and j < n_seed:
                continue
            lcm = monomial_lcm(work[i].lead_monomial(), work[j].lead_monomial())
            pairs.add((i, j))
            pending.append((sum(lcm), i, j))
    heapq.heapify(pending)
    while pending:
        _, i, j = heapq.heappop(pending)
        pairs.discard((i, j))
        fi, fj = work[i], work[j]
        lmi, lmj = fi.lead_monomial(), fj.lead_monomial()
        lcm = monomial_lcm(lmi, lmj)
        # product criterion: coprime leading monomials
        if lcm == monomial_mul(lmi, lmj):
            continue
        # chain criterion: some k divides the lcm and both mixed pairs are done
        skip = False
        for k in range(len(work)):
            if k in (i, j):
                continue
            if monomial_divides(work[k].lead_monomial(), lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = _s_polynomial(fi, fj)
        rem = _reduce_terms(dict(s.terms), [_prep(g) for g in work], order)
        if not rem:
            continue
        r = Polynomial(rem, nvars, order).monic()
        if r.is_constant:
            return GroebnerBasis((Polynomial.constant(1, nvars, order),), order)
        work.append(r)
        jnew = len(work) - 1
        for i2 in range(jnew):
            lcm2 = monomial_lcm(work[i2].lead_monomial(), r.lead_monomial())
            pairs.add((i2, jnew))
            heapq.heappush(pending, (sum(lcm2), i2, jnew))

    reduced = _interreduce(work, order)
    if any(g.is_constant for g in reduced):
        return GroebnerBasis((Polynomial.constant(1, nvars, order),), order)
    return GroebnerBasis(tuple(reduced), order)


class Classification(Enum):
    INCONSISTENT = "inconsistent"
    ZERO_DIMENSIONAL = "zero_dimensional"
    POSITIVE_DIMENSIONAL = "positive_dimensional"


def classify_dimension(g: GroebnerBasis) -> Classification:
    """Three-way dimension of the variety of a reduced basis.

    Inconsistent iff the basis is {1}; zero-dimensional iff every
    variable has a pure-power leading monomial; positive otherwise.
    """
    if g.contains_one:
        return Classification.INCONSISTENT
    nvars = g.order.nvars
    covered = [False] * nvars
    for lm in g.lead_monomials():
        nonzero = [i for i, e in enumerate(lm) if e]
        if len(nonzero) == 1:
            covered[nonzero[0]] = True
    if all(covered):
        return Classification.ZERO_DIMENSIONAL
    return Classification.POSITIVE_DIMENSIONAL


def standard_monomial_count(g: GroebnerBasis) -> int:
    """Number of monomials outside the leading-term ideal.

    Requires a zero-dimensional basis; the count bounds the number of
    distinct complex solutions (with multiplicity).
    """
    if classify_dimension(g) is not Classification.ZERO_DIMENSIONAL:
        raise NotZeroDimensionalError("staircase is finite only for zero-dimensional ideals")
    nvars = g.order.nvars
    lead = g.lead_monomials()
    caps = [0] * nvars
    for lm in lead:
        nonzero = [i for i, e in enumerate(lm) if e]
        if len(nonzero) == 1:
            i = nonzero[0]
            caps[i] = lm[i] if caps[i] == 0 else min(caps[i], lm[i])
    count = 0
    for mono in product(*(range(c) for c in caps)):
        if not any(monomial_divides(lm, mono) for lm in lead):
            count += 1
    return count
