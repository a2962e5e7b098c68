"""Polynomial view of systems, greedy saturation and its checks.

A system (`linear.System`) converts to polynomial generators over Q
(x_i - 1, x_i + x_j - x_k, x_i*x_j - x_k).  With ``fix_x1`` the symbol
x_1 is replaced by the constant 1 throughout and drops out of the
unknowns, mirroring the candidate pools that hard-wire the first
variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .linear import (
    HAT_CONSTANTS,
    Add,
    Equation,
    Mul,
    PreconditionError,
    System,
    Unit,
    hat_axes,
    universe,
)
from .poly import (
    Classification,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    buchberger,
    classify_dimension,
)
from .rng import SplitMix64
from .solve import RESIDUAL_TOL, ComplexVector, solve_zero_dim


class InconsistentInputError(Exception):
    pass


def default_order(nvars: int) -> MonomialOrder:
    return MonomialOrder.grevlex(nvars)


def _symbol(index: int, n: int, fix_x1: bool, order: MonomialOrder) -> Polynomial:
    """Polynomial for the variable x_index (1-based); the constant 1 when fixed."""
    nv = order.nvars
    if fix_x1:
        if index == 1:
            return Polynomial.constant(1, nv, order)
        return Polynomial.variable(index - 2, nv, order)
    return Polynomial.variable(index - 1, nv, order)


def equation_polynomial(
    eq: Equation, n: int, fix_x1: bool, order: MonomialOrder | None = None
) -> Polynomial:
    nv = n - 1 if fix_x1 else n
    if order is None:
        order = default_order(nv)
    one = Polynomial.constant(1, nv, order)
    if isinstance(eq, Unit):
        return _symbol(eq.i, n, fix_x1, order) - one
    xi = _symbol(eq.i, n, fix_x1, order)
    xj = _symbol(eq.j, n, fix_x1, order)
    xk = _symbol(eq.k, n, fix_x1, order)
    if isinstance(eq, Add):
        return xi + xj - xk
    return xi * xj - xk


def to_polynomials(s: System, order: MonomialOrder | None = None) -> list[Polynomial]:
    """Generators of the system; duplicates and identically-zero ones drop out."""
    nv = s.unknowns
    if order is None:
        order = default_order(nv)
    out: list[Polynomial] = []
    seen: set[Polynomial] = set()
    for eq in s.equations:
        p = equation_polynomial(eq, s.n, s.fix_x1, order)
        if p.is_zero or p in seen:
            continue
        seen.add(p)
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# candidate pools for greedy saturation

POOL_VARIANTS = ("with_units_fixed_x1", "no_units_all_vars", "full_En")


@dataclass(frozen=True)
class PoolCandidate:
    equation: Equation
    poly: Polynomial


@dataclass(frozen=True)
class CandidatePool:
    n: int
    fix_x1: bool
    candidates: tuple[PoolCandidate, ...]


def full_pool(n: int, variant: str) -> CandidatePool:
    """Duplicate-free candidate generators for greedy saturation.

    ``with_units_fixed_x1``: x_1 pinned to 1; unit equations for every
    other variable plus all sums and products over the symbol list
    (1, x_2, ..., x_n).  ``no_units_all_vars``: no units, all n symbols
    kept as unknowns.  ``full_En``: every unit, addition and
    multiplication equation over all n unknowns.
    """
    if variant not in POOL_VARIANTS:
        raise ValueError(f"unknown pool variant {variant!r}")
    fix = variant == "with_units_fixed_x1"
    nv = n - 1 if fix else n
    order = default_order(nv)
    seen: set[Polynomial] = set()
    out: list[PoolCandidate] = []

    def push(eq: Equation) -> None:
        p = equation_polynomial(eq, n, fix, order)
        if p not in seen:
            seen.add(p)
            out.append(PoolCandidate(eq, p))

    if variant == "with_units_fixed_x1":
        for i in range(2, n + 1):
            push(Unit(i))
    elif variant == "full_En":
        for i in range(1, n + 1):
            push(Unit(i))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                push(Add(i, j, k))
                push(Mul(i, j, k))
    return CandidatePool(n, fix, tuple(out))


# ---------------------------------------------------------------------------
# greedy saturation

@dataclass(frozen=True)
class TrialOutcome:
    system: System
    classification: Classification
    solutions: tuple[ComplexVector, ...]
    max_abs_coordinate: float
    min_norm_indices: tuple[int, ...]
    errors: tuple[str, ...]


def minimal_norm_indices(solutions: Sequence[ComplexVector]) -> tuple[int, ...]:
    """Indices of the solutions minimizing the squared Euclidean norm;
    values within 1e-9 of the minimum are all returned."""
    if not solutions:
        return ()
    norms = [sum(abs(z) ** 2 for z in sol.entries) for sol in solutions]
    lowest = min(norms)
    return tuple(i for i, v in enumerate(norms) if v <= lowest + 1e-9)


def greedy_saturate(pool: CandidatePool, rng: SplitMix64) -> TrialOutcome:
    """Shuffle the pool and append every candidate that keeps the system
    consistent, stopping as soon as the system becomes zero-dimensional.

    A trial that exhausts the pool while still positive-dimensional is a
    finiteness-counterexample candidate and is left unsolved; callers
    re-check maximality before treating it as evidence.  Solver errors
    are recorded on the outcome, never raised.
    """
    nv = pool.n - 1 if pool.fix_x1 else pool.n
    order = default_order(nv)
    indices = list(range(len(pool.candidates)))
    rng.shuffle(indices)

    appended: list[Equation] = []
    polys: list[Polynomial] = []
    basis: GroebnerBasis | None = None
    classification = (
        Classification.ZERO_DIMENSIONAL if nv == 0 else Classification.POSITIVE_DIMENSIONAL
    )
    if nv > 0:
        for idx in indices:
            cand = pool.candidates[idx]
            if cand.poly.is_zero:
                appended.append(cand.equation)
                continue
            trial = buchberger(
                [cand.poly], order, seed_basis=basis.generators if basis else None
            )
            verdict = classify_dimension(trial)
            if verdict is Classification.INCONSISTENT:
                continue
            basis = trial
            polys.append(cand.poly)
            appended.append(cand.equation)
            classification = verdict
            if classification is Classification.ZERO_DIMENSIONAL:
                break

    system = System(pool.n, appended, fix_x1=pool.fix_x1)
    errors: list[str] = []
    solutions: tuple[ComplexVector, ...] = ()
    if classification is Classification.ZERO_DIMENSIONAL:
        if nv == 0:
            solutions = (ComplexVector((), 0.0),)
        else:
            warn: list[str] = []
            try:
                solutions = tuple(solve_zero_dim(polys, warnings=warn))
            except Exception as exc:  # recorded per-trial, never aborts a batch
                errors.append(type(exc).__name__)
            errors.extend(warn)
    max_abs = 0.0
    for sol in solutions:
        for z in sol.entries:
            max_abs = max(max_abs, abs(z))
    return TrialOutcome(
        system=system,
        classification=classification,
        solutions=solutions,
        max_abs_coordinate=max_abs,
        min_norm_indices=minimal_norm_indices(solutions),
        errors=tuple(errors),
    )


# ---------------------------------------------------------------------------
# checkers

def double_exp_bound(n: int, exponent: str) -> float:
    """2^(2^(n-2)) or 2^(2^(n-1)); for n = 1 both collapse to 1."""
    if exponent not in ("n_minus_2", "n_minus_1"):
        raise ValueError(f"unknown exponent variant {exponent!r}")
    if n == 1:
        return 1.0
    power = n - 2 if exponent == "n_minus_2" else n - 1
    return float(2 ** (2**power))


def check_bound_double_exp(outcome: TrialOutcome, n: int, exponent: str) -> bool:
    """Pass iff every solution coordinate modulus is within the bound
    (boundary-equal counts as pass; 1e-6 absorbs numeric fuzz)."""
    return outcome.max_abs_coordinate <= double_exp_bound(n, exponent) + 1e-6


def real_solutions(solutions: Sequence[ComplexVector]) -> tuple[ComplexVector, ...]:
    """Subset of solutions whose coordinates are all numerically real
    (|imaginary part| < 1e-8); entries and residuals pass through unchanged."""
    return tuple(
        sol for sol in solutions if all(abs(z.imag) < 1e-8 for z in sol.entries)
    )


def is_maximal_consistent(s: System) -> tuple[bool, list[Equation]]:
    """Check inclusion-maximality of a consistent system.

    Every equation of the universe not already present is appended in
    turn; the system is maximal iff each append is inconsistent.  The
    consistent extensions are returned for inspection.
    """
    nv = s.unknowns
    order = default_order(nv)
    polys = to_polynomials(s, order)
    if nv == 0:
        # zero unknowns: every generator is a constant
        if any(not p.is_zero for p in polys):
            raise InconsistentInputError("system is inconsistent")
        basis = None
    else:
        basis = buchberger(polys, order)
        if basis.contains_one:
            raise InconsistentInputError("system is inconsistent")
    present = set(s.equations)
    if s.fix_x1:
        present.add(Unit(1))
    extensions: list[Equation] = []
    for eq in universe(s.n):
        if eq in present:
            continue
        p = equation_polynomial(eq, s.n, s.fix_x1, order)
        if p.is_zero:
            extensions.append(eq)
            continue
        if nv == 0:
            continue  # nonzero constant: appending is inconsistent
        trial = buchberger([p], order, seed_basis=basis.generators if basis else None)
        if not trial.contains_one:
            extensions.append(eq)
    return not extensions, extensions


def observation2_hat_search(s: System, x: Sequence[complex]) -> tuple[complex, ...] | None:
    """Search the per-coordinate grid {x_i, 0, 1, 2, 1/2} for a solution
    whose coordinates all stay within 2^(2^(n-2)).

    Candidates keep x_i first, then the constants; the first grid point
    with residual below RESIDUAL_TOL is returned.  None at n <= 4 refutes
    the replacement claim and must be treated as a hard failure.
    """
    if s.n > 4:
        raise PreconditionError("hat search only supports n <= 4")
    nv = s.unknowns
    xs = tuple(complex(z) for z in x)
    if len(xs) != nv:
        raise PreconditionError(f"expected {nv} coordinates, got {len(xs)}")
    polys = to_polynomials(s)
    if polys and max(abs(p.evaluate(xs)) for p in polys) > RESIDUAL_TOL:
        raise PreconditionError("x does not solve the system")
    constants = [complex(c) for c in HAT_CONSTANTS]
    axes = hat_axes(xs, constants, double_exp_bound(s.n, "n_minus_2") + 1e-6)
    if nv == 0:
        return ()
    for hat in product(*axes):
        if not polys or max(abs(p.evaluate(hat)) for p in polys) < RESIDUAL_TOL:
            return hat
    return None
