"""Numeric solution of zero-dimensional polynomial systems.

All ideal-theoretic work (lex basis, dimension) stays exact; floating
point enters only here, for root finding and Newton refinement.  The
tolerances are module constants:

  * univariate roots are polished until |p(z)| < 1e-12 * max |coefficient|,
  * candidate roots are matched against the other specialized constraints
    at 1e-8 (relative to the evaluation magnitude),
  * returned points must have residual < 1e-8 against the original
    generators and are deduplicated at pairwise distance 1e-6.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .poly import (
    Classification,
    MonomialOrder,
    NotZeroDimensionalError,
    Polynomial,
    buchberger,
    classify_dimension,
)


class IterationLimitError(Exception):
    """Root refinement hit the iteration cap; partial roots are attached."""

    def __init__(self, roots: list[complex]):
        super().__init__("univariate root refinement hit the iteration limit")
        self.roots = roots


class DegenerateBackSubstitutionError(Exception):
    """Every specialized constraint vanished at a partial point."""

    def __init__(self, partial_point: tuple[complex, ...]):
        super().__init__(f"all constraints vanished at partial point {partial_point}")
        self.partial_point = partial_point


@dataclass(frozen=True)
class ComplexVector:
    entries: tuple[complex, ...]
    residual: float


ROOT_TOL_FACTOR = 1e-12
ROOT_MAX_ITER = 200
CONSISTENCY_TOL = 1e-8
RESIDUAL_TOL = 1e-8
DEDUP_TOL = 1e-6
NEWTON_MAX_STEPS = 50


def _polyval(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def aberth_roots(coeffs: Sequence[complex], max_iter: int = ROOT_MAX_ITER) -> list[complex]:
    """All complex roots (with multiplicity) of c0 + c1 z + ... + cd z^d.

    Simultaneous Aberth-Ehrlich iteration from perturbed circular
    starting points; each root is refined until |p(root)| drops below
    ROOT_TOL_FACTOR times the largest coefficient magnitude.  Raises
    IterationLimitError (carrying the current approximations) if some
    root is still above tolerance after ``max_iter`` sweeps.
    """
    cs = [complex(c) for c in coeffs]
    while cs and abs(cs[-1]) == 0.0:
        cs.pop()
    d = len(cs) - 1
    if d < 1:
        return []
    if d == 1:
        return [-cs[0] / cs[1]]
    tol = ROOT_TOL_FACTOR * max(abs(c) for c in cs)
    lead = cs[-1]
    monic = [c / lead for c in cs]
    deriv = [k * monic[k] for k in range(1, d + 1)]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    roots = [
        radius * cmath.exp(1j * (2 * cmath.pi * k / d + 0.4)) * (1 + 1e-3 * k)
        for k in range(d)
    ]
    done = [False] * d
    for _ in range(max_iter):
        if all(done):
            break
        for i in range(d):
            if done[i]:
                continue
            z = roots[i]
            pv = _polyval(monic, z)
            if abs(pv) * abs(lead) < tol:
                done[i] = True
                continue
            dv = _polyval(deriv, z)
            if dv == 0:
                roots[i] = z * (1 + 1e-6) + 1e-6
                continue
            w = pv / dv
            repulsion = 0j
            for j in range(d):
                if j != i and roots[i] != roots[j]:
                    repulsion += 1 / (roots[i] - roots[j])
            denom = 1 - w * repulsion
            step = w if denom == 0 else w / denom
            roots[i] = z - step
        for i in range(d):
            if not done[i] and abs(_polyval(cs, roots[i])) < tol:
                done[i] = True
    if not all(done):
        raise IterationLimitError(roots)
    return roots


def _cluster(roots: list[complex], tol: float) -> list[complex]:
    """Merge root clusters closer than tol; representatives are cluster means."""
    merged: list[list[complex]] = []
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for group in merged:
            if abs(z - group[0]) <= tol:
                group.append(z)
                break
        else:
            merged.append([z])
    return [sum(g) / len(g) for g in merged]


def _specialize(
    g: Polynomial, var: int, tail: dict[int, complex]
) -> tuple[list[complex], list[float]]:
    """Coefficients (ascending in `var`) and per-coefficient magnitude scales
    after substituting the tail values; support of g must be within
    {var} | tail keys."""
    deg = g.degree_in(var)
    coeffs = [0j] * (deg + 1)
    scales = [0.0] * (deg + 1)
    for m, c in g.terms.items():
        v = complex(c)
        for i, e in enumerate(m):
            if e and i != var:
                v *= tail[i] ** e
        coeffs[m[var]] += v
        scales[m[var]] += abs(v)
    return coeffs, scales


def _effective_degree(coeffs: list[complex], scales: list[float]) -> int:
    """Largest k whose coefficient is not numerical noise; -1 if none."""
    for k in range(len(coeffs) - 1, -1, -1):
        if abs(coeffs[k]) > 1e-9 * max(1.0, scales[k]):
            return k
    return -1


def solve_zero_dim(
    gens: Sequence[Polynomial], *, warnings: list[str] | None = None
) -> list[ComplexVector]:
    """All complex solutions of a zero-dimensional system.

    The lex basis (x1 > x2 > ... > xn) triangularizes the system; the
    univariate generator in the last variable is solved first and each
    root is back-substituted, at every level keeping the roots consistent
    with all specialized constraints.  Full points are polished by
    multivariate Newton iteration against the original generators, then
    filtered by residual, deduplicated, and sorted lexicographically by
    (real, imaginary) parts.

    Non-fatal solver hiccups (root iteration limits) are appended to
    ``warnings`` when a list is supplied.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise NotZeroDimensionalError("empty system is not zero-dimensional")
    nvars = gens[0].nvars
    order = MonomialOrder.lex(nvars)
    basis = buchberger(gens, order)
    cls = classify_dimension(basis)
    if cls is Classification.INCONSISTENT:
        return []
    if cls is Classification.POSITIVE_DIMENSIONAL:
        raise NotZeroDimensionalError("system is positive-dimensional")
    if nvars == 0:
        return [ComplexVector((), 0.0)]

    # generators whose support lies in the tail {var, var+1, ..., n-1},
    # grouped by their smallest variable
    by_level: list[list[Polynomial]] = [[] for _ in range(nvars)]
    for g in basis.generators:
        by_level[min(g.support_vars())].append(g)

    partials: list[dict[int, complex]] = [{}]
    for var in range(nvars - 1, -1, -1):
        constraints = by_level[var]
        next_partials: list[dict[int, complex]] = []
        for tail in partials:
            specialized = [_specialize(g, var, tail) for g in constraints]
            effective = [
                (coeffs[: k + 1], k)
                for coeffs, scales in specialized
                if (k := _effective_degree(coeffs, scales)) >= 0
            ]
            if not effective:
                nan = complex(float("nan"), 0.0)
                raise DegenerateBackSubstitutionError(
                    tuple(tail.get(i, nan) for i in range(nvars))
                )
            positive = [(c, k) for c, k in effective if k >= 1]
            if not positive:
                # a nonzero constant survived: this branch is inconsistent
                continue
            primary = min(positive, key=lambda e: e[1])[0]
            try:
                roots = aberth_roots(primary)
            except IterationLimitError as exc:
                if warnings is not None:
                    warnings.append("iteration_limit")
                roots = exc.roots
            roots = _cluster(roots, DEDUP_TOL)
            for z in roots:
                point = dict(tail)
                point[var] = z
                ok = True
                for coeffs, k in effective:
                    if coeffs is primary:
                        continue
                    val = _polyval(coeffs, z)
                    scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
                    if abs(val) > CONSISTENCY_TOL * max(1.0, scale):
                        ok = False
                        break
                if ok:
                    next_partials.append(point)
        partials = next_partials

    points = [tuple(pt[i] for i in range(nvars)) for pt in partials]
    jacobian = [[g.derivative(v) for v in range(nvars)] for g in gens]
    polished: list[tuple[tuple[complex, ...], float]] = []
    for point in points:
        z = np.array(point, dtype=complex)
        best = tuple(point)
        best_res = _residual(gens, best)
        for _ in range(NEWTON_MAX_STEPS):
            fv = np.array([g.evaluate(z) for g in gens], dtype=complex)
            res = float(max(abs(v) for v in fv))
            if res < 1e-14:
                break
            jm = np.array(
                [[jacobian[r][c].evaluate(z) for c in range(nvars)] for r in range(len(gens))],
                dtype=complex,
            )
            step, *_ = np.linalg.lstsq(jm, -fv, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            z = z + step
            cand = tuple(complex(v) for v in z)
            cand_res = _residual(gens, cand)
            if cand_res < best_res:
                best, best_res = cand, cand_res
            if float(np.max(np.abs(step))) < 1e-16:
                break
        if best_res < RESIDUAL_TOL:
            polished.append((best, best_res))

    polished.sort(key=lambda pr: tuple((v.real, v.imag) for v in pr[0]))
    unique: list[tuple[tuple[complex, ...], float]] = []
    for cand, res in polished:
        dup = None
        for idx, (kept, _) in enumerate(unique):
            if max(abs(a - b) for a, b in zip(cand, kept)) < DEDUP_TOL:
                dup = idx
                break
        if dup is None:
            unique.append((cand, res))
        elif res < unique[dup][1]:
            unique[dup] = (cand, res)
    return [ComplexVector(entries, res) for entries, res in unique]


def _residual(gens: Sequence[Polynomial], point: tuple[complex, ...]) -> float:
    return max(abs(g.evaluate(point)) for g in gens)
