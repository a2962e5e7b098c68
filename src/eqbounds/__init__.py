"""Exact-arithmetic verification of solution bounds for systems of
unit (x_i = 1), addition (x_i + x_j = x_k) and multiplication
(x_i * x_j = x_k) equations."""

from .drivers import (
    run_conj1,
    run_conj2,
    run_conj3,
    run_conj4,
    run_conj5,
    run_conjI,
    run_conjII,
    run_obs1,
    run_obs2,
)
from .linalg import det_bareiss, pseudoinverse, solve_cramer
from .linear import Add, Mul, System, Unit
from .poly import normal_form, standard_monomial_count
from .solve import solve_zero_dim
from .textio import parse_system_file, parse_system_text, parse_witness_solution

__version__ = "0.1.0"

# The experiment drivers (the CLI reaches them by name), systems and their
# text format, and the exact oracles that only the tests call.
__all__ = [
    "Add",
    "Mul",
    "System",
    "Unit",
    "det_bareiss",
    "normal_form",
    "parse_system_file",
    "parse_system_text",
    "parse_witness_solution",
    "pseudoinverse",
    "run_conj1",
    "run_conj2",
    "run_conj3",
    "run_conj4",
    "run_conj5",
    "run_conjI",
    "run_conjII",
    "run_obs1",
    "run_obs2",
    "solve_cramer",
    "solve_zero_dim",
    "standard_monomial_count",
]
