"""Factoring semi-primes by reduction to CNF-SAT: encoders, a seedable CDCL
solver, an experiment harness, and cost-extrapolation analysis."""

from .cnf import Formula, Status, VarMap, parse_dimacs, write_dimacs
from .encoder import EncodeSpec, decode, encode
from .numtheory import Semiprime, gen_semiprime, is_prime, metrics, trial_division
from .solver import SolveResult, SolverConfig, solve, solve_external

__version__ = "0.1.0"

__all__ = [
    "EncodeSpec",
    "Formula",
    "Semiprime",
    "SolveResult",
    "SolverConfig",
    "Status",
    "VarMap",
    "decode",
    "encode",
    "gen_semiprime",
    "is_prime",
    "metrics",
    "parse_dimacs",
    "solve",
    "solve_external",
    "trial_division",
    "write_dimacs",
]
