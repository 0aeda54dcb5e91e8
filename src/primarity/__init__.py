"""Computational checks of Vandiver's conjecture criteria.

For an odd prime p and split primes l = 1 (mod p), products of Jacobi sums
of the order p characters on F_l* are twisted into components S_n whose
triviality defines the exponent set E_l(p).  Vandiver's conjecture holds
for p as soon as one E_l(p) avoids the irregular exponents of p, or as
soon as finitely many E_l(p) have empty intersection; this package
computes the sets, runs both criteria, classifies components as local or
global pth powers, and reproduces the supporting rank, trace and density
experiments.
"""

from .bernoulli import b1_omega, b_c_factor, irregularity_report, teichmuller
from .cycring import CycModP
from .jacobi import (
    ExponentSet,
    TwistContext,
    exponent_set,
    exponent_set_for,
    jacobi_sum,
    twist_product,
)
from .modarith import LogTable, build_log_table, coset_index, is_prime, primitive_root, split_primes
from .residue_symbols import (
    CycBigInt,
    SymbolReport,
    classify,
    classify_for,
    exact_twist_component,
    l_content,
    norm_l_power,
    residue_symbol,
)
from .spectra import (
    RankAccumulator,
    TracePolynomial,
    conjugate_rank,
    derivation_check,
    distinct_trace_count,
    heuristic_probability,
    rank_scan,
    trace_polynomial,
)
from .vandiver import (
    CriterionVerdict,
    DensityTable,
    ScanCache,
    ScanRecord,
    criterion_a,
    criterion_b,
    density_scan,
    minimal_empty_l,
    scan_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "CycModP",
    "CycBigInt",
    "ExponentSet",
    "TwistContext",
    "LogTable",
    "CriterionVerdict",
    "DensityTable",
    "ScanCache",
    "ScanRecord",
    "SymbolReport",
    "RankAccumulator",
    "TracePolynomial",
    "is_prime",
    "primitive_root",
    "split_primes",
    "build_log_table",
    "coset_index",
    "jacobi_sum",
    "twist_product",
    "exponent_set",
    "exponent_set_for",
    "teichmuller",
    "b1_omega",
    "b_c_factor",
    "irregularity_report",
    "criterion_a",
    "criterion_b",
    "minimal_empty_l",
    "density_scan",
    "scan_pairs",
    "classify",
    "classify_for",
    "exact_twist_component",
    "l_content",
    "residue_symbol",
    "norm_l_power",
    "derivation_check",
    "rank_scan",
    "conjugate_rank",
    "trace_polynomial",
    "distinct_trace_count",
    "heuristic_probability",
    "__version__",
]
