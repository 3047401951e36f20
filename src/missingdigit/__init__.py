"""Desk-scale exact toolkit for integers with a missing base-b digit:
set combinatorics, digit-set Fourier analysis, circle-method arc dissection,
exponential-sum kernels, combinatorial sieve weights, sieve integrals and the
two-squares shifted-prime application."""

from .digitset import DigitSystem, contains, count, count_positive, members, rank, unrank
from .errors import BudgetError, InternalCheckError, PreconditionError
from .primetables import PrimeTables
from .expsums import ThetaApprox, dirichlet_approx, lambda_hat, min_sum, bilinear_sum, vaughan_decompose, mikawa_w
from .fourier import FourierStats, eval_hat, hybrid_sum, inversion_indicator, l1_and_cb, linf_probe
from .sieveweights import SieveSpec, SieveWeight, build_weights, sandwich_check, semi_linear_lower, linear_upper, support_member, well_factor
from .sievenumerics import EULER_GAMMA, I_lin, I_sem, SieveConstants, b_over_phi, euler_constants, lower_bound_margin, mertens_3mod4, sieve_fn, t_weight_sum
from .circle import ArcLabel, ArcSplit, BuchstabResult, DiscrepancyReport, ProgressionCounts, arc_split, buchstab_and_app, classify_arc, count_missing_digit_primes, discrepancy_E, ramanujan_sum, weighted_discrepancy

__version__ = "0.1.0"

__all__ = [
    "DigitSystem", "contains", "count", "count_positive", "members", "rank", "unrank",
    "PrimeTables",
    "ThetaApprox", "dirichlet_approx", "lambda_hat", "min_sum", "bilinear_sum",
    "vaughan_decompose", "mikawa_w",
    "FourierStats", "eval_hat", "hybrid_sum", "inversion_indicator", "l1_and_cb",
    "linf_probe",
    "SieveSpec", "SieveWeight", "build_weights", "sandwich_check",
    "semi_linear_lower", "linear_upper", "support_member", "well_factor",
    "EULER_GAMMA", "I_lin", "I_sem", "SieveConstants", "b_over_phi",
    "euler_constants", "lower_bound_margin", "mertens_3mod4", "sieve_fn",
    "t_weight_sum",
    "ArcLabel", "ArcSplit", "BuchstabResult", "DiscrepancyReport", "ProgressionCounts", "arc_split",
    "buchstab_and_app", "classify_arc", "count_missing_digit_primes",
    "discrepancy_E", "ramanujan_sum", "weighted_discrepancy",
    "BudgetError", "InternalCheckError", "PreconditionError",
]
