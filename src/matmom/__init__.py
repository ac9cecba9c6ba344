"""Truncated matrix moment problems on a finite interval.

Decides whether prescribed Hermitian matrix moments S_0..S_l admit a
non-decreasing matrix function on [a, b] with those power moments, and
constructs explicit discrete matrix-measure solutions by extending a
Hermitian contraction built from the moment data.
"""

from .errors import (
    MatmomError,
    NumericalInconsistency,
    Unsolvable,
    ValidationError,
)
from .extensions import (
    ExtensionInterval,
    as_unit_interval_param,
    canonical_extension,
    extremal_completions,
    extremal_extensions,
    generalized_resolvent,
    qmu,
)
from .linalg import EigDecomposition
from .moments import (
    DiscreteMatrixMeasure,
    MomentSequence,
    build_gamma,
    build_gamma_hat,
    build_gamma_tilde,
    build_h_pair,
    gen_random_measure,
    measure_from_atoms,
    moments_of,
)
from .operator_model import (
    ContractionModel,
    GramSpace,
    build_gram_space,
    build_operators,
    kernel_inclusion,
)
from .solvability import (
    EvenCaseData,
    SolvabilityReport,
    check,
    check_cdfk,
    check_even,
    check_l0,
    check_odd,
)
from .solutions import (
    SpectralData,
    VerificationReport,
    solve_even,
    solve_l0,
    solve_odd,
    stieltjes_perron_recover,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ContractionModel",
    "DiscreteMatrixMeasure",
    "EigDecomposition",
    "EvenCaseData",
    "ExtensionInterval",
    "GramSpace",
    "MatmomError",
    "MomentSequence",
    "NumericalInconsistency",
    "SolvabilityReport",
    "SpectralData",
    "Unsolvable",
    "ValidationError",
    "VerificationReport",
    "as_unit_interval_param",
    "build_gamma",
    "build_gamma_hat",
    "build_gamma_tilde",
    "build_gram_space",
    "build_h_pair",
    "build_operators",
    "canonical_extension",
    "check",
    "check_cdfk",
    "check_even",
    "check_l0",
    "check_odd",
    "extremal_completions",
    "extremal_extensions",
    "gen_random_measure",
    "generalized_resolvent",
    "kernel_inclusion",
    "measure_from_atoms",
    "moments_of",
    "qmu",
    "solve_even",
    "solve_l0",
    "solve_odd",
    "stieltjes_perron_recover",
    "verify",
]
