"""Bessel-family zeros, Lommel polynomials, generalized interlacing, and
common-zero continuation in the order parameter."""

from .special import (
    DomainError,
    EvalResult,
    FunctionId,
    Kind,
    bessel_j,
    bessel_j_prime,
    bessel_j_scaled,
    bessel_y,
    cylinder,
    cylinder_prime,
    evaluate,
    modified_k0,
    watson_integrand,
)
from .lommel import (
    EtaRoot,
    LommelCoefficients,
    PolyKind,
    assoc_eval,
    eta_limit,
    lommel_coefficients,
    lommel_eval,
    lommel_roots,
    lommel_wronskian_identity,
    pochhammer_limit,
)
from .zeros import (
    ConvergenceError,
    OrderDerivative,
    ZeroList,
    cylinder_zero_monotonicity,
    dj_dnu,
    zero_table,
    zeros,
)
from .interlace import (
    CommonZeroSet,
    Family,
    InterlaceReport,
    MergedZeros,
    Source,
    WronskianSample,
    common_zero_sandwich,
    cylinder_prefix_alternation,
    cylinder_wronskian_positivity,
    derivative_wronskian_series,
    detect_common_zeros,
    merged_sequence,
    no_consecutive_common_zeros,
    partial_fraction_check,
    verify_generalized_interlacing,
    verify_plain_interlacing,
    wronskian_series,
)
from .continuation import (
    BracketError,
    NuStarSolution,
    Trajectory,
    find_in_bracket,
    rational_order_margin,
    scan_nu_star,
    solve_nu_star,
    trace_trajectories,
)

__version__ = "0.1.0"
