"""Coherent-frame laboratory: group geometry, projective representations,
frame diagnostics, and counting-measure density experiments."""

__version__ = "0.1.0"

from .groups import (
    Ball,
    Box,
    BudgetExceededError,
    GroupModel,
    PeriodicMetric,
    annular_violations,
    ball,
    ball_measure,
    discrete_heisenberg,
    estimate_annular_decay,
    euclidean,
    euclidean_metric,
    finite_cyclic_sq,
    fit_growth_exponent,
    folner_exhaustion,
    folner_ratio,
    heisenberg_gauge_metric,
    integer_lattice,
    word_metric,
)
from .quadrature import (
    QuadratureError,
    gauss_profile_mass_outside,
    lens_area,
    refine_trapezoid,
)
from .reps import (
    GAUSSIAN_AMBIGUITY_LIPSCHITZ,
    RepModel,
    Window,
    coefficient_field,
    coefficient_table,
    decay_envelope_check,
    estimate_formal_degree,
    finite_weyl_heisenberg,
    gabor_gaussian,
    gaussian_ambiguity,
    gaussian_window,
    local_maximal,
    matrix_coefficient,
    verify_cocycle_identity,
    verify_orthogonality,
    weighted_maximal_norm,
)
from .frames import (
    GAUSSIAN_HALF_LEVEL_RADIUS,
    FrameBounds,
    PointSet,
    amalgam_check,
    bessel_separation_bound,
    canonical_dual,
    dimension_lemma_check,
    explicit_points,
    finite_subset,
    frame_operator_spectrum,
    full_torus,
    lattice,
    lattice_with_holes,
    lemma_cover_constant,
    relative_separation,
    riesz_bounds,
)
from .density import (
    beurling_density,
    check_frame_counting,
    check_polynomial_error_exponent,
    check_riesz_counting,
    count_points,
    error_integral_I,
    error_integral_J,
    hole_radius_bound,
    mc_error_integral,
    run_hole_falsification,
)
from .cli import ConfigError, load_config, main, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
