"""Coherent-frame laboratory: group geometry, projective representations,
frame diagnostics, and counting-measure density experiments."""

__version__ = "0.1.0"

from .groups import (
    Ball,
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
    fit_growth_exponent,
    folner_exhaustion,
    folner_ratio,
    heisenberg_gauge_metric,
    integer_lattice,
    word_metric,
)
from .quadrature import (
    QuadratureError,
    lens_area,
    refine_rows,
)
from .reps import (
    RepModel,
    coefficient_table,
    estimate_formal_degree,
    finite_weyl_heisenberg,
    gaussian_ambiguity,
    torus_ball,
    verify_cocycle_identity,
    verify_orthogonality,
)
from .frames import (
    FrameBounds,
    PointSet,
    amalgam_check,
    bessel_separation_bound,
    finite_amalgam_check,
    finite_bessel_separation_bound,
    finite_frame_operator_spectrum,
    finite_lemma_cover_constant,
    finite_relative_separation,
    finite_riesz_bounds,
    finite_subset,
    finite_synthesis,
    frame_operator_spectrum,
    full_torus,
    lattice,
    lemma_cover_constant,
    relative_separation,
    riesz_bounds,
)
from .density import (
    beurling_density,
    check_counting,
    check_polynomial_error_exponent,
    error_integral_I,
    error_integral_J,
    hole_radius_bound,
    run_hole_falsification,
)
from .cli import ConfigError, load_config, main, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
