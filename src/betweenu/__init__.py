"""Implicit mixture-linear utility for betweenness preferences.

The package builds, for any preference satisfying the betweenness
axioms on a finite-outcome lottery simplex, a two-argument utility
u(x, t) that is mixture linear in the lottery for every fixed level t
and represents the preference through its fixed point t = u(x, t).
Everything is constructive: preferences enter as comparison oracles or
closed-form value models, and every claimed property ships with a
checker that can refute it on concrete lotteries.

Layout:

:mod:`betweenu.simplex`     lotteries, mixtures, grids, polytopes.
:mod:`betweenu.models`      built-in preference families and oracles.
:mod:`betweenu.engine`      the construction itself: utilities, mixing
                            weights, local utilities, fixed points.
:mod:`betweenu.axioms`      axiom checks with replayable witnesses.
:mod:`betweenu.separation`  linear separation of upper and lower
                            contour sets, cross-polytope consistency.
:mod:`betweenu.triangle`    indifference-curve tracing on 3 outcomes.
:mod:`betweenu.cli`         the ``betweenu`` command.
"""

from .axioms import (
    AxiomReport,
    Witness,
    check_betweenness,
    check_continuity,
    check_mixing_neutrality,
    check_nondegeneracy,
    check_rationality,
    run_all_checks,
)
from .engine import (
    Branch,
    RepresentationContext,
    chord_point,
    context_for,
    find_extremes,
    implicit_utility,
    implicit_utility_many,
    one_sided_limits,
    solve_mixing,
    solve_mixing_many,
    solve_utility,
    solve_utility_many,
    utility_fixed_point,
    utility_fixed_point_many,
)
from .errors import (
    BetweenuError,
    DegeneratePreference,
    Infeasible,
    IterationLimit,
    MembershipViolation,
    MultipleFixedPoints,
    NoCrossing,
    NonMonotoneChord,
)
from .fixtures import cyclic_oracle, jump_oracle, oracle_from_value, quadratic_oracle
from .models import (
    BlackBoxOracle,
    DisappointmentAversion,
    ExpectedUtility,
    ImplicitKernel,
    Ordering,
    PreferenceModel,
    ValueModel,
    WeightedUtility,
)
from .modelspec import load_model, model_from_spec
from .separation import (
    AffineFunctional,
    CrossPolytopeCheck,
    FarkasCertificate,
    SeparationCheck,
    contour_samples,
    cross_polytope_consistency,
    cross_polytope_consistency_many,
    separate,
    verify_separation,
)
from .simplex import Lottery, Polytope, degenerate, grid, lottery, mix
from .triangle import (
    LevelCurve,
    collinearity_residual,
    embed_coords,
    render_svg,
    trace_level_curves,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFunctional",
    "AxiomReport",
    "BetweenuError",
    "BlackBoxOracle",
    "Branch",
    "CrossPolytopeCheck",
    "DegeneratePreference",
    "DisappointmentAversion",
    "ExpectedUtility",
    "FarkasCertificate",
    "ImplicitKernel",
    "Infeasible",
    "IterationLimit",
    "LevelCurve",
    "Lottery",
    "MembershipViolation",
    "MultipleFixedPoints",
    "NoCrossing",
    "NonMonotoneChord",
    "Ordering",
    "Polytope",
    "PreferenceModel",
    "RepresentationContext",
    "SeparationCheck",
    "ValueModel",
    "WeightedUtility",
    "Witness",
    "check_betweenness",
    "check_continuity",
    "check_mixing_neutrality",
    "check_nondegeneracy",
    "check_rationality",
    "chord_point",
    "collinearity_residual",
    "context_for",
    "contour_samples",
    "cross_polytope_consistency",
    "cross_polytope_consistency_many",
    "cyclic_oracle",
    "degenerate",
    "embed_coords",
    "find_extremes",
    "grid",
    "implicit_utility",
    "implicit_utility_many",
    "jump_oracle",
    "load_model",
    "lottery",
    "mix",
    "model_from_spec",
    "one_sided_limits",
    "oracle_from_value",
    "quadratic_oracle",
    "render_svg",
    "run_all_checks",
    "separate",
    "solve_mixing",
    "solve_mixing_many",
    "solve_utility",
    "solve_utility_many",
    "trace_level_curves",
    "utility_fixed_point",
    "utility_fixed_point_many",
    "verify_separation",
]
