"""Numerical certificates for drift-Laplacian spectral gaps and shrinker diameters.

The package verifies a chain of statements about the first nonzero
eigenvalue of the drift Laplacian Delta - grad(phi).grad on compact
weighted spaces, each reduced to margins in a machine-readable report:

* closed-form interval gap bounds cross-checked against brute-force
  grid suprema (:mod:`wittengap.bounds`),
* a finite-volume comparison operator on an interval whose Neumann gap
  realizes the bound (:mod:`wittengap.sturm`),
* weighted graph and mesh spectra, circles and icospheres with height
  weights, dominating the bound (:mod:`wittengap.spectral`),
* self-shrinking plane curves whose length and curvature feed intrinsic
  diameter bounds (:mod:`wittengap.shrinkers`),
* a command-line front end that runs the certification suite
  (:mod:`wittengap.cli`).
"""

from wittengap.bounds import (
    BoundInput,
    GridSweep,
    OptimalS,
    ShrinkerBoundInput,
    SolitonDiameterBounds,
    SolitonInput,
    andrews_ni_bound,
    futaki_sano_bound,
    gap_expression,
    shrinker_diameter_bound,
    shrinker_diameter_bound_sup,
    soliton_diameter_bounds,
    soliton_optimal_s,
    sup_bound_branch,
    sup_bound_closed,
    sup_bound_grid,
    sup_bound_grid_sweep,
)
from wittengap.report import SCHEMA_VERSION, VerificationReport, make_report
from wittengap.shrinkers import (
    FundamentalArc,
    ShrinkerCurve,
    assemble_rosette,
    circle_shrinker,
    curve_complex,
    eigen_identity_residual,
    find_abresch_langer,
    first_integral,
    gaussian_soliton_check,
    k0_and_diameter,
    mean_curvature_identity_residual,
    potential_phi,
    write_curve_csv,
)
from wittengap.spectral import (
    EigensolverConvergenceError,
    SpectralResult,
    WeightedComplex,
    apply_weight,
    build_icosphere,
    build_weighted_circle,
    lambda1_witten,
    witten_apply,
    write_eigenvector_csv,
    write_off,
)
from wittengap.sturm import (
    OUProblem,
    TridiagonalPencil,
    dirichlet_lambda1,
    discretize_ou,
    lowest_eigenvalue,
    neumann_lambda1,
    raw_lambda1,
    verify_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInput",
    "EigensolverConvergenceError",
    "FundamentalArc",
    "GridSweep",
    "OptimalS",
    "OUProblem",
    "SCHEMA_VERSION",
    "ShrinkerBoundInput",
    "ShrinkerCurve",
    "SolitonDiameterBounds",
    "SolitonInput",
    "SpectralResult",
    "TridiagonalPencil",
    "VerificationReport",
    "WeightedComplex",
    "andrews_ni_bound",
    "apply_weight",
    "assemble_rosette",
    "build_icosphere",
    "build_weighted_circle",
    "circle_shrinker",
    "curve_complex",
    "dirichlet_lambda1",
    "discretize_ou",
    "eigen_identity_residual",
    "find_abresch_langer",
    "first_integral",
    "futaki_sano_bound",
    "gap_expression",
    "gaussian_soliton_check",
    "k0_and_diameter",
    "lambda1_witten",
    "lowest_eigenvalue",
    "make_report",
    "mean_curvature_identity_residual",
    "neumann_lambda1",
    "potential_phi",
    "raw_lambda1",
    "shrinker_diameter_bound",
    "shrinker_diameter_bound_sup",
    "soliton_diameter_bounds",
    "soliton_optimal_s",
    "sup_bound_branch",
    "sup_bound_closed",
    "sup_bound_grid",
    "sup_bound_grid_sweep",
    "verify_comparison",
    "witten_apply",
    "write_curve_csv",
    "write_eigenvector_csv",
    "write_off",
]
