"""Statistical equilibrium of harmonic lattice dynamics.

Finite-range interaction kernels on Z^d, their dispersion structure, the exact
linear flow, Gaussian and transformed initial measures, covariance transport
with its long-time limit, and the ensemble statistics that certify convergence,
Gaussianity and mixing numerically.
"""

__version__ = "0.1.0"

from .kernel import (
    ConditionReport,
    InteractionKernel,
    build_nn_kernel,
    check_E123,
    kernel_from_json,
    kernel_to_json,
    random_finite_range_kernel,
)
from .spectral import (
    DELTA_CONST,
    DELTA_CROSS,
    DELTA_HESS,
    DELTA_NULL,
    CriticalSetEstimate,
    DispersionGrid,
    branch_derivatives,
    check_E4_E5,
    check_ES,
    critical_set_scan,
    dispersion_grid,
    write_dispersion_csv,
)
from .dynamics import (
    evolve_ensemble,
    green_function,
    hamiltonian,
    reference_evolve_ode,
    truncated_green,
)
from .fields import (
    SpectralDensity,
    density_from_covariance,
    density_from_jsonable,
    density_to_jsonable,
    empirical_mixing_support,
    gaussian_ensemble,
    nonlinear_transform_sample,
    triangular_density,
    white_noise_density,
)
from .covariance import (
    CovarianceTable,
    LimitDensity,
    TestField,
    covariance_from_density,
    evolve_density,
    gibbs_density,
    limit_density,
    mixing_integral,
    quadratic_form,
)
from .stats import (
    EnsembleSummary,
    characteristic_functional,
    empirical_covariance,
    gaussianity_report,
    linear_functional_samples,
    weighted_norm,
)

__all__ = [
    "__version__",
    "ConditionReport",
    "InteractionKernel",
    "build_nn_kernel",
    "check_E123",
    "kernel_from_json",
    "kernel_to_json",
    "random_finite_range_kernel",
    "DELTA_CONST",
    "DELTA_CROSS",
    "DELTA_HESS",
    "DELTA_NULL",
    "CriticalSetEstimate",
    "DispersionGrid",
    "branch_derivatives",
    "check_E4_E5",
    "check_ES",
    "critical_set_scan",
    "dispersion_grid",
    "write_dispersion_csv",
    "evolve_ensemble",
    "green_function",
    "hamiltonian",
    "reference_evolve_ode",
    "truncated_green",
    "SpectralDensity",
    "density_from_covariance",
    "density_from_jsonable",
    "density_to_jsonable",
    "empirical_mixing_support",
    "gaussian_ensemble",
    "nonlinear_transform_sample",
    "triangular_density",
    "white_noise_density",
    "CovarianceTable",
    "LimitDensity",
    "TestField",
    "covariance_from_density",
    "evolve_density",
    "gibbs_density",
    "limit_density",
    "mixing_integral",
    "quadratic_form",
    "EnsembleSummary",
    "characteristic_functional",
    "empirical_covariance",
    "gaussianity_report",
    "linear_functional_samples",
    "weighted_norm",
]
