"""Statistical equilibrium of harmonic lattice dynamics.

Finite-range interaction kernels on Z^d, their dispersion structure, the exact
linear flow, Gaussian and transformed initial measures, covariance transport
with its long-time limit, and the ensemble statistics that certify convergence,
Gaussianity and mixing numerically.
"""

__version__ = "0.1.0"

from ._lattice import NumericalFault
from .kernel import (
    ConditionFailure,
    ConditionReport,
    InteractionKernel,
    build_nn_kernel,
    check_E123,
    kernel_from_json,
    random_finite_range_kernel,
)
from .spectral import (
    DELTA_CROSS,
    DELTA_HESS,
    DELTA_NULL,
    DispersionGrid,
    check_E4_E5,
    check_ES,
    dispersion_grid,
)
from .dynamics import (
    Propagator,
    evolve_ensemble,
    green_cutoff,
    green_function,
    hamiltonian,
    reference_evolve_ode,
)
from .fields import (
    GaussianSampler,
    SpectralDensity,
    density_from_covariance,
    density_from_jsonable,
    density_to_jsonable,
    gaussian_ensemble,
    nonlinear_transform_sample,
    triangular_density,
    white_noise_density,
)
from .covariance import (
    TestField,
    covariance_from_density,
    evolve_density,
    gibbs_density,
    limit_density,
    mixing_integral,
    quadratic_form,
)
from .stats import (
    characteristic_functional,
    covariance_summary,
    empirical_covariance,
    empirical_mixing_support,
    gaussianity_report,
    linear_functional_samples,
    offset_products,
    require_samples,
    stream_ensemble,
)

__all__ = [
    "__version__",
    "NumericalFault",
    "ConditionFailure",
    "ConditionReport",
    "InteractionKernel",
    "build_nn_kernel",
    "check_E123",
    "kernel_from_json",
    "random_finite_range_kernel",
    "DELTA_CROSS",
    "DELTA_HESS",
    "DELTA_NULL",
    "DispersionGrid",
    "check_E4_E5",
    "check_ES",
    "dispersion_grid",
    "Propagator",
    "evolve_ensemble",
    "green_cutoff",
    "green_function",
    "hamiltonian",
    "reference_evolve_ode",
    "GaussianSampler",
    "SpectralDensity",
    "density_from_covariance",
    "density_from_jsonable",
    "density_to_jsonable",
    "gaussian_ensemble",
    "nonlinear_transform_sample",
    "triangular_density",
    "white_noise_density",
    "TestField",
    "covariance_from_density",
    "evolve_density",
    "gibbs_density",
    "limit_density",
    "mixing_integral",
    "quadratic_form",
    "characteristic_functional",
    "offset_products",
    "covariance_summary",
    "empirical_covariance",
    "empirical_mixing_support",
    "gaussianity_report",
    "linear_functional_samples",
    "require_samples",
    "stream_ensemble",
]
