"""Regularized FIR system identification with diagonal/correlated kernels.

The package is organised by task:

* :mod:`dcsysid.kernel`     -- DC/TC kernel matrices and their closed-form
  factorizations, tridiagonal inverses, determinants, condition numbers.
* :mod:`dcsysid.maxent`     -- maximum-entropy completion of partially
  specified banded covariances and its factored form.
* :mod:`dcsysid.regression` -- FIR datasets, regressors, simulation, CSV
  ingestion.
* :mod:`dcsysid.likelihood` -- one-pass QR compression of the data, least
  squares read off its triangle, marginal-likelihood objective (naive
  dense oracle plus three QR-based evaluators), MAP estimate,
  gradient/Hessian, flop accounting.
* :mod:`dcsysid.tuner`      -- empirical-Bayes hyperparameter search and
  fit scoring.
* :mod:`dcsysid.cli`        -- the ``dcsysid`` command-line tool.
"""

from .kernel import (
    DcHyperparams,
    FactoredKernel,
    ParameterError,
    SingularKernelError,
    TridiagonalMatrix,
    build_dc_kernel,
    build_tc_kernel,
    dc_cholesky_factor,
    dc_condition_number,
    dc_factorize,
    dc_inverse,
    dc_inverse_cholesky_factors,
    dc_kernel_gradient,
    dc_kernel_hessian,
    dc_logdet,
)
from .maxent import (
    BandFormatError,
    CentralExtension,
    InfeasibleBandError,
    OutOfBandError,
    PartialBandMatrix,
    central_extension,
    check_feasibility,
    gaussian_entropy,
    one_step_extension,
    read_band_file,
    read_band_text,
)
from .regression import (
    CsvFormatError,
    IllPosedError,
    RegressionData,
    build_regressor,
    load_csv,
    simulate_fir,
)
from .likelihood import (
    NumericalError,
    ObjectiveEvaluation,
    PreprocessedData,
    RankDeficiencyError,
    algorithm_a_flops,
    algorithm_b_flops,
    algorithm_c_flops,
    ls_estimate,
    map_estimate,
    nll_algorithm_a,
    nll_algorithm_b,
    nll_algorithm_c,
    nll_gradient_hessian,
    nll_naive,
    nll_value_and_gradient,
    preprocess,
    preprocess_matrices,
    preprocessing_flops,
)
from .tuner import (
    IdentificationResult,
    TunerConfig,
    TuningError,
    fit_metric,
    tune,
)

__version__ = "0.1.0"

__all__ = [
    "DcHyperparams",
    "FactoredKernel",
    "TridiagonalMatrix",
    "ParameterError",
    "SingularKernelError",
    "build_dc_kernel",
    "build_tc_kernel",
    "dc_cholesky_factor",
    "dc_factorize",
    "dc_inverse",
    "dc_inverse_cholesky_factors",
    "dc_logdet",
    "dc_condition_number",
    "dc_kernel_gradient",
    "dc_kernel_hessian",
    "PartialBandMatrix",
    "CentralExtension",
    "BandFormatError",
    "InfeasibleBandError",
    "OutOfBandError",
    "check_feasibility",
    "one_step_extension",
    "central_extension",
    "gaussian_entropy",
    "read_band_text",
    "read_band_file",
    "RegressionData",
    "CsvFormatError",
    "IllPosedError",
    "build_regressor",
    "simulate_fir",
    "ls_estimate",
    "load_csv",
    "PreprocessedData",
    "ObjectiveEvaluation",
    "NumericalError",
    "RankDeficiencyError",
    "preprocess",
    "preprocess_matrices",
    "nll_naive",
    "nll_algorithm_a",
    "nll_algorithm_b",
    "nll_algorithm_c",
    "map_estimate",
    "nll_value_and_gradient",
    "nll_gradient_hessian",
    "preprocessing_flops",
    "algorithm_a_flops",
    "algorithm_b_flops",
    "algorithm_c_flops",
    "TunerConfig",
    "IdentificationResult",
    "TuningError",
    "tune",
    "fit_metric",
    "__version__",
]
