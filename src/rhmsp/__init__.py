"""Numerical laboratory for real harmonizable multifractional stable processes."""

from .model import (
    StabilityIndex,
    HurstFunction,
    KernelVariant,
    ProcessSpec,
    HurstSyntaxError,
    HurstRangeError,
    parse_hurst,
    eval_kernel,
    kernel_hat_Y,
)
from .quad import (
    QuadratureConfig,
    OscillationHint,
    QuadResult,
    QuadratureError,
    ContractViolationError,
    integrate_even_singular,
    oscillatory_ft,
)

from .norms import (
    FddPoint,
    OptimizerConfig,
    LNDReport,
    OptimizerError,
    scale_norm,
    exact_cf,
    increment_norm,
    lnd_distance,
    condition_h_constant,
    hausdorff_young_ratio,
)
from .lepage import (
    LePageConfig,
    PathEnsemble,
    derive_constants,
    sample_paths,
    empirical_cf,
    truncation_diagnostic,
    bias_budget,
    ensemble_to_csv,
)
from .localtime import (
    SamplePath,
    LocalTimeEstimate,
    TestFunction,
    occupation_histogram,
    occupation_formula_check,
    local_time_second_moment,
    ensemble_path,
)
from .analysis import (
    CheckReport,
    holder_slope,
    localizability_error,
    lemma_sweeps,
    lnd_study,
    ft_check,
)

__version__ = "0.1.0"
