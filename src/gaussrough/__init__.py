"""Step-3 rough-path lifts of Gaussian processes on a grid.

Truncated tensor algebra, signature lifts of piecewise-linear paths,
p-variation/Holder/2D-variation functionals, exact Gaussian sampling,
Karhunen-Loeve mode truncation, and the conditional-law correction formulas,
plus experiment runners behind the ``gaussrough`` CLI.
"""

from .tensor_group import (
    GroupElement,
    LieElement,
    TensorElement,
    bracket_iij_tensor,
    dilate,
    dist,
    exp,
    hom_norm,
    identity,
    increment,
    inverse,
    is_group_like,
    lie_from_vector,
    log,
    max_abs_diff,
    mul,
    shuffle_defect,
    unit,
    zero,
)
from .path_lift import (
    GroupPath,
    SamplePath,
    TimeGrid,
    lift_pl,
    signature_increment,
    uniform_grid,
    young_integral_quadratic,
)
from .variation_metrics import (
    Dissection,
    all_dissections,
    holder_dist,
    holder_norm,
    pvar_dist,
    pvar_norm,
    rect_increment,
    rho_var_2d,
)
from .gaussian_process import (
    CovKernel,
    CovMatrix,
    DataError,
    cov_matrix,
    kernel_eval,
    sample,
)
from .karhunen_loeve import (
    IndexSet,
    KLBasis,
    coefficients,
    conditional_log_mc,
    kl_decompose,
    level2_double_sum,
    level3_correction,
    partial_cov,
    project,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    emit,
    load_config,
    read_records,
    run_2var_bound,
    run_convergence,
    run_lift,
    run_martingale_checks,
    run_pvar,
    run_rhovar,
    run_simulate,
    run_translation_check,
    run_uniform_modulus,
)

__version__ = "0.1.0"
