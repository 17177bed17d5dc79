"""Two-stage multiclass transfer-learning laboratory.

Synthetic multinomial-logistic tasks, diversity-regularized two-stage
ERM, Gaussian-complexity and excess-risk diagnostics, and a sweep
harness that verifies the predicted risk scaling on desk-scale data.
"""

from .errors import (
    ContractViolation,
    DegenerateInput,
    InfeasibleDiversityError,
    InfeasibleSamplingError,
    SingularMatrixError,
)
from .linalg import logdet_psd, orthonormalize, pinv_psd, sym_spectral
from .softmax import (
    check_self_concordance,
    cross_entropy,
    directional_derivatives,
    grad_log_partition,
    hessian_log_partition,
    kl_divergence,
    kl_quadratic_bounds,
    log_partition,
    softmax_prob,
)
from .model_space import (
    LinearHead,
    MlpRep,
    SubspaceRep,
    diversity_parameter,
    principal_angles,
)
from .synthetic import (
    CovariateSpec,
    GroundTruth,
    LabeledDataset,
    isotropic_covariates,
    make_dataset,
    make_ground_truth,
    sample_covariates,
    sample_labels,
)
from .erm import (
    HypothesisConfig,
    OptimConfig,
    TrainTrace,
    fit_downstream_head,
    logdet_regularizer,
    loss_and_grad,
    pretrain,
    train_baseline,
)
from .diagnostics import (
    BoundParams,
    ComplexityEstimate,
    RiskReport,
    chain_rule_check,
    empirical_gaussian_complexity_linear,
    evaluate_risk_bound,
    mc_complexity_finite,
    measure_excess_risks,
    representation_difference,
    schur_complement_bound,
)
from .harness import SweepConfig, default_config, fit_power_law, run_sweep, write_report
from .rngutil import derive_rng

__version__ = "0.1.0"
