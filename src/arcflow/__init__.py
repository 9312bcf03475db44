"""Momentum-mixture velocity fields, closed-form trajectory integration and
flow distillation, with a desk-scale verification harness."""

from .errors import (
    ArcFlowError,
    CheckpointFormatError,
    ConfigError,
    ConvergenceError,
    InvalidIntervalError,
    InvalidParameterError,
    InvalidProblemError,
    NumericError,
    StateError,
)
from .momentum import (
    LatentState,
    MomentumParams,
    eval_velocity,
    init_log_gammas,
)
from .solver import (
    LN_GAMMA_EPS,
    displacement,
    momentum_coefficient,
    quadrature_displacement,
    step,
    sub_interval_displacement,
)
from .interpolation import (
    InterpolationProblem,
    InterpolationSolution,
    build_basis_matrix,
    solve_exact_fit,
    to_momentum_params,
    verify_haar,
)
from .teacher import (
    AnalyticGmmTeacher,
    CfmTrainConfig,
    GmmTeacherSpec,
    NeuralTeacher,
    TrajectoryRecord,
    euler_sample,
    gmm_velocity,
    ring_spec,
    sample_data,
    train_cfm_teacher,
)
from .nnet import (
    MomentumParamGrads,
    NetConfig,
    OptimState,
    StudentNet,
    adam_step,
    grad_check,
    init_optim_state,
)
from .distill import (
    DistillConfig,
    build_student_net,
    distill_train,
    init_shelf_state,
    lambda_at,
    make_linear_baseline,
    mixed_integration,
    sample_anchor_times,
    sample_shelf,
    student_sample,
    training_streams,
    velocity_matching_loss,
)
from .harness import (
    ABLATION_STUDIES,
    MetricsReport,
    RunConfig,
    RunOptions,
    TeacherConfig,
    ablation_budget,
    ablation_cells,
    build_teacher,
    config_hash,
    endpoint_mse,
    energy_distance,
    evaluate_student,
    fmt,
    format_run_config,
    load_run_config,
    parse_run_config,
    positions_at,
    run_ablation,
    run_distillation,
    trajectory_deviation,
    write_ablation_csv,
    write_loss_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"
