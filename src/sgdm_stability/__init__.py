"""Stability experiments and bound verification for SGD with momentum."""

from .dataset import (
    DataError,
    Dataset,
    NeighborSpec,
    ParseError,
    binarize,
    binarize_labels,
    load_libsvm,
    make_neighbor,
    parse_libsvm,
    serialize_libsvm,
    split,
    stack,
    synthetic_binary_dataset,
)
from .harness import (
    BoundCheckResult,
    ExperimentConfig,
    PreconditionError,
    StabilityResult,
    aggregate,
    run_bound_check,
    run_stability_experiment,
    save_stability_result,
)
from .losses import (
    SmoothnessReport,
    loss_grad,
    loss_value,
    smoothness,
)
from .optimizer import (
    DivergenceError,
    HyperParams,
    SampleStream,
    Trajectory,
    coupled_distance_batch,
    run,
)
from .theory import (
    BoundReport,
    ConditionReport,
    EprRecipe,
    check_opt_condition,
    check_stab_condition,
    epr_recipe,
    max_eta_hb,
    max_gamma_nesterov,
    max_step,
    optimization_bound,
    stability_bound,
    variant_params,
)
from .verification import CheckOutcome, run_invariant_suite

__version__ = "0.1.0"
