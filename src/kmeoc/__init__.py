"""Data-driven optimal control of diffusions via kernel mean embeddings.

The pipeline: simulate or load one-step snapshot data of a
control-affine diffusion (``systems``), fit embedded transition
operators by kernel ridge regression (``estimator``), run the backward
value recursion to extract optimal feedback laws (``hjb``), push state
distributions forward to forecast observables (``fpk``), and score the
whole thing against systems with known optimal laws (``bench``).
"""

from .bench import (
    BENCH_DEFAULTS,
    BenchReport,
    closed_loop_rollout,
    convergence_sweep,
    riccati_reference,
    rmse_policy,
    run_benchmark,
    test_grid,
)
from .errors import (
    ChecksumError,
    ConfigError,
    DivergenceError,
    EstimationError,
    HeaderError,
    InputError,
    IntegrationError,
    InvariantError,
    KmeocError,
    OracleError,
    PropagationError,
    RolloutError,
    ScoringError,
    SelectionError,
    StorageError,
    VersionError,
)
from .estimator import (
    EstimatedOperators,
    LowRank,
    ModelScore,
    departure_from_normality,
    enforce_markov,
    fit_krr,
    fit_residual,
    model_select,
    validation_score,
)
from .fpk import (
    MeasureWeights,
    embed_initial,
    forecast_observable_path,
    observable_forecast,
    propagate,
)
from .hjb import (
    ControlPenalty,
    ValueSolution,
    export_value_policy_csv,
    fenchel_conjugate,
    khjb_recursion,
    policy_interpolate,
    value_functional,
)
from .kernel import (
    DIFFUSED_MODES,
    GramBundle,
    KernelConfig,
    build_grams,
    control_gram,
    cross_gram_diffused,
    cross_vector,
    gram,
)
from .store import load, save
from .systems import (
    SYSTEM_NAMES,
    Box,
    ControlAffineSystem,
    Dataset,
    euler_maruyama_step,
    generate_dataset,
    load_dataset_csv,
    make_system,
    save_dataset_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernel
    "KernelConfig", "GramBundle", "DIFFUSED_MODES", "gram", "control_gram",
    "cross_gram_diffused", "cross_vector", "build_grams",
    # systems
    "Box", "ControlAffineSystem", "Dataset", "euler_maruyama_step",
    "generate_dataset", "save_dataset_csv", "load_dataset_csv",
    "make_system", "SYSTEM_NAMES",
    # estimator
    "EstimatedOperators", "LowRank", "ModelScore", "fit_krr",
    "enforce_markov", "departure_from_normality", "fit_residual",
    "validation_score", "model_select",
    # hjb
    "ControlPenalty", "ValueSolution", "fenchel_conjugate",
    "khjb_recursion", "value_functional", "policy_interpolate",
    "export_value_policy_csv",
    # fpk
    "MeasureWeights", "embed_initial", "propagate", "observable_forecast",
    "forecast_observable_path",
    # bench
    "BenchReport", "BENCH_DEFAULTS", "rmse_policy", "run_benchmark",
    "test_grid", "closed_loop_rollout", "riccati_reference",
    "convergence_sweep",
    # store
    "save", "load",
    # errors
    "KmeocError", "ConfigError", "InputError", "IntegrationError",
    "EstimationError", "ScoringError", "SelectionError", "DivergenceError",
    "PropagationError", "RolloutError", "OracleError", "StorageError",
    "HeaderError", "VersionError", "ChecksumError", "InvariantError",
]
