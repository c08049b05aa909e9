"""Distributed averaging under noisy gossip communication.

Simulates the pairwise averaging dynamic under sequential and synchronous
schedulers, real-valued / rounding / bounded-range update rules, and
Gaussian / discrete-geometric / noiseless channels; tracks the convergence
potentials and their interval decomposition; and evaluates the matching
closed-form tail and convergence-time bounds.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    InsufficientDataError,
    ModelMismatchError,
    NumericalDriftError,
    ParameterError,
    UndefinedPredictionError,
)
from .noise import (
    DiscreteGeometric,
    Gaussian,
    NoiseModel,
    NoiseMoments,
    Zero,
    is_smooth_at,
    m_quantile,
    moments,
    sample_batch,
)
from .dynamics import (
    Cutoff,
    DiscreteRounding,
    Interaction,
    Population,
    Real,
    StepEvent,
    UpdateRule,
    init_population,
    parallel_time,
    replay_event,
    sequential_step,
    synchronous_step,
)
from .potentials import (
    DecompositionAccumulator,
    PotentialSnapshot,
    accumulate_decomposition,
    check_decomposition_bound,
    delta_fraction,
    one_step_delta,
    phi,
    phi_bar,
    snapshot,
    tss,
)
from .bounds import (
    BoundInputs,
    b_prime,
    b_star,
    bound_inputs,
    convergence_time,
    drift_bound_gaussian,
    drift_bound_general,
    evaluate_all,
    gaussian_tail,
    s_minus_tail,
    standing_assumption_ok,
    tss_identity,
    z_value,
)
from .harness import (
    ConstantInit,
    DriftReport,
    ExperimentConfig,
    ExplicitInit,
    Histogram,
    TraceRecord,
    UniformInit,
    config_from_json_dict,
    config_to_json_dict,
    distance_histogram,
    emit_csv,
    emit_decomposition_csv,
    emit_json,
    fig_a_config,
    fig_b_config,
    histogram_of,
    load_config,
    monte_carlo_drift,
    read_trace_csv,
    replicate_fig_a,
    replicate_fig_b,
    run_experiment,
    survival_fit,
)
from .seeding import make_rng, mix64
