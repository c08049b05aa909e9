"""Distributed averaging under noisy gossip communication.

Simulates the pairwise averaging dynamic under sequential and synchronous
schedulers, real-valued / rounding / bounded-range update rules, and
Gaussian / discrete-geometric / noiseless channels; tracks the convergence
potentials and their interval decomposition; and evaluates the matching
closed-form tail and convergence-time bounds.
"""

__version__ = "0.1.0"

import os as _os

# Load numpy's OpenBLAS with one thread. This must run before the submodules
# below import numpy: OpenBLAS reads the variable once, when it loads. The
# package never wants BLAS threads (its parallelism is `--jobs` processes).
# By default OpenBLAS starts one worker per extra core, and each busy-waits
# for about 0.1 s after loading and again after every threaded `np.dot`.
# On a 2-core Xeon one thread cut the benchmark's fig-b CPU time from 0.61
# to 0.45 s at the same wall time. At n = 5*10^4, 200 synchronous rounds
# with a snapshot each and 4 runs under `--jobs 2`, it cut CPU from 6.1 to
# 2.3 s and wall from 3.2 to 1.3 s. Above 10^4 values OpenBLAS also splits
# `np.dot` across its threads, so `tss` would depend on the core count.
# A value the caller set is kept.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    InsufficientDataError,
    ModelMismatchError,
    NumericalDriftError,
    ParameterError,
    QuantileRangeError,
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
    b_prime,
    b_star,
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
    run_experiment,
    survival_fit,
)
from .seeding import make_rng, mix64
