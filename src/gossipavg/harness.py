"""Experiment orchestration: seeded runs, traces, histograms, serialization.

A run is fully determined by its :class:`ExperimentConfig`; run r of an
ensemble draws every random bit from a PCG64 stream seeded by
``mix64(master_seed, r)``.  Traces record potential snapshots at step 0,
every ``record_every`` steps, the final step, and at the endpoints of each
decomposition interval, where the incremental trackers are verified
against full recomputations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import __version__, dynamics
from .dynamics import (
    Cutoff,
    DiscreteRounding,
    Population,
    Real,
    SequentialEngine,
    SynchronousEngine,
    UpdateRule,
    _exact,
    init_population,
    parallel_time,
)
from .errors import ConfigError, InsufficientDataError, ModelMismatchError, ParameterError
from .noise import DiscreteGeometric, Gaussian, NoiseModel, Zero
from .potentials import (
    DecompositionAccumulator,
    PotentialSnapshot,
    check_decomposition_bound,
)
from .seeding import GENERATOR_NAME, make_rng, mix64

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformInit:
    lo: float
    hi: float


@dataclass(frozen=True)
class ConstantInit:
    v: float


@dataclass(frozen=True)
class ExplicitInit:
    values: tuple[float, ...]


InitSpec = Union[UniformInit, ConstantInit, ExplicitInit]

#: The engine that runs each scheduler.
ENGINES = {"sequential": SequentialEngine, "synchronous": SynchronousEngine}
SCHEDULERS = tuple(ENGINES)

#: The most float64 values one numpy array holds: numpy refuses an array of
#: more bytes than np.intp holds.
MAX_ARRAY_VALUES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one (possibly multi-run) experiment."""

    n: int
    init: InitSpec
    scheduler: str
    noise: NoiseModel
    rule: UpdateRule
    steps: int
    master_seed: int
    record_every: int
    decomposition_intervals: tuple[tuple[int, int], ...] = ()
    runs: int = 1

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError(f"n: need at least 2 agents, got {self.n}")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(f"scheduler: must be one of {SCHEDULERS}, got {self.scheduler!r}")
        if self.steps < 1:
            raise ConfigError(f"steps: must be a positive integer, got {self.steps}")
        if self.record_every < 1 or self.record_every > self.steps:
            raise ConfigError(
                f"record_every: must be in [1, steps], got {self.record_every} with steps={self.steps}"
            )
        if self.runs < 1:
            raise ConfigError(f"runs: must be positive, got {self.runs}")
        # mix64 keeps the low 64 bits, so a seed outside [0, 2^64) would alias one inside
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed: must be in [0, 2^64), got {self.master_seed}")
        if isinstance(self.init, ExplicitInit) and len(self.init.values) != self.n:
            raise ConfigError(
                f"init: explicit values have length {len(self.init.values)}, expected n={self.n}"
            )
        if isinstance(self.init, UniformInit) and not self.init.lo < self.init.hi:
            raise ConfigError(f"init: uniform range needs lo < hi, got [{self.init.lo}, {self.init.hi}]")
        # |x - mean| <= 2 m, so every step-0 sum of squares (tss, phi_bar and
        # phi = 2 n phi_bar) is at most 2 n^2 (2 m)^2.  From n = 2^512 on that
        # product is inf or nan, and n may be too large for a float at all.
        m = float(np.max(np.abs(_init_numbers(self.init))))
        if self.n >= 2**512 or not math.isfinite(2.0 * self.n * self.n * (2.0 * m) * (2.0 * m)):
            raise ConfigError(
                f"init: values up to {m} are not finite or too large for n={self.n} "
                "(2 n^2 (2 max |value|)^2 must be finite, so that the sums of squares are)"
            )
        if self.n > MAX_ARRAY_VALUES:
            raise ConfigError(f"n: {self.n} values take more bytes than a numpy array "
                              f"can hold (at most {MAX_ARRAY_VALUES} float64 values)")
        # the kernel's run counts steps in a Py_ssize_t; record_every and the
        # window ends lie within [0, steps], so this bounds them too
        if self.steps > sys.maxsize:
            raise ConfigError(f"steps: must be at most {sys.maxsize}, got {self.steps}")
        prev_end = 0
        for t0, t1 in self.decomposition_intervals:
            if not (0 <= t0 < t1 <= self.steps):
                raise ConfigError(
                    f"decomposition_intervals: ({t0}, {t1}] must lie within [0, steps]"
                )
            if t0 < prev_end:
                raise ConfigError(
                    "decomposition_intervals: intervals must be sorted and non-overlapping"
                )
            prev_end = t1
        if self.decomposition_intervals and self.scheduler != "sequential":
            raise ConfigError(
                "decomposition_intervals: decomposition is defined for the sequential scheduler"
            )


def _init_numbers(init: InitSpec) -> tuple[float, ...]:
    """The numbers an init spec puts into the population or draws between.

    A uniform range enters with its width too: numpy cannot sample a range
    whose width overflows.
    """
    if isinstance(init, UniformInit):
        return init.lo, init.hi, init.hi - init.lo
    if isinstance(init, ConstantInit):
        return (init.v,)
    return init.values


#: The ``kind`` of each init, noise and rule object and the class it builds.
KINDS = {
    "init": {"uniform": UniformInit, "constant": ConstantInit, "explicit": ExplicitInit},
    "noise": {"gaussian": Gaussian, "discrete_geometric": DiscreteGeometric, "zero": Zero},
    "rule": {"real": Real, "discrete_rounding": DiscreteRounding, "cutoff": Cutoff},
}
_KIND_OF = {cls: kind for classes in KINDS.values() for kind, cls in classes.items()}


def _read_int(v) -> int:
    """A JSON integer, an integral float such as ``2e2``, or a string such as ``"12"``."""
    integral = isinstance(v, float) and v.is_integer()
    if integral or (isinstance(v, (int, str)) and not isinstance(v, bool)):
        with contextlib.suppress(ValueError):
            return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def _read_float(v) -> float:
    """A JSON number, or a string such as ``"5"``, as a float."""
    if isinstance(v, (int, float, str)) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError, ValueError):
            return float(v)
    raise ValueError(f"expected a number, got {v!r}")


def _read_only(types, what: str):
    """A reader that passes on values of ``types`` and rejects the rest."""
    def read(v):
        if not isinstance(v, types):
            raise ValueError(f"expected {what}, got {v!r}")
        return v
    return read


_read_list = _read_only((list, tuple), "a list")


def _read_interval(v) -> tuple[int, int]:
    if len(_read_list(v)) != 2:
        raise ValueError(f"expected [t0, t1] pairs, got {v!r}")
    return _read_int(v[0]), _read_int(v[1])


#: The reader of each field type (the annotation, as written) of the config classes.
_READERS = {
    "int": _read_int,
    "float": _read_float,
    "bool": _read_only(bool, "true or false"),
    "str": _read_only(str, "a string"),
    "tuple[float, ...]": lambda v: tuple(map(_read_float, _read_list(v))),
    "tuple[tuple[int, int], ...]": lambda v: tuple(map(_read_interval, _read_list(v))),
}


def _from_json(cls, d: dict, where: str = ""):
    """Build the config class ``cls`` from the JSON object ``d``.

    Every error is a ConfigError whose message starts with ``where`` (the
    enclosing field, as ``"noise: "``) and names the field at fault.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where}expected an object, got {d!r}")
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{where}unknown config fields: {sorted(unknown)}")
    kwargs = {}
    for f in fields:
        if f.name not in d:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"{where}missing config field: {f.name}")
        elif f.name in KINDS:
            kwargs[f.name] = _read_kind(f.name, d[f.name])
        else:
            try:
                kwargs[f.name] = _READERS[f.type](d[f.name])
            except ValueError as exc:
                raise ConfigError(f"{where}{f.name}: {exc}") from exc
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _read_kind(name: str, spec):
    """The ``{"kind": ...}`` object ``spec`` of the field ``name`` as its class."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name}: expected an object with a \"kind\", got {spec!r}")
    fields = dict(spec)
    kind = fields.pop("kind", None)
    if not isinstance(kind, str) or kind not in KINDS[name]:
        raise ConfigError(f"{name}: unknown kind {kind!r}")
    return _from_json(KINDS[name][kind], fields, f"{name}: ")


def _to_json(obj):
    """A config object as JSON data: ``kind`` first where it has one, then its
    fields in declaration order; tuples as lists."""
    if dataclasses.is_dataclass(obj):
        out = {"kind": _KIND_OF[type(obj)]} if type(obj) in _KIND_OF else {}
        out.update((f.name, _to_json(getattr(obj, f.name))) for f in dataclasses.fields(obj))
        return out
    if isinstance(obj, tuple):
        return [_to_json(x) for x in obj]
    return obj


def config_to_json_dict(config: ExperimentConfig) -> dict:
    return _to_json(config)


def config_from_json_dict(d: dict) -> ExperimentConfig:
    config = _from_json(ExperimentConfig, d)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# trace records
# ---------------------------------------------------------------------------


class Histogram(NamedTuple):
    """Counts over strictly increasing bin edges."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    total: int


class DecompositionRecord(NamedTuple):
    accumulator: DecompositionAccumulator
    bound_holds: bool


@dataclass
class TraceRecord:
    """Everything recorded about one run."""

    run_index: int
    n: int
    snapshots: list[PotentialSnapshot] = field(default_factory=list)
    decompositions: list[DecompositionRecord] = field(default_factory=list)
    final_population: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

#: run_single's snapshot of an engine row, timed under this name by perfbench/tracer.py
_snapshot_from_engine = PotentialSnapshot._make


def _initial_values(config: ExperimentConfig, rng) -> np.ndarray:
    init = config.init
    if isinstance(init, UniformInit):
        return rng.uniform(init.lo, init.hi, size=config.n)
    if isinstance(init, ConstantInit):
        return np.full(config.n, float(init.v))
    return np.asarray(init.values, dtype=float)


def _run_rng(config: ExperimentConfig, run_index: int):
    """Run ``run_index``'s PCG64 stream, seeded with ``mix64(master_seed,
    run_index)``: the kernel's (``dynamics.KernelPCG64``, which needs no
    ``numpy.random``) where there is a kernel, else ``make_rng``'s numpy
    Generator.  Both give the same bits."""
    if dynamics._kernel is None:
        return make_rng(config.master_seed, run_index)
    return dynamics.KernelPCG64(mix64(config.master_seed, run_index))


def initial_phi_bar(config: ExperimentConfig) -> float:
    """Run 0's phi_bar at step 0, as :func:`run_single` records it, without the run."""
    return _exact(_initial_values(config, _run_rng(config, 0)))[1]


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask where
    the OS has one (1 under `taskset -c 0`), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_a_pool() -> bool:
    """Whether multiprocessing started this process, as it starts the pool
    workers of ``run_experiment``; such a worker has the module loaded."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


#: The least agents in a run's chunks, and in the whole run, for its draws
#: to be made ahead: below either, the hand-offs and the thread's start cost
#: what the overlap saves (measured in-process on a 2-core Xeon: 512-agent
#: chunks and runs of 2^17 to 2^18 agents in 2048-agent chunks gained
#: nothing, fig-b's 4·10^6 agents in 2048-agent chunks a quarter).
AHEAD_CHUNK_AGENTS = 1024
AHEAD_RUN_AGENTS = 1 << 20


def draws_ahead(config: ExperimentConfig, cpus: int, pooled: bool) -> bool:
    """Whether a run of ``config`` has a second thread draw its chunks while
    the engine applies them (``_Engine.advance``'s ``ahead``): where this
    process may use 2 CPUs and is not a pool worker (``pooled``: the pool's
    processes share the CPUs), the run opens no decomposition window (only a
    window's tracker check stops a run early), and its chunks are large and
    many enough.  Its chunks hold ``record_every`` steps at most, less where
    the schedule cuts them shorter.  The bits are the same either way."""
    resync_every, chunk, per_step = ENGINES[config.scheduler]._schedule(config.n)
    chunk_agents = min(chunk, resync_every, config.record_every) * per_step
    return (cpus >= 2 and not pooled and not config.decomposition_intervals
            and chunk_agents >= AHEAD_CHUNK_AGENTS
            and config.steps * per_step >= AHEAD_RUN_AGENTS)


def run_single(config: ExperimentConfig, run_index: int) -> TraceRecord:
    """Execute one run of the ensemble; deterministic in (config, run_index).
    The engine's ``advance`` runs its boundary loop (one kernel call where
    there is a kernel), with its draws made ahead where ``draws_ahead``
    says; this makes its rows snapshots and its windows records."""
    rng = _run_rng(config, run_index)
    engine = ENGINES[config.scheduler](init_population(_initial_values(config, rng)),
                                       config.noise, config.rule, rng)
    rows, closed = engine.advance(config.steps, record_every=config.record_every,
                                  windows=config.decomposition_intervals,
                                  ahead=draws_ahead(config, usable_cpus(), _in_a_pool()))
    decompositions = []
    for t0, t1, phi0, phi1, *sums in closed:
        acc = DecompositionAccumulator(t0, t1, *sums)
        decompositions.append(DecompositionRecord(acc, check_decomposition_bound(acc, phi0, phi1)))
    return TraceRecord(run_index, config.n, list(map(_snapshot_from_engine, rows)),
                       decompositions, engine.values)  # the engine is dropped: no copy


def run_experiment(config: ExperimentConfig, jobs: int = 1, per_run=None) -> list:
    """``per_run(config, r)`` for every run r of the ensemble, in run order
    regardless of ``jobs``; ``per_run`` defaults to :func:`run_single`, so
    the list holds each run's :class:`TraceRecord`.

    With ``jobs > 1`` the runs go to a pool of at most ``jobs`` processes,
    which hands them out in chunks of ``runs // (4 jobs)`` (at least 1);
    ``per_run`` and what it returns must then pickle.
    """
    config.validate()
    per_run = per_run or run_single
    runs = range(config.runs)
    if jobs > 1 and config.runs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=min(jobs, config.runs)) as pool:
            return list(pool.map(per_run, [config] * config.runs, runs,
                                 chunksize=max(1, config.runs // (4 * jobs))))
    return [per_run(config, r) for r in runs]


def run_and_emit(out_dir: Path, config: ExperimentConfig, run_index: int) -> dict:
    """The ``run`` command's per-run function: make run ``run_index``, write
    its ``trace_runNNNN.csv`` (and ``decomposition_runNNNN.csv`` where it
    has decomposition records) into ``out_dir``, created if absent, and
    return its ``summary.json`` entry (:func:`run_entry`).

    Bound to ``out_dir`` with ``functools.partial`` it pickles, so each pool
    worker writes the files of the runs it made and sends back only what
    ``summary.json`` reads.
    """
    trace = run_single(config, run_index)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(trace, out_dir / f"trace_run{run_index:04d}.csv")
    if trace.decompositions:
        emit_decomposition_csv(trace, out_dir / f"decomposition_run{run_index:04d}.csv")
    return run_entry(trace)


# ---------------------------------------------------------------------------
# histograms and the distance-distribution fit
# ---------------------------------------------------------------------------


def distance_histogram(pop: Population, bins: Optional[int] = None) -> Histogram:
    """Histogram of the distances x_i - mean(x), by ``histogram_of``'s rules."""
    return histogram_of(pop.values - np.mean(pop.values), bins)


def tail_histogram(values: np.ndarray, bins: Optional[int] = None) -> Histogram:
    """Histogram of the absolute distances |x_i - mean(x)|, which ``survival_fit`` fits."""
    return histogram_of(np.abs(values - values.mean()), bins)


def histogram_of(values: Sequence[float], bins: Optional[int] = None) -> Histogram:
    """Histogram of sample values over equal-width bins.

    ``bins=None`` selects the bin count by the Freedman-Diaconis rule (at
    least 2); an explicit count must be >= 2.  All-equal values collapse to
    a single bin whatever the count.
    """
    if bins is not None and bins < 2:
        raise ParameterError(f"bins must be >= 2, got {bins}")
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return Histogram((lo, lo + 1.0), (len(arr),), len(arr))
    edges = np.histogram_bin_edges(arr, bins="fd" if bins is None else bins)
    if len(edges) < 3:
        edges = np.histogram_bin_edges(arr, bins=2)
    counts, edges = np.histogram(arr, bins=edges)
    return Histogram(tuple(float(e) for e in edges),
                     tuple(int(c) for c in counts), int(len(arr)))


#: Bins with fewer samples than this are excluded from the survival fit.
FIT_MIN_COUNT = 30

#: Minimum number of qualifying bins for a meaningful fit.
FIT_MIN_BINS = 5


def survival_fit(hist: Histogram) -> tuple[float, float]:
    """Least-squares fit of log empirical survival against distance.

    Evaluates the survival fraction at each bin's right edge and fits
    ln(survival) ~ a x + b over bins holding at least FIT_MIN_COUNT samples
    (and positive survival).  Returns (slope, r_squared); an exponential
    tail yields a negative slope with r_squared near 1.
    """
    counts = np.asarray(hist.counts, dtype=float)
    edges = np.asarray(hist.bin_edges, dtype=float)
    survivors = hist.total - np.cumsum(counts)
    ok = (counts >= FIT_MIN_COUNT) & (survivors > 0)
    if int(ok.sum()) < FIT_MIN_BINS:
        raise InsufficientDataError(
            f"survival fit needs >= {FIT_MIN_BINS} bins with >= {FIT_MIN_COUNT} samples, "
            f"got {int(ok.sum())}"
        )
    x = edges[1:][ok]
    y = np.log(survivors[ok] / hist.total)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r_squared)


# ---------------------------------------------------------------------------
# Monte Carlo drift study
# ---------------------------------------------------------------------------


class DriftReport(NamedTuple):
    empirical_variance: float
    theory_variance: float
    exceed_fraction_upper: float
    exceed_fraction_lower: float
    delta: float
    upper_bound: float
    lower_prob: float


def _final_drift(config: ExperimentConfig, run_index: int) -> float:
    """``monte_carlo_drift``'s per-run function: the run's drift at its last snapshot."""
    return run_single(config, run_index).snapshots[-1].drift


def monte_carlo_drift(config: ExperimentConfig, runs: int, delta: float = 0.1,
                      jobs: int = 1) -> DriftReport:
    """Drift of the running average over an ensemble, against the Gaussian law.

    Requires Gaussian noise and the sequential scheduler.  The theoretical
    variance of the drift after t steps is t sigma^2 / (2 n^2).
    """
    from .bounds import drift_bound_gaussian

    if not isinstance(config.noise, Gaussian):
        raise ModelMismatchError("drift study requires the Gaussian noise model")
    if config.scheduler != "sequential":
        raise ModelMismatchError("drift study requires the sequential scheduler")
    sigma = math.sqrt(config.noise.sigma2)
    theory = config.steps * config.noise.sigma2 / (2.0 * config.n**2)
    upper, lower_prob = drift_bound_gaussian(config.steps, delta, sigma, config.n)
    if config.steps == 0:
        return DriftReport(0.0, 0.0, 0.0, 0.0, delta, 0.0, lower_prob)
    cfg = dataclasses.replace(config, runs=runs, record_every=config.steps,
                              decomposition_intervals=())
    drifts = np.array(run_experiment(cfg, jobs=jobs, per_run=_final_drift))
    return DriftReport(
        empirical_variance=float(np.var(drifts)),
        theory_variance=theory,
        exceed_fraction_upper=float(np.mean(np.abs(drifts) > upper)),
        exceed_fraction_lower=float(np.mean(np.abs(drifts) >= upper)),
        delta=delta,
        upper_bound=upper,
        lower_prob=lower_prob,
    )


# ---------------------------------------------------------------------------
# figure replications
# ---------------------------------------------------------------------------

FIG_A_SEED = 1
FIG_A_BINS = 60
FIG_B_SEED = 12345


def fig_a_config(n: int = 10**4, master_seed: int = FIG_A_SEED) -> ExperimentConfig:
    """Distance-distribution study: uniform init over [1, n^2], 10 n steps.

    Defaults to n = 10^4 for desk-scale runtime; the distributional claim
    is scale-free in n.
    """
    return ExperimentConfig(
        n=n,
        init=UniformInit(1.0, float(n) ** 2),
        scheduler="sequential",
        noise=Gaussian(1.0),
        rule=Real(),
        steps=10 * n,
        master_seed=master_seed,
        record_every=n,
    )


def fig_b_config(master_seed: int = FIG_B_SEED) -> ExperimentConfig:
    """Bounded-range drift study: n=1000 agents at 10, cutoff [1, 10], 10^7 steps."""
    n = 1000
    return ExperimentConfig(
        n=n,
        init=ConstantInit(10.0),
        scheduler="sequential",
        noise=DiscreteGeometric(0.8),
        rule=Cutoff(1.0, 10.0, rounding=True),
        steps=10**4 * n,
        master_seed=master_seed,
        record_every=10**3 * n,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

TRACE_COLUMNS = (*PotentialSnapshot._fields, "parallel_time")
DECOMP_COLUMNS = (*DecompositionAccumulator._fields, "bound_holds")


def _write_csv(path, columns: Sequence[str], row: str, rows, eol: str = "\r\n") -> None:
    """Write a header of ``columns`` and one ``row % values`` line per values
    of ``rows``, each ended by ``eol``, in one write.

    With ``%.17g`` float cells and the default ``eol`` the bytes are those of
    ``csv.writer`` with ``format(x, ".17g")`` cells: no cell needs quoting.
    """
    text = eol.join([",".join(columns), *(row % values for values in rows)]) + eol
    with open(path, "w", newline="") as fh:
        fh.write(text)


def emit_csv(trace: TraceRecord, path) -> None:
    """Write the snapshot trace as CSV; floats carry 17 significant digits."""
    n = trace.n
    _write_csv(path, TRACE_COLUMNS, "%d" + ",%.17g" * (len(TRACE_COLUMNS) - 1),
               ((*s, parallel_time(s.step, n)) for s in trace.snapshots))


def emit_decomposition_csv(trace: TraceRecord, path) -> None:
    _write_csv(path, DECOMP_COLUMNS, "%d,%d,%.17g,%.17g,%.17g,%s",
               ((*rec.accumulator, str(rec.bound_holds).lower())
                for rec in trace.decompositions))


def read_trace_csv(path) -> list[PotentialSnapshot]:
    """Parse a trace CSV back into snapshots (exact round-trip)."""
    import csv  # only this reader needs it

    with open(path, newline="") as fh:
        return [PotentialSnapshot(int(row["step"]),
                                  *(float(row[c]) for c in PotentialSnapshot._fields[1:]))
                for row in csv.DictReader(fh)]


def run_entry(trace: TraceRecord) -> dict:
    """A run's entry in ``summary.json``'s ``runs``: its final snapshot, the
    min, max and mean of its final values, and its decomposition records."""
    final = trace.snapshots[-1]
    values = trace.final_population
    return {
        "run_index": trace.run_index,
        "final": {**final._asdict(), "parallel_time": parallel_time(final.step, trace.n)},
        "final_values": {
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
        },
        "decompositions": [
            {**rec.accumulator._asdict(), "bound_holds": rec.bound_holds}
            for rec in trace.decompositions
        ],
    }


def summary_dict(entries: Sequence[dict], config: ExperimentConfig,
                 bound_values: Optional[dict] = None) -> dict:
    """Ensemble summary: per-run finals, ensemble statistics, bound values,
    from each run's :func:`run_entry`."""
    drifts = np.array([e["final"]["drift"] for e in entries])
    phis = np.array([e["final"]["phi_bar"] for e in entries])
    violations = sum(
        1 for e in entries for rec in e["decompositions"] if not rec["bound_holds"]
    )
    return {
        "metadata": {
            "master_seed": config.master_seed,
            "generator": GENERATOR_NAME,
            "build": __version__,
            "config": config_to_json_dict(config),
        },
        "runs": entries,
        "ensemble": {
            "final_phi_bar_mean": float(phis.mean()),
            "final_phi_bar_max": float(phis.max()),
            "final_drift_variance": float(np.var(drifts)),
            "decomposition_violations": violations,
        },
        "bounds": bound_values or {},
    }


def emit_json(entries: Sequence[dict], path, config: ExperimentConfig,
              bound_values: Optional[dict] = None) -> None:
    """Write :func:`summary_dict` as JSON; floats round-trip via repr."""
    with open(path, "w") as fh:
        json.dump(summary_dict(entries, config, bound_values), fh, indent=2)
        fh.write("\n")
