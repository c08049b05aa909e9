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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .dynamics import (
    Cutoff,
    DiscreteRounding,
    Population,
    Real,
    SequentialEngine,
    SynchronousEngine,
    UpdateRule,
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
# the snapshot builder of run_single, timed under this name by perfbench/tracer.py
from .potentials import _snapshot_of as _snapshot_from_engine
from .seeding import GENERATOR_NAME, make_rng

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

SCHEDULERS = ("sequential", "synchronous")


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


@dataclass(frozen=True)
class Histogram:
    """Counts over strictly increasing bin edges."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class DecompositionRecord:
    accumulator: DecompositionAccumulator
    phi_bar_t0: float
    phi_bar_t1: float
    bound_holds: bool


@dataclass
class TraceRecord:
    """Everything recorded about one run."""

    run_index: int
    n: int
    seed: int
    snapshots: list[PotentialSnapshot] = field(default_factory=list)
    decompositions: list[DecompositionRecord] = field(default_factory=list)
    final_population: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------


def _initial_values(config: ExperimentConfig, rng) -> np.ndarray:
    init = config.init
    if isinstance(init, UniformInit):
        return rng.uniform(init.lo, init.hi, size=config.n)
    if isinstance(init, ConstantInit):
        return np.full(config.n, float(init.v))
    return np.asarray(init.values, dtype=float)


def run_single(config: ExperimentConfig, run_index: int) -> TraceRecord:
    """Execute one run of the ensemble; deterministic in (config, run_index)."""
    seed = config.master_seed
    rng = make_rng(seed, run_index)
    pop = init_population(_initial_values(config, rng))
    x0 = pop.initial_average

    if config.scheduler == "sequential":
        engine = SequentialEngine(pop, config.noise, config.rule, rng)
    else:
        engine = SynchronousEngine(pop, config.noise, config.rule, rng)

    ends = dict(config.decomposition_intervals)  # t0 -> t1
    record_set = set(range(0, config.steps + 1, config.record_every))
    record_set.add(config.steps)
    boundaries = sorted(record_set | set(ends) | set(ends.values()))

    trace = TraceRecord(run_index=run_index, n=config.n, seed=seed)
    open_t0: Optional[int] = None
    open_phi0 = 0.0
    for b in boundaries:
        engine.advance(b - engine.step)
        mean, phibar = engine.refresh()
        if open_t0 is not None and b == ends[open_t0]:
            s_prime, s_star, s_minus = engine.end_decomposition()
            acc = DecompositionAccumulator(
                t0=open_t0, t1=b,
                s_prime=s_prime, s_star=s_star, s_minus=s_minus,
            )
            trace.decompositions.append(
                DecompositionRecord(
                    accumulator=acc,
                    phi_bar_t0=open_phi0,
                    phi_bar_t1=phibar,
                    bound_holds=check_decomposition_bound(acc, open_phi0, phibar),
                )
            )
            open_t0 = None
        trace.snapshots.append(_snapshot_from_engine(engine.values, b, x0, mean, phibar))
        if b in ends:
            engine.begin_decomposition()
            open_t0, open_phi0 = b, phibar

    trace.final_population = engine.values  # the engine is dropped here, so no copy
    return trace


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[TraceRecord]:
    """Run the whole ensemble; results are in run order regardless of ``jobs``."""
    config.validate()
    if jobs > 1 and config.runs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=min(jobs, config.runs)) as pool:
            return list(pool.map(run_single, [config] * config.runs, range(config.runs)))
    return [run_single(config, r) for r in range(config.runs)]


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
    a single bin regardless.
    """
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return Histogram((lo, lo + 1.0), (len(arr),), len(arr))
    spec = "fd" if bins is None else bins
    if bins is not None and bins < 2:
        raise ParameterError(f"bins must be >= 2, got {bins}")
    edges = np.histogram_bin_edges(arr, bins=spec)
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


@dataclass(frozen=True)
class DriftReport:
    empirical_variance: float
    theory_variance: float
    exceed_fraction_upper: float
    exceed_fraction_lower: float
    delta: float
    upper_bound: float
    lower_prob: float


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
    traces = run_experiment(cfg, jobs=jobs)
    drifts = np.array([t.snapshots[-1].drift for t in traces])
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


def replicate_fig_a(n: int = 10**4, master_seed: int = FIG_A_SEED,
                    bins: int = FIG_A_BINS) -> tuple[TraceRecord, Histogram, tuple[float, float]]:
    """Run the distance-distribution experiment and fit the tail law.

    Returns the trace, the histogram of absolute distances to the running
    average, and the (slope, r_squared) of the log-survival fit.
    """
    config = fig_a_config(n=n, master_seed=master_seed)
    trace = run_experiment(config)[0]
    hist = tail_histogram(trace.final_population, bins)
    return trace, hist, survival_fit(hist)


def replicate_fig_b(master_seed: int = FIG_B_SEED) -> TraceRecord:
    """Run the bounded-range experiment; the final running average is the result."""
    return run_experiment(fig_b_config(master_seed))[0]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("step", "tss", "phi_bar", "phi", "running_avg", "drift", "parallel_time")
DECOMP_COLUMNS = ("t0", "t1", "s_prime", "s_star", "s_minus", "bound_holds")


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
               ((s.step, s.tss, s.phi_bar, s.phi, s.running_avg, s.drift,
                 parallel_time(s.step, n)) for s in trace.snapshots))


def emit_decomposition_csv(trace: TraceRecord, path) -> None:
    _write_csv(path, DECOMP_COLUMNS, "%d,%d,%.17g,%.17g,%.17g,%s",
               ((*dataclasses.astuple(rec.accumulator), str(rec.bound_holds).lower())
                for rec in trace.decompositions))


def read_trace_csv(path) -> list[PotentialSnapshot]:
    """Parse a trace CSV back into snapshots (exact round-trip)."""
    import csv  # only this reader needs it

    with open(path, newline="") as fh:
        return [PotentialSnapshot(int(row["step"]), *(float(row[c]) for c in TRACE_COLUMNS[1:6]))
                for row in csv.DictReader(fh)]


def summary_dict(traces: list[TraceRecord], config: ExperimentConfig,
                 bound_values: Optional[dict] = None) -> dict:
    """Ensemble summary: per-run finals, ensemble statistics, bound values."""
    finals = [t.snapshots[-1] for t in traces]
    drifts = np.array([s.drift for s in finals])
    phis = np.array([s.phi_bar for s in finals])
    violations = sum(
        1 for t in traces for rec in t.decompositions if not rec.bound_holds
    )
    return {
        "metadata": {
            "master_seed": config.master_seed,
            "generator": GENERATOR_NAME,
            "build": __version__,
            "config": config_to_json_dict(config),
        },
        "runs": [
            {
                "run_index": t.run_index,
                "final": {**dataclasses.asdict(t.snapshots[-1]),
                          "parallel_time": parallel_time(t.snapshots[-1].step, t.n)},
                "final_values": {
                    "min": float(t.final_population.min()),
                    "max": float(t.final_population.max()),
                    "mean": float(t.final_population.mean()),
                },
                "decompositions": [
                    {**dataclasses.asdict(rec.accumulator), "bound_holds": rec.bound_holds}
                    for rec in t.decompositions
                ],
            }
            for t in traces
        ],
        "ensemble": {
            "final_phi_bar_mean": float(phis.mean()),
            "final_phi_bar_max": float(phis.max()),
            "final_drift_variance": float(np.var(drifts)),
            "decomposition_violations": violations,
        },
        "bounds": bound_values or {},
    }


def emit_json(traces: list[TraceRecord], path, config: ExperimentConfig,
              bound_values: Optional[dict] = None) -> None:
    """Write the ensemble summary JSON (floats round-trip via repr)."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(summary_dict(traces, config, bound_values), fh, indent=2)
        fh.write("\n")
