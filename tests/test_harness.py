"""Harness: config handling, trace recording, histograms, serialization."""

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipavg import (
    ConfigError,
    ConstantInit,
    DiscreteGeometric,
    DiscreteRounding,
    DriftReport,
    ExperimentConfig,
    ExplicitInit,
    Gaussian,
    InsufficientDataError,
    ModelMismatchError,
    ParameterError,
    Real,
    UniformInit,
    Zero,
    config_from_json_dict,
    config_to_json_dict,
    distance_histogram,
    emit_csv,
    emit_decomposition_csv,
    emit_json,
    histogram_of,
    init_population,
    mix64,
    monte_carlo_drift,
    read_trace_csv,
    run_experiment,
    survival_fit,
)
from gossipavg import dynamics, harness
from gossipavg.dynamics import Cutoff
from gossipavg.harness import (DECOMP_COLUMNS, KINDS, TRACE_COLUMNS, DecompositionRecord,
                               TraceRecord, initial_phi_bar, run_and_emit, run_entry,
                               run_single, summary_dict)
from gossipavg.potentials import DecompositionAccumulator, PotentialSnapshot


def small_config(**overrides):
    base = dict(
        n=40,
        init=UniformInit(0.0, 10.0),
        scheduler="sequential",
        noise=Gaussian(1.0),
        rule=Real(),
        steps=1000,
        master_seed=99,
        record_every=250,
        decomposition_intervals=(),
        runs=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- configuration ----------------------------------------------------------


def test_config_validation_reports_field_names():
    with pytest.raises(ConfigError, match="steps"):
        small_config(steps=0).validate()
    with pytest.raises(ConfigError, match="record_every"):
        small_config(record_every=2000).validate()
    with pytest.raises(ConfigError, match="scheduler"):
        small_config(scheduler="turbo").validate()
    with pytest.raises(ConfigError, match="n:"):
        small_config(n=1).validate()
    with pytest.raises(ConfigError, match="init"):
        small_config(init=ExplicitInit((1.0, 2.0))).validate()
    with pytest.raises(ConfigError, match="decomposition_intervals"):
        small_config(decomposition_intervals=((0, 2000),)).validate()
    with pytest.raises(ConfigError, match="decomposition_intervals"):
        small_config(decomposition_intervals=((0, 100), (50, 200))).validate()
    with pytest.raises(ConfigError, match="decomposition_intervals"):
        small_config(
            scheduler="synchronous", steps=10, record_every=10,
            decomposition_intervals=((0, 5),),
        ).validate()


def test_config_refuses_a_master_seed_outside_64_bits():
    """The stream seed keeps the low 64 bits of the master seed, so a seed
    outside [0, 2^64) would write another seed's bytes; it is refused."""
    for seed in (0, 2**64 - 1):
        small_config(master_seed=seed).validate()
    for seed in (2**64, -1, 2**64 + 5):
        with pytest.raises(ConfigError, match=rf"^master_seed: must be in \[0, 2\^64\), got {seed}$"):
            small_config(master_seed=seed).validate()


def test_config_refuses_more_values_than_a_numpy_array_holds():
    """A float64 array holds at most intp max // 8 values; validation
    allocates nothing, at either side of that length."""
    most = np.iinfo(np.intp).max // 8
    small_config(n=most).validate()
    for n in (most + 1, 2**63, 10**20):
        with pytest.raises(ConfigError, match=f"^n: {n} values "):
            small_config(n=n).validate()


def test_config_json_round_trip():
    config = small_config(
        noise=DiscreteGeometric(0.8),
        rule=Cutoff(1.0, 10.0, rounding=True),
        init=ConstantInit(10.0),
        decomposition_intervals=((0, 100), (500, 600)),
        runs=3,
    )
    again = config_from_json_dict(json.loads(json.dumps(config_to_json_dict(config))))
    assert again == config


def test_config_rejects_unknown_fields():
    d = config_to_json_dict(small_config())
    d["turbo"] = True
    with pytest.raises(ConfigError, match="turbo"):
        config_from_json_dict(d)


FINITE = st.floats(-1e6, 1e6)
POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def ranges(draw):
    lo, hi = draw(st.lists(FINITE, min_size=2, max_size=2, unique=True))
    return min(lo, hi), max(lo, hi)


@st.composite
def valid_configs(draw, init, noise, rule):
    """A config that validates, with the given init, noise and rule."""
    steps = draw(st.integers(1, 10**6))
    scheduler = draw(st.sampled_from(["sequential", "synchronous"]))
    cuts = sorted(set(draw(st.lists(st.integers(0, steps), max_size=6))))
    intervals = tuple(zip(cuts[0::2], cuts[1::2])) if scheduler == "sequential" else ()
    n = len(init.values) if isinstance(init, ExplicitInit) else draw(st.integers(2, 10**4))
    return ExperimentConfig(
        n=n, init=init, scheduler=scheduler, noise=noise, rule=rule, steps=steps,
        master_seed=draw(st.integers(0, 2**64 - 1)), record_every=draw(st.integers(1, steps)),
        decomposition_intervals=intervals, runs=draw(st.integers(1, 1000)),
    )


@st.composite
def objects_of_every_kind(draw):
    """One init, noise and rule object of each kind, with random fields."""
    (lo, hi), (vmin, vmax) = draw(ranges()), draw(ranges())
    inits = [UniformInit(lo, hi), ConstantInit(draw(FINITE)),
             ExplicitInit(tuple(draw(st.lists(FINITE, min_size=2, max_size=12))))]
    noises = [Gaussian(draw(POSITIVE)), DiscreteGeometric(draw(st.floats(1e-6, 1.0))), Zero()]
    rules = [Real(), DiscreteRounding(), Cutoff(vmin, vmax, rounding=draw(st.booleans()))]
    return inits, noises, rules


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kinds=objects_of_every_kind(), data=st.data())
def test_config_json_round_trip_every_kind(kinds, data):
    combos = list(itertools.product(*kinds))
    assert len(combos) == 27 and {type(x) for c in combos for x in c} == {
        cls for classes in KINDS.values() for cls in classes.values()}
    for init, noise, rule in combos:
        config = data.draw(valid_configs(init, noise, rule))
        again = config_from_json_dict(json.loads(json.dumps(config_to_json_dict(config))))
        assert again == config


#: Values at the edges of what the fields take: non-finite, beyond the float
#: range, of the wrong type, or numbers written as strings.
EDGE_VALUES = [math.inf, -math.inf, math.nan, 10**400, -(10**400), 2.5, 0, -1, True, "abc",
               "12", "1e400", [], {}, [0], {"kind": "zero"}]

JSON_VALUES = st.recursive(
    st.sampled_from(EDGE_VALUES) | st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kinds=objects_of_every_kind(), data=st.data(), value=JSON_VALUES)
def test_config_from_json_takes_any_value_in_any_field(kinds, data, value):
    """Any JSON value in any field or sub-field gives a config or a ConfigError."""
    config = data.draw(valid_configs(*(data.draw(st.sampled_from(k)) for k in kinds)))
    d = config_to_json_dict(config)
    paths = [(d, key) for key in d]
    paths += [(d[name], key) for name in KINDS for key in d[name]]
    paths += [(d["decomposition_intervals"], k) for k in range(len(config.decomposition_intervals))]
    node, key = data.draw(st.sampled_from(paths))
    node[key] = value
    try:
        assert isinstance(config_from_json_dict(d), ExperimentConfig)
    except ConfigError:
        pass


def test_load_config_from_file(tmp_path):
    from gossipavg import load_config

    config = small_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_json_dict(config)))
    assert load_config(path) == config


# -- running ------------------------------------------------------------------


def test_snapshot_cadence():
    traces = run_experiment(small_config(steps=1000, record_every=250))
    steps = [s.step for s in traces[0].snapshots]
    assert steps == [0, 250, 500, 750, 1000]


def test_snapshot_cadence_includes_final_and_interval_endpoints():
    traces = run_experiment(
        small_config(steps=900, record_every=400, decomposition_intervals=((100, 150),))
    )
    steps = [s.step for s in traces[0].snapshots]
    assert steps == [0, 100, 150, 400, 800, 900]


def test_single_step_run_snapshots():
    traces = run_experiment(small_config(steps=1, record_every=1))
    assert [s.step for s in traces[0].snapshots] == [0, 1]


def test_steps_zero_rejected():
    with pytest.raises(ConfigError, match="steps"):
        run_experiment(small_config(steps=0))


def test_run_determinism_and_independent_streams():
    config = small_config(runs=3)
    a = run_experiment(config)
    b = run_experiment(config)
    for ta, tb in zip(a, b):
        assert ta.snapshots == tb.snapshots
    finals = {tuple([s.phi_bar for s in t.snapshots]) for t in a}
    assert len(finals) == 3  # distinct runs actually differ


def test_snapshot_identities_on_traces():
    traces = run_experiment(small_config(steps=2000, record_every=100, runs=2))
    for trace in traces:
        for s in trace.snapshots:
            assert s.phi == pytest.approx(2 * trace.n * s.phi_bar, rel=1e-9)
            assert s.tss == pytest.approx(s.phi_bar + trace.n * s.drift**2, rel=1e-9, abs=1e-12)


#: A snapshot at n = 10^4 + 1 after 3000 steps: its tss, numpy's dot of the
#: differences, and the naive, pairwise (np.sum) and correctly rounded sums
#: of their squares, each as float.hex.
TSS_BY_NUMPYS_DOT = """
import math
import numpy as np
from gossipavg import Gaussian, Real, init_population, make_rng
from gossipavg.dynamics import SequentialEngine
engine = SequentialEngine(init_population(make_rng(0).uniform(0.0, 100.0, 10**4 + 1)),
                          Gaussian(1.0), Real(), make_rng(100))
rows, _ = engine.advance(3000, record_every=1000)
d = engine.values - engine.initial_average
squares = d * d
naive = 0.0
for v in squares.tolist():
    naive += v
print(*(x.hex() for x in (rows[-1][1], float(np.dot(d, d)), naive, float(np.sum(squares)),
                          math.fsum(squares.tolist()))))
"""


def test_snapshot_tss_is_numpys_dot_with_threads():
    """A snapshot's tss is ``float(np.dot(d, d))`` of d = values - initial
    average, bit for bit, also where numpy's BLAS splits the sum over two
    threads (OPENBLAS_NUM_THREADS=2, set before numpy loads, above 10^4
    values; README, Threads): the kernel calls numpy's dot and does not sum
    the squares itself, in any of the orders it could."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", TSS_BY_NUMPYS_DOT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    tss, dot, *own_sums = done.stdout.split()
    assert tss == dot
    assert dot not in own_sums


def test_decomposition_records_on_trace():
    config = small_config(
        n=100,
        init=UniformInit(0.0, 10**4),
        steps=1000,
        record_every=1000,
        decomposition_intervals=tuple((k * 100, (k + 1) * 100) for k in range(10)),
        runs=5,
    )
    traces = run_experiment(config)
    for trace in traces:
        assert len(trace.decompositions) == 10
        for rec in trace.decompositions:
            assert rec.bound_holds
            assert rec.accumulator.s_prime >= 0.0
            assert 0.0 <= rec.accumulator.s_minus <= rec.accumulator.length


def test_a_window_opens_on_the_refreshs_exact_sums(monkeypatch):
    """An ensemble-shaped run computes the exact sums once per refresh (101
    records) and not at construction, before any window; the window opened
    at step 0 takes the refresh's, and its trace is that of a window that
    computes its own.  The sums are counted on the Python loop, since the
    kernel's ``run`` takes them inside its one call; its trace is the same."""
    config = small_config(n=100, init=UniformInit(0.0, 100.0), steps=10**4, record_every=100,
                          decomposition_intervals=((0, 10**4),))
    compiled = run_single(config, 0)
    monkeypatch.setattr(dynamics, "_kernel", None)
    calls = []
    exact = dynamics._exact

    def spy(values):
        calls.append(values)
        return exact(values)

    monkeypatch.setattr(dynamics, "_exact", spy)
    traces = [compiled, run_single(config, 0)]
    assert len(calls) == 101
    begin = dynamics.SequentialEngine.begin_decomposition
    monkeypatch.setattr(dynamics.SequentialEngine, "begin_decomposition",
                        lambda engine, exact=None: begin(engine))
    traces.append(run_single(config, 0))
    assert len(calls) == 101 + 102
    first, *others = ((t.snapshots, t.decompositions, t.final_population.tobytes())
                      for t in traces)
    assert others == [first, first]


def test_parallel_jobs_match_serial():
    config = small_config(runs=4, steps=500)
    serial = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=2)
    for ts, tp in zip(serial, parallel):
        assert ts.snapshots == tp.snapshots
        assert ts.final_population.tobytes() == tp.final_population.tobytes()


def test_pool_opens_no_more_workers_than_runs(monkeypatch):
    """A pool forks its workers up front, so ``--jobs 64`` on two runs must
    ask for two.  The stand-in pool runs ``map`` here and starts no process."""
    import concurrent.futures

    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            chunks.append(chunksize)
            return map(fn, *iterables)

    chunks = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    config = small_config(runs=2, steps=300)
    traces = run_experiment(config, jobs=64)
    assert asked == [2]
    assert chunks == [1]
    assert [t.snapshots for t in traces] == [t.snapshots for t in run_experiment(config)]
    # the pool hands out runs // (4 jobs) runs at a time
    run_experiment(small_config(runs=17, steps=10, record_every=10), jobs=2)
    assert asked == [2, 2]
    assert chunks == [1, 2]


def test_synchronous_scheduler_runs():
    config = small_config(scheduler="synchronous", steps=20, record_every=5)
    traces = run_experiment(config)
    assert [s.step for s in traces[0].snapshots] == [0, 5, 10, 15, 20]
    assert traces[0].snapshots[-1].phi_bar < traces[0].snapshots[0].phi_bar


def test_mix64_streams_are_distinct():
    seeds = {mix64(12345, r) for r in range(10_000)}
    assert len(seeds) == 10_000


# -- histograms and fits ------------------------------------------------------


def test_distance_histogram_all_equal():
    hist = distance_histogram(init_population([5.0] * 7))
    assert hist.counts == (7,)
    assert hist.total == 7


def test_distance_histogram_two_bins():
    hist = distance_histogram(init_population([-1.0, 1.0]), bins=2)
    assert hist.counts == (1, 1)


def test_distance_histogram_rejects_single_bin():
    with pytest.raises(Exception, match="bins"):
        distance_histogram(init_population([0.0, 1.0, 2.0]), bins=1)


def test_histograms_reject_a_single_bin_on_all_equal_values():
    """The bin count is checked before all-equal values collapse to one bin."""
    with pytest.raises(ParameterError, match="bins must be >= 2, got 1"):
        histogram_of([5.0, 5.0], bins=1)
    with pytest.raises(ParameterError, match="bins must be >= 2, got 1"):
        distance_histogram(init_population([5.0] * 7), bins=1)


def test_histogram_mass_conservation():
    rng = np.random.default_rng(1)
    pop = init_population(rng.normal(0, 2, 5000))
    hist = distance_histogram(pop, bins=40)
    assert sum(hist.counts) == hist.total == 5000
    assert list(hist.bin_edges) == sorted(hist.bin_edges)


def test_survival_fit_exact_exponential():
    rng = np.random.default_rng(2)
    data = rng.exponential(2.0, 200_000)
    slope, r2 = survival_fit(histogram_of(data, bins=50))
    assert slope < 0
    assert r2 > 0.999
    assert slope == pytest.approx(-0.5, rel=0.05)


def test_survival_fit_uniform_control():
    # uniform data is not exponential; reported, not asserted
    rng = np.random.default_rng(3)
    slope, r2 = survival_fit(histogram_of(rng.uniform(0, 1, 100_000), bins=30))
    print(f"uniform-control survival fit: slope={slope:.3g} r2={r2:.4f}")


def test_survival_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        survival_fit(histogram_of([1.0, 2.0, 3.0], bins=2))


# -- drift study --------------------------------------------------------------


def test_monte_carlo_drift_requires_gaussian():
    with pytest.raises(ModelMismatchError):
        monte_carlo_drift(small_config(noise=DiscreteGeometric(0.5)), runs=2)
    with pytest.raises(ModelMismatchError):
        monte_carlo_drift(
            small_config(scheduler="synchronous", steps=5, record_every=5), runs=2
        )


def test_monte_carlo_drift_zero_steps():
    report = monte_carlo_drift(small_config(steps=0, record_every=1), runs=10)
    assert report.empirical_variance == 0.0
    assert report.theory_variance == 0.0


def test_monte_carlo_drift_smoke():
    config = small_config(n=100, init=ConstantInit(0.0), steps=2000, record_every=2000)
    report = monte_carlo_drift(config, runs=300, delta=0.1)
    assert report.theory_variance == pytest.approx(2000 / (2 * 100**2))
    assert abs(report.empirical_variance - report.theory_variance) <= 0.25 * report.theory_variance
    se = math.sqrt(0.1 * 0.9 / 300)
    assert report.exceed_fraction_upper <= 0.1 + 3 * se


def test_monte_carlo_drift_does_not_depend_on_jobs():
    """Its per-run function pickles, and a pool gives the serial report exactly."""
    config = small_config(n=50, init=ConstantInit(0.0), steps=500, record_every=500)
    serial = monte_carlo_drift(config, runs=24, jobs=1)
    assert isinstance(serial, DriftReport)
    assert monte_carlo_drift(config, runs=24, jobs=2) == serial


# -- serialization ------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    traces = run_experiment(small_config(steps=500, record_every=100))
    path = tmp_path / "trace.csv"
    emit_csv(traces[0], path)
    again = read_trace_csv(path)
    assert again == traces[0].snapshots


def test_csv_byte_identical_for_same_config(tmp_path):
    config = small_config(steps=500, record_every=100)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(config)[0], p1)
    emit_csv(run_experiment(config)[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_trace_header_only(tmp_path):
    trace = TraceRecord(run_index=0, n=10)
    path = tmp_path / "empty.csv"
    emit_csv(trace, path)
    assert path.read_text().strip() == "step,tss,phi_bar,phi,running_avg,drift,parallel_time"


def test_csv_bytes_are_those_of_csv_writer(tmp_path):
    """One format per row gives the bytes of csv.writer with ".17g" cells,
    at the values whose text is special, in trace and decomposition rows."""
    specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7e308, 0.1, -1.0 / 3.0]
    trace = TraceRecord(run_index=0, n=7, snapshots=[
        PotentialSnapshot(step, *(specials[(step + k) % len(specials)] for k in range(5)))
        for step in (0, 1, 10, 7 * 10**12, 2**63)])
    path = tmp_path / "trace.csv"
    emit_csv(trace, path)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(TRACE_COLUMNS)
    for s in trace.snapshots:
        writer.writerow([s.step, *(format(x, ".17g") for x in
                                   (s.tss, s.phi_bar, s.phi, s.running_avg, s.drift,
                                    s.step / trace.n))])
    assert path.read_bytes() == want.getvalue().encode()

    trace.decompositions.extend(
        DecompositionRecord(DecompositionAccumulator(t0, t0 + 10**k, *(
            specials[(k + m) % len(specials)] for m in range(3))), k % 2 == 0)
        for k, t0 in enumerate((0, 5, 7 * 10**12, 2**63, 1, 2, 3, 4)))
    emit_decomposition_csv(trace, path)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(DECOMP_COLUMNS)
    for rec in trace.decompositions:
        acc = rec.accumulator
        writer.writerow([acc.t0, acc.t1, *(format(x, ".17g") for x in
                                           (acc.s_prime, acc.s_star, acc.s_minus)),
                         str(rec.bound_holds).lower()])
    assert path.read_bytes() == want.getvalue().encode()


def test_one_schema_for_the_csvs_and_the_summary(tmp_path):
    """The snapshot's fields are the trace CSV's first columns and the keys of
    the summary's final, in order; the accumulator's fields are those of each
    decomposition entry; every row's first cells are the snapshot's values."""
    config = small_config(n=100, steps=1000, record_every=100,
                          decomposition_intervals=((0, 500), (500, 1000)))
    trace = run_single(config, 0)
    entry = run_and_emit(tmp_path, config, 0)
    assert entry == run_entry(trace)
    with open(tmp_path / "trace_run0000.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(entry["final"]) == TRACE_COLUMNS == tuple(header)
    assert [tuple(d) for d in entry["decompositions"]] == [DECOMP_COLUMNS] * 2
    assert len(rows) == len(trace.snapshots) == 11
    for row, snap in zip(rows, trace.snapshots):
        step, *floats = tuple(snap)
        assert row[:6] == ["%d" % step, *("%.17g" % x for x in floats)]


def test_decomposition_csv(tmp_path):
    config = small_config(
        n=100, init=UniformInit(0.0, 10**4), steps=300, record_every=300,
        decomposition_intervals=((0, 100), (100, 200)),
    )
    trace = run_experiment(config)[0]
    path = tmp_path / "decomp.csv"
    emit_decomposition_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t0,t1,s_prime,s_star,s_minus,bound_holds"
    assert len(lines) == 3
    assert lines[1].endswith("true")


def test_summary_json_round_trip(tmp_path):
    config = small_config(steps=400, record_every=200, runs=2)
    traces = run_experiment(config)
    entries = [run_entry(t) for t in traces]
    path = tmp_path / "summary.json"
    emit_json(entries, path, config)
    loaded = json.loads(path.read_text())
    assert loaded["metadata"]["master_seed"] == config.master_seed
    assert loaded["metadata"]["generator"] == "pcg64"
    assert len(loaded["runs"]) == 2
    # floats round-trip exactly through json repr
    assert loaded["runs"][0]["final"]["phi_bar"] == traces[0].snapshots[-1].phi_bar
    direct = summary_dict(entries, config)
    assert loaded["ensemble"] == json.loads(json.dumps(direct["ensemble"]))


def test_run_and_emit_writes_a_run_and_returns_its_entry(tmp_path):
    """The ``run`` command's per-run function writes what ``emit_csv`` and
    ``emit_decomposition_csv`` write for the run, and returns the run's entry."""
    config = small_config(steps=400, record_every=200, runs=2,
                          decomposition_intervals=((0, 200),))
    traces = run_experiment(config)
    out = tmp_path / "new" / "out"
    entries = [run_and_emit(out, config, r) for r in range(config.runs)]
    assert entries == [run_entry(t) for t in traces]
    for t in traces:
        emit_csv(t, tmp_path / "trace.csv")
        emit_decomposition_csv(t, tmp_path / "decomposition.csv")
        for name in ("trace", "decomposition"):
            assert ((out / f"{name}_run{t.run_index:04d}.csv").read_bytes()
                    == (tmp_path / f"{name}.csv").read_bytes())
    assert len(list(out.iterdir())) == 4


@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("scheduler", ["sequential", "synchronous"])
@pytest.mark.parametrize("init", [UniformInit(-3.0, 1e6), ConstantInit(7.5),
                                  ExplicitInit(tuple(0.1 * k * k for k in range(41)))])
def test_initial_phi_bar_is_run_0s_step_0_phi_bar(monkeypatch, compiled, scheduler, init):
    """The summary's bounds start from run 0's step-0 phi_bar, taken before
    the run: it is the one the run records, bit for bit."""
    if not compiled:
        monkeypatch.setattr(dynamics, "_kernel", None)
    config = small_config(n=41, init=init, scheduler=scheduler, steps=20, record_every=10,
                          decomposition_intervals=(), master_seed=77, runs=3)
    assert (initial_phi_bar(config).hex()
            == run_single(config, 0).snapshots[0].phi_bar.hex())


def test_fig_b_trace_summary_band(tmp_path):
    # tiny stand-in shape check for the cutoff trace schema (full run is in acceptance)
    config = small_config(
        n=50, init=ConstantInit(10.0), noise=DiscreteGeometric(0.8),
        rule=Cutoff(1.0, 10.0, rounding=True), steps=2000, record_every=1000,
    )
    trace = run_experiment(config)[0]
    assert trace.snapshots[0].running_avg == 10.0
    assert all(1.0 <= s.running_avg <= 10.0 for s in trace.snapshots)


# -- draws made ahead -------------------------------------------------------


def _ahead_shapes():
    """Configs by run size: past both of draws_ahead's limits, short of the
    run's, and with chunks short of the chunk's (record_every cuts them)."""
    long = small_config(n=1000, steps=harness.AHEAD_RUN_AGENTS // 2, record_every=10**5)
    return {
        "long": long,
        "short": dataclasses.replace(long, steps=harness.AHEAD_RUN_AGENTS // 2 - 1),
        "small chunks": dataclasses.replace(long, record_every=harness.AHEAD_CHUNK_AGENTS // 4),
        "long rounds": small_config(n=10**4, scheduler="synchronous", steps=400,
                                    record_every=1),
        "small rounds": small_config(n=100, scheduler="synchronous", steps=10**5,
                                     record_every=1),
    }


@pytest.mark.parametrize("size", list(_ahead_shapes()))
@pytest.mark.parametrize("window", [False, True])
@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("pooled", [False, True])
def test_draws_ahead_only_where_a_second_cpu_can_pay(size, window, cpus, pooled):
    """A run draws ahead only outside a pool, with 2 CPUs or more, without a
    window, and with enough chunks of enough agents."""
    config = _ahead_shapes()[size]
    if window:
        config = dataclasses.replace(config, scheduler="sequential",
                                     decomposition_intervals=((0, 100),))
    assert harness.draws_ahead(config, cpus, pooled) == (
        not pooled and cpus >= 2 and not window and size.startswith("long"))


def _pooled(config, run_index):
    return harness._in_a_pool()


def test_a_pool_worker_knows_it_is_one():
    config = small_config(runs=2)
    assert run_experiment(config, jobs=2, per_run=_pooled) == [True, True]
    assert run_experiment(config, jobs=1, per_run=_pooled) == [False, False]


ON_SOME_CPUS = r"""
import hashlib, json, os, sys
from pathlib import Path
from gossipavg import cli, dynamics

cpus, config, out = int(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
kernel, asked = dynamics._kernel, []


class Spy:
    def __getattr__(self, name):
        return getattr(kernel, name)

    def run(self, *args):
        asked.append(args[-1])
        return kernel.run(*args)


dynamics._kernel = Spy()
before = len(os.listdir("/proc/self/task"))
assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
after = len(os.listdir("/proc/self/task"))
files = b"".join(p.name.encode() + p.read_bytes() for p in sorted(out.iterdir()))
print(json.dumps([asked, before, after, hashlib.sha256(files).hexdigest()]))
"""


@pytest.mark.skipif(dynamics._kernel is None, reason="no compiled kernel")
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not os.path.isdir("/proc/self/task"),
                    reason="no CPU affinity or no /proc/self/task")
@pytest.mark.skipif(harness.usable_cpus() < 2, reason="fewer than 2 CPUs to compare")
def test_a_run_on_one_cpu_draws_inline_with_the_same_bytes(tmp_path):
    """`run` in a process limited to one CPU (`--jobs` defaults to 1 there)
    draws its chunks itself; with two it draws them ahead.  Both write the
    same bytes, and neither leaves a thread behind."""
    config = tmp_path / "long.json"
    config.write_text(json.dumps(config_to_json_dict(_ahead_shapes()["long"])))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    seen = {}
    for cpus in (1, 2):
        done = subprocess.run([sys.executable, "-c", ON_SOME_CPUS, str(cpus), str(config),
                               str(tmp_path / f"out{cpus}")],
                              env=env, capture_output=True, text=True, check=True, timeout=120)
        asked, before, after, seen[cpus] = json.loads(done.stdout.splitlines()[-1])
        assert asked == [cpus == 2]
        assert after == before
    assert seen[1] == seen[2]
