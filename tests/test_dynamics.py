"""Averaging dynamic: step semantics, rules, replay, determinism."""

import math
import shutil
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipavg import (
    Cutoff,
    DiscreteGeometric,
    DiscreteRounding,
    Gaussian,
    Interaction,
    ParameterError,
    Real,
    StepEvent,
    Zero,
    init_population,
    make_rng,
    parallel_time,
    replay_event,
    sequential_step,
    synchronous_step,
)
from gossipavg import _native, dynamics
from gossipavg.dynamics import Population, SequentialEngine, SynchronousEngine
from gossipavg.errors import NumericalDriftError


def test_init_population_examples():
    assert init_population([1.0, 3.0]).initial_average == 2.0
    assert init_population([10.0] * 1000).initial_average == 10.0
    assert init_population([0.0, 0.0, 3.0]).initial_average == 1.0


def test_init_population_requires_two_agents():
    with pytest.raises(ParameterError):
        init_population([1.0])


def test_forced_interaction_exact_average():
    pop = init_population([0.0, 0.0, 3.0])
    replay_event(pop, StepEvent([Interaction(0, 2, 0.0, 0.0, 0, 0)]), Real())
    assert pop.values.tolist() == [1.5, 0.0, 1.5]


def test_forced_interaction_with_noise():
    # i receives x_j + N_j, j receives x_i + N_i
    pop = init_population([0.0, 4.0])
    replay_event(pop, StepEvent([Interaction(0, 1, 2.0, 0.0, 0, 0)]), Real())
    assert pop.values.tolist() == [2.0, 3.0]


def test_self_pair_is_noop():
    pop = init_population([3.0, 7.0])
    rng = make_rng(11)
    seen_self = 0
    for _ in range(200):
        before = pop.values.copy()
        event = sequential_step(pop, Gaussian(1.0), Real(), rng)
        it = event.interactions[0]
        if it.i == it.j:
            seen_self += 1
            assert np.array_equal(pop.values, before)
            assert it.noise_i == it.noise_j == 0.0
    assert seen_self > 0


def test_sequential_step_counts():
    pop = init_population([0.0, 1.0, 2.0])
    rng = make_rng(12)
    for k in range(10):
        event = sequential_step(pop, Zero(), Real(), rng)
        assert len(event.interactions) == 1
    assert pop.step_count == 10


def test_synchronous_two_agents_exact():
    pop = init_population([0.0, 4.0])
    synchronous_step(pop, Zero(), Real(), make_rng(13))
    assert pop.values.tolist() == [2.0, 2.0]


def test_synchronous_odd_leftover_unchanged():
    pop = init_population([0.0, 4.0, 9.0])
    before = pop.values.copy()
    event = synchronous_step(pop, Zero(), Real(), make_rng(14))
    self_pairs = [it for it in event.interactions if it.i == it.j]
    assert len(self_pairs) == 1
    k = self_pairs[0].i
    assert pop.values[k] == before[k]


def test_step_api_on_a_single_agent():
    """One agent can only self-pair, so neither scheduler changes it."""
    pop = Population(np.array([3.0]), 3.0)
    for step in (sequential_step, synchronous_step):
        event = step(pop, Gaussian(1.0), Real(), make_rng(40))
        assert event.interactions == [Interaction(0, 0, 0.0, 0.0, 0, 0)]
    assert pop.values.tolist() == [3.0]
    assert pop.step_count == 2


def test_synchronous_covers_everyone_once():
    pop = init_population(np.arange(1000.0))
    event = synchronous_step(pop, Gaussian(1.0), Real(), make_rng(15))
    assert len(event.interactions) == 500
    touched = [it.i for it in event.interactions] + [it.j for it in event.interactions]
    assert sorted(touched) == list(range(1000))


def test_cutoff_requires_ordered_range():
    with pytest.raises(ParameterError):
        Cutoff(10.0, 1.0)


def test_parallel_time():
    assert parallel_time(0, 5) == 0.0
    assert parallel_time(1000, 100) == 10.0
    for n in (3, 17, 1000):
        assert parallel_time(10 * n, n) == pytest.approx(10.0)
    with pytest.raises(ParameterError):
        parallel_time(10, 0)


def test_zero_noise_running_average_invariant():
    pop = init_population([4.0] * 8)
    rng = make_rng(20)
    for _ in range(100):
        sequential_step(pop, Zero(), Real(), rng)
    assert pop.running_average() == 4.0  # exactly, all-equal stays all-equal

    pop = init_population(make_rng(21).uniform(0, 100, 16))
    x0 = pop.running_average()
    rng = make_rng(22)
    for _ in range(10_000):
        sequential_step(pop, Zero(), Real(), rng)
    assert pop.running_average() == pytest.approx(x0, rel=1e-12)


def test_cutoff_values_stay_in_range():
    pop = init_population([10.0] * 20)
    rng = make_rng(23)
    rule = Cutoff(1.0, 10.0, rounding=True)
    model = DiscreteGeometric(0.5)
    for _ in range(2000):
        sequential_step(pop, model, rule, rng)
        assert pop.values.min() >= 1.0
        assert pop.values.max() <= 10.0


def test_discrete_rule_keeps_integers():
    pop = init_population(np.arange(20.0))
    rng = make_rng(24)
    for _ in range(2000):
        sequential_step(pop, DiscreteGeometric(0.5), DiscreteRounding(), rng)
    assert np.all(pop.values == np.floor(pop.values))


@pytest.mark.parametrize(
    "model,rule",
    [
        (Gaussian(1.0), Real()),
        (DiscreteGeometric(0.8), DiscreteRounding()),
        (DiscreteGeometric(0.8), Cutoff(1.0, 10.0, rounding=True)),
        (Gaussian(1.0), Cutoff(-5.0, 5.0)),
    ],
)
def test_replay_reproduces_run_bitexact(model, rule):
    start = np.full(30, 5.0) if not isinstance(rule, Real) else make_rng(25).uniform(0, 10, 30)
    pop = init_population(start)
    ref = pop.copy()
    rng = make_rng(26)
    events = [sequential_step(pop, model, rule, rng) for _ in range(500)]
    for event in events:
        replay_event(ref, event, rule)
    assert np.array_equal(pop.values, ref.values)
    assert ref.step_count == pop.step_count


def test_replay_synchronous_bitexact():
    pop = init_population(make_rng(27).uniform(0, 10, 31))
    ref = pop.copy()
    rng = make_rng(28)
    events = [synchronous_step(pop, Gaussian(1.0), Real(), rng) for _ in range(50)]
    for event in events:
        replay_event(ref, event, Real())
    assert np.array_equal(pop.values, ref.values)


@pytest.mark.parametrize("n", [30, 31])
@pytest.mark.parametrize("rule", [DiscreteRounding(), Cutoff(1, 10, rounding=True)])
def test_replay_synchronous_bitexact_rounding(n, rule):
    """Replay maps each recorded rounding offset back to a coin that rounds
    the same way; both offsets, and even sums (offset 0), occur."""
    pop = init_population(np.floor(make_rng(27).uniform(0, 10, n)))
    ref = pop.copy()
    rng = make_rng(28)
    events = [synchronous_step(pop, DiscreteGeometric(0.8), rule, rng) for _ in range(50)]
    for event in events:
        replay_event(ref, event, rule)
    assert np.array_equal(pop.values, ref.values)
    assert {it.round_i for event in events for it in event.interactions} == {-1, 0, 1}


@pytest.mark.parametrize(
    "model,rule",
    [
        (Gaussian(1.0), Real()),
        (DiscreteGeometric(0.8), DiscreteRounding()),
        (DiscreteGeometric(0.8), Cutoff(1.0, 10.0, rounding=True)),
    ],
)
def test_engine_matches_event_replay(model, rule):
    """The batched engine and the recorded per-step semantics agree bit-for-bit."""
    start = np.full(40, 5.0) if not isinstance(rule, Real) else make_rng(29).uniform(0, 10, 40)
    pop = init_population(start)
    ref = pop.copy()
    engine = SequentialEngine(pop, model, rule, make_rng(30))
    events = []
    engine.advance(3000, collect=events)
    for event in events:
        replay_event(ref, event, rule)
    assert np.array_equal(engine.values, ref.values)


@pytest.mark.parametrize(
    "n,model,rule",
    [
        (40, Gaussian(1.0), Real()),
        (41, Gaussian(1.0), Real()),  # odd n: leftover self-pairs
        (40, DiscreteGeometric(0.8), Cutoff(1.0, 10.0, rounding=True)),
    ],
)
def test_synchronous_engine_matches_event_replay(n, model, rule):
    start = np.full(n, 5.0) if not isinstance(rule, Real) else make_rng(34).uniform(0, 10, n)
    pop = init_population(start)
    ref = pop.copy()
    engine = SynchronousEngine(pop, model, rule, make_rng(35))
    events = []
    engine.advance(60, collect=events)
    assert len(events) == 60
    for event in events:
        replay_event(ref, event, rule)
    assert np.array_equal(engine.values, ref.values)


def test_synchronous_cutoff_and_rounding_invariants():
    pop = init_population([10.0] * 25)
    rng = make_rng(36)
    rule = Cutoff(1.0, 10.0, rounding=True)
    for _ in range(200):
        synchronous_step(pop, DiscreteGeometric(0.5), rule, rng)
        assert pop.values.min() >= 1.0
        assert pop.values.max() <= 10.0
        assert np.all(pop.values == np.floor(pop.values))


def test_engine_mean_tracker_verified():
    pop = init_population(make_rng(31).uniform(0, 100, 50))
    engine = SequentialEngine(pop, Gaussian(1.0), Real(), make_rng(32))
    engine.advance(5000)
    engine.refresh()  # passes on an honest tracker
    engine.mean += 1.0
    with pytest.raises(NumericalDriftError):
        engine.refresh()


def test_synchronous_engine_mean_tracker_verified():
    """At n > 4096 a resync is due every round; it runs before the next round,
    so the refresh after a round still checks the tracked mean."""
    pop = init_population(make_rng(31).uniform(0, 100, 5000))
    engine = SynchronousEngine(pop, Gaussian(1.0), Real(), make_rng(32))
    assert engine._resync_every == 1
    engine.advance(3)
    engine.refresh()  # passes on an honest tracker
    engine.mean += 1.0
    engine.advance(1)
    with pytest.raises(NumericalDriftError):
        engine.refresh()


def test_synchronous_advance_resyncs_every_interval(monkeypatch):
    """One long advance resyncs the mean tracker on the values after every
    ``_resync_every`` rounds, as advancing one interval at a time shows."""
    start = make_rng(34).uniform(0, 100, 64)
    twin = SynchronousEngine(init_population(start), Gaussian(1.0), Real(), make_rng(35))
    every = twin._resync_every
    assert every == 64
    due = []
    for _ in range(3):
        twin.advance(every)
        due.append(twin.values.copy())
    engine = SynchronousEngine(init_population(start), Gaussian(1.0), Real(), make_rng(35))
    seen = []
    exact = dynamics._exact

    def spy(values, with_phibar, view):
        assert view is engine._view  # the compiled sums, where there is a kernel
        seen.append(values.copy())
        return exact(values, with_phibar, view)

    assert (engine._view is None) == (dynamics._kernel is None)
    monkeypatch.setattr(dynamics, "_exact", spy)
    engine.advance(3 * every + 8)
    monkeypatch.undo()
    assert len(seen) == 3
    assert all(np.array_equal(a, b) for a, b in zip(seen, due))
    assert engine._since_resync == 8
    twin.advance(8)
    assert engine.values.tobytes() == twin.values.tobytes()
    assert _bits(engine.mean) == _bits(twin.mean)


def test_same_seed_same_trajectory():
    runs = []
    for _ in range(2):
        pop = init_population([1.0, 2.0, 3.0, 4.0])
        rng = make_rng(33)
        for _ in range(500):
            sequential_step(pop, Gaussian(1.0), Real(), rng)
        runs.append(pop.values.copy())
    assert np.array_equal(runs[0], runs[1])


# ---------------------------------------------------------------------------
# compiled kernel against the Python reference loop
# ---------------------------------------------------------------------------

ORACLE_RULES = [Real(), DiscreteRounding(), Cutoff(1.0, 10.0), Cutoff(1.0, 10.0, rounding=True)]
ORACLE_NOISES = [Gaussian(1.0), DiscreteGeometric(0.8), Zero()]

needs_kernel = pytest.mark.skipif(dynamics._kernel is None, reason="no compiled kernel")


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _drive(scheduler, rule, model, start, seed, segments, decomp, collect):
    """Run one engine over ``segments`` of (length, refresh after it) and
    record everything observable, floats as their bytes."""
    pop = init_population(start)
    engine_cls = SequentialEngine if scheduler == "sequential" else SynchronousEngine
    engine = engine_cls(pop, model, rule, make_rng(seed))
    events = [] if collect else None
    seen = []
    if decomp:
        engine.begin_decomposition()
    for length, refresh in segments:
        engine.advance(length, collect=events)
        trackers = [engine.mean, engine.phibar]
        if decomp:
            trackers += [engine.s_prime, engine.s_star, engine.s_minus]
        seen.append([_bits(x) for x in trackers])
        if refresh:
            seen.append([_bits(x) for x in engine.refresh()])
    if decomp:
        seen.append([_bits(x) for x in engine.end_decomposition()])
    if collect:
        seen.append([[(*it[:2], _bits(it[2]), _bits(it[3]), *it[4:]) for it in ev.interactions]
                     for ev in events])
    return engine.values.tobytes(), seen


@needs_kernel
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    scheduler=st.sampled_from(["sequential", "synchronous"]),
    rule=st.sampled_from(ORACLE_RULES),
    model=st.sampled_from(ORACLE_NOISES),
    n=st.integers(2, 65),
    integral=st.booleans(),
    decomp=st.booleans(),
    collect=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    segments=st.lists(st.tuples(st.integers(0, 2600), st.booleans()), min_size=1, max_size=4),
)
def test_kernel_matches_reference_loop(scheduler, rule, model, n, integral, decomp, collect,
                                       seed, segments):
    """Bit-for-bit: values, trackers, interval sums, refreshes and events.

    Sequential segments reach past the 1024-step resync and synchronous
    ones (about as many pairs) past the 4096 // n round resync; the
    refreshes between segments are the harness's record boundaries.
    """
    start = make_rng(seed + 1).uniform(0.0, 12.0, n)
    if integral:
        start = np.floor(start)
    if scheduler == "synchronous":
        segments = [(2 * length // n, refresh) for length, refresh in segments]
        decomp = False
    args = (scheduler, rule, model, start, seed, segments, decomp, collect)
    compiled = _drive(*args)
    with mock.patch.object(dynamics, "_kernel", None):
        reference = _drive(*args)
    assert compiled == reference


FLOORDIV_CASES = [
    -1.0, -3.0, -5.0, -7.0, -2.0**52 - 1, 2.0**52 + 1, -0.0, 0.0, 1.0, 3.0,
    float(2**53 + 1), -float(2**53 + 1), 2.0**53 + 2, -(2.0**53 + 2),
    math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
    -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308, -2.5, 2.5,
]


@needs_kernel
def test_kernel_floor_division_matches_python():
    for v in FLOORDIV_CASES:
        got, want = dynamics._kernel.py_floordiv(v, 2.0), v // 2.0
        assert (math.isnan(got) and math.isnan(want)) or _bits(got) == _bits(want), v


@needs_kernel
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_kernel_floor_division_matches_python_anywhere(v):
    got, want = dynamics._kernel.py_floordiv(v, 2.0), v // 2.0
    assert (math.isnan(got) and math.isnan(want)) or _bits(got) == _bits(want)


#: Summands that cancel, sit at the ends of the float range or are signed zeros.
EXACT_EDGE_FLOATS = [1e16, 1.0, -1e16, 1e-16, -1e-16, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, -2.2250738585072014e-308, 1e200, -1e200,
                     1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 + 1.0, 0.1]
EXACT_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(-1e6, 1e6), st.sampled_from(EXACT_EDGE_FLOATS))


def _exact_outcome(values, with_phibar, view=None):
    """float.hex of what ``_exact`` returns, or the type of what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            mean, phibar = dynamics._exact(values, with_phibar, view)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return mean.hex(), None if phibar is None else phibar.hex()


def _assert_exact_matches_fsum(values, with_phibar):
    """The compiled sums (through a kernel view) against the fsum body."""
    view = dynamics._kernel_view(values)
    assert view is not None
    assert _exact_outcome(values, with_phibar, view) == _exact_outcome(values, with_phibar)


@needs_kernel
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=st.lists(EXACT_FINITE, min_size=2, max_size=300), with_phibar=st.booleans())
def test_compiled_exact_matches_fsum(values, with_phibar):
    """``exact_moments`` returns math.fsum's correctly rounded sums bit for bit
    (or hands over to it where a sum or a square overflows)."""
    _assert_exact_matches_fsum(np.array(values), with_phibar)


@needs_kernel
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(EXACT_FINITE, st.sampled_from([math.inf, -math.inf, math.nan])),
                       min_size=2, max_size=40),
       with_phibar=st.booleans())
def test_compiled_exact_matches_fsum_on_non_finite_values(values, with_phibar):
    """inf, -inf and NaN give fsum's value, OverflowError or ValueError."""
    _assert_exact_matches_fsum(np.array(values), with_phibar)


@needs_kernel
def test_compiled_exact_sums_itself_and_declines_what_fsum_must_do():
    """The kernel sums ordinary values itself; it declines non-finite values,
    an intermediate overflow and more partials than it keeps, where ``_exact``
    then gives fsum's answer."""
    def code(values):
        return dynamics._kernel.exact_moments(dynamics._kernel_view(values), len(values), 1,
                                              dynamics._MOMENTS())

    assert code(np.array([1e16, 1.0, -1e16, 1e-16])) == 0
    assert code(make_rng(1).uniform(1e12, 1e12 + 10, 300)) == 0
    many_partials = [2.0 ** (60 * k - 1000) for k in range(34)]
    declined = [[1.0, math.inf], [math.nan, 1.0], [math.inf, -math.inf],
                [1.7e308, 1.7e308, -1.7e308], [1e200, -1e200], many_partials]
    for values in declined:
        assert code(np.array(values)) != 0
        for with_phibar in (True, False):
            _assert_exact_matches_fsum(np.array(values), with_phibar)
    assert _exact_outcome(np.array([1.7e308, 1.7e308, -1.7e308]), False) is OverflowError
    assert _exact_outcome(np.array([math.inf, -math.inf]), True) is ValueError


@needs_kernel
def test_kernel_view_only_of_arrays_the_kernel_can_take(monkeypatch):
    """Other arrays, and every array without a kernel, get the fsum body."""
    frozen = np.arange(4.0)
    frozen.flags.writeable = False
    assert dynamics._kernel_view(np.arange(4.0)) is not None
    for values in (frozen, np.arange(8.0)[::2], np.arange(6.0).reshape(2, 3),
                   np.arange(4, dtype=np.float32), np.arange(4.0).astype(">f8"), np.zeros(0)):
        assert dynamics._kernel_view(values) is None
    values = np.arange(4.0)
    view = dynamics._kernel_view(values)
    monkeypatch.setattr(dynamics, "_kernel", None)
    assert dynamics._kernel_view(values) is None
    assert dynamics._exact(values, True, view) == (1.5, 5.0)


def test_kernel_is_built_where_a_compiler_exists():
    """A broken build must not let the suite pass on the Python loop."""
    assert shutil.which("cc") is None or dynamics._kernel is not None


@pytest.mark.parametrize(
    "scheduler,n,model,rule",
    [
        ("sequential", 40, Gaussian(1.0), Real()),
        ("sequential", 40, DiscreteGeometric(0.8), DiscreteRounding()),
        ("sequential", 40, DiscreteGeometric(0.8), Cutoff(1.0, 10.0, rounding=True)),
        ("synchronous", 41, Gaussian(1.0), Real()),
        ("synchronous", 40, DiscreteGeometric(0.8), Cutoff(1.0, 10.0, rounding=True)),
    ],
)
def test_reference_loop_matches_engine_and_replay(monkeypatch, scheduler, n, model, rule):
    """With the kernel forced off the engines give the same values and events,
    and replaying those events reproduces the values."""
    start = make_rng(29).uniform(0, 10, n)
    length = 3000 if scheduler == "sequential" else 60
    compiled = _drive(scheduler, rule, model, start, 30, [(length, False)], False, True)
    monkeypatch.setattr(dynamics, "_kernel", None)
    pop = init_population(start)
    ref = pop.copy()
    engine_cls = SequentialEngine if scheduler == "sequential" else SynchronousEngine
    engine = engine_cls(pop, model, rule, make_rng(30))
    events = []
    engine.advance(length, collect=events)
    for event in events:
        replay_event(ref, event, rule)
    assert np.array_equal(engine.values, ref.values)
    assert _drive(scheduler, rule, model, start, 30, [(length, False)], False, True) == compiled


needs_compiler = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@needs_compiler
def test_kernel_library_is_built_once_and_cached(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.load() is not None
    path = tmp_path / "gossipavg" / _native.library_name(_native.SOURCE.read_bytes())
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temporary file left
    stamp = path.stat().st_mtime_ns
    monkeypatch.setattr(_native, "_build", lambda *args: pytest.fail("rebuilt a cached library"))
    assert _native.load() is not None
    assert path.stat().st_mtime_ns == stamp


def test_kernel_falls_back_with_one_warning(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="pure-Python loop") as record:
        assert _native.load() is None
    assert len(record) == 1
