"""Averaging dynamic: step semantics, rules, replay, determinism."""

import functools
import itertools
import math
import shutil
import struct
import subprocess
import sysconfig
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
    engine.state[0] += 1.0
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
    engine.state[0] += 1.0
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

    def spy(values, with_phibar):
        assert values is engine.values
        seen.append(values.copy())
        return exact(values, with_phibar)

    monkeypatch.setattr(dynamics, "_exact", spy)
    engine.advance(3 * every + 8)
    monkeypatch.undo()
    assert len(seen) == 3
    assert all(np.array_equal(a, b) for a, b in zip(seen, due))
    assert engine._since_resync == 8
    twin.advance(8)
    assert engine.values.tobytes() == twin.values.tobytes()
    assert engine.state.tobytes() == twin.state.tobytes()


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


def _event_bits(event):
    return [(*it[:2], _bits(it[2]), _bits(it[3]), *it[4:]) for it in event.interactions]


def _drive(scheduler, rule, model, start, seed, segments, decomp, collect):
    """Run one engine over ``segments`` of (length, refresh after it) and
    record everything observable, floats as their bytes, and the generator's
    state at the end."""
    pop = init_population(start)
    engine_cls = SequentialEngine if scheduler == "sequential" else SynchronousEngine
    engine = engine_cls(pop, model, rule, make_rng(seed))
    events = [] if collect else None
    seen = []
    if decomp:
        engine.begin_decomposition()
    for length, refresh in segments:
        engine.advance(length, collect=events)
        seen.append([_bits(x) for x in engine.state.tolist()])
        if refresh:
            seen.append([_bits(x) for x in engine.refresh()])
    if decomp:
        seen.append([_bits(x) for x in engine.end_decomposition()])
    if collect:
        seen.append([_event_bits(ev) for ev in events])
    return engine.values.tobytes(), seen, engine.rng.bit_generator.state


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
    """Bit-for-bit: values, trackers, interval sums, refreshes and events,
    and the generator state, so the kernel's draws are numpy's.

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


@needs_kernel
@pytest.mark.parametrize("model", ORACLE_NOISES)
@pytest.mark.parametrize("rule", ORACLE_RULES)
def test_step_apis_draw_with_the_kernel_as_numpy_does(rule, model):
    """``sequential_step`` and ``synchronous_step`` (odd n, so a leftover
    self-pairs) give the same events, values and generator state with the
    kernel's draws and pair loop as with numpy's draws and the Python loop."""
    start = make_rng(50).uniform(0.0, 12.0, 9)
    outcomes = []
    for kernel in (dynamics._kernel, None):
        with mock.patch.object(dynamics, "_kernel", kernel):
            pop, rng = init_population(start), make_rng(51)
            events = [step(pop, model, rule, rng) for step in (sequential_step, synchronous_step)
                      for _ in range(40)]
            outcomes.append((pop.values.tobytes(), [_event_bits(ev) for ev in events],
                             rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


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


#: Sums at the edges of the kernel's rounding fast path: signed zeros, the
#: smallest subnormal (whose half rounds to zero), both sides of 2^-1021,
#: even integers past 2^53, infinities and NaN.
ROUNDING_EDGES = [0.0, -0.0, 2.0**-1074, -2.0**-1074, 2.0**-1022, -2.0**-1022, 2.0**-1021,
                  -2.0**-1021, 2.0**53 + 2, 2.0**53 - 2, -(2.0**53 + 2), -(2.0**53 - 2),
                  math.inf, -math.inf, math.nan]
ROUNDING_RULES = [DiscreteRounding(), Cutoff(-math.inf, math.inf, rounding=True),
                  Cutoff(-1.0, 1.0, rounding=True), Cutoff(1.0, 10.0, rounding=True)]


def _bits_or_nan(x):
    """``_bits(x)``, or "nan" for any NaN: IEEE arithmetic leaves the sign of
    a NaN result open, and C may compute ``-d * 0.5`` as ``d * -0.5``."""
    return "nan" if math.isnan(x) else _bits(x)


def _pair_chunk(values, pairs, noise, coins, flags, decomp, state, offsets):
    """The kernel's ``pair_chunk`` over every pair, called as ``_pairs_reference`` is."""
    dynamics._kernel.pair_chunk(values, pairs, noise, coins, len(pairs), flags, decomp, state,
                                offsets)


def _rounding_outcomes(values, pairs, noise, coins, rule, decomp):
    """Values, state and offsets after the kernel's ``pair_chunk`` and after
    ``_pairs_reference``, floats as their bytes."""
    flags = dynamics._rule_flags(rule)
    outcomes = []
    for run in (_pair_chunk, dynamics._pairs_reference):
        x = np.array(values, dtype=float)
        offsets = np.zeros(len(pairs), dtype=np.int8)
        state = np.array([0.5, 2.0, 0.0, 0.0, 0.0])
        run(x, np.array(pairs, dtype=np.int64), np.array(noise, dtype=float),
            np.array(coins, dtype=float), flags, decomp, state, offsets)
        outcomes.append(([_bits_or_nan(v) for v in x.tolist()],
                         [_bits_or_nan(v) for v in state.tolist()], offsets.tobytes()))
    return outcomes


@needs_kernel
@pytest.mark.parametrize("rule", ROUNDING_RULES)
def test_kernel_rounding_matches_reference_at_the_edges(rule):
    """Every ordered pair of edge values, exchanged with no noise (each sum is
    then the edge itself) and with edge noise, one fresh pair per exchange."""
    for k, (a, b) in enumerate(itertools.product(ROUNDING_EDGES, repeat=2)):
        for noise in ([0.0, 0.0], [b, a], [-0.0, ROUNDING_EDGES[k % len(ROUNDING_EDGES)]]):
            for coins in ([0.25, 0.75], [0.75, 0.25]):
                compiled, reference = _rounding_outcomes([a, b], [0, 1], noise, coins, rule,
                                                         k % 2 == 0)
                assert compiled == reference, (a, b, noise, coins)


ROUNDING_FLOATS = st.one_of(st.sampled_from(ROUNDING_EDGES), st.floats(),
                            st.floats(-2.0**-1020, 2.0**-1020), st.integers(-12, 12).map(float))


@needs_kernel
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rule=st.sampled_from(ROUNDING_RULES), decomp=st.booleans(),
       data=st.data(), n=st.integers(2, 6), npairs=st.integers(1, 12))
def test_kernel_rounding_matches_reference_anywhere(rule, decomp, data, n, npairs):
    """Bit for bit, offsets included, on sums anywhere in the float range."""
    values = data.draw(st.lists(ROUNDING_FLOATS, min_size=n, max_size=n))
    pairs = data.draw(st.lists(st.integers(0, n - 1), min_size=2 * npairs,
                               max_size=2 * npairs))
    noise = data.draw(st.lists(st.one_of(st.just(0.0), ROUNDING_FLOATS), min_size=2 * npairs,
                               max_size=2 * npairs))
    coins = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2 * npairs,
                               max_size=2 * npairs))
    compiled, reference = _rounding_outcomes(values, pairs, noise, coins, rule, decomp)
    assert compiled == reference


#: Summands that cancel, sit at the ends of the float range or are signed zeros.
EXACT_EDGE_FLOATS = [1e16, 1.0, -1e16, 1e-16, -1e-16, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, -2.2250738585072014e-308, 1e200, -1e200,
                     1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 + 1.0, 0.1]
EXACT_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(-1e6, 1e6), st.sampled_from(EXACT_EDGE_FLOATS))


def _exact_outcome(values, with_phibar, kernel):
    """float.hex of what ``_exact`` returns with ``kernel`` (None for the
    fsum body alone), or the type of what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(dynamics, "_kernel", kernel):
            mean, phibar = dynamics._exact(values, with_phibar)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return mean.hex(), None if phibar is None else phibar.hex()


def _assert_exact_matches_fsum(values, with_phibar):
    """The compiled sums against the fsum body."""
    assert dynamics._kernel is not None
    assert (_exact_outcome(values, with_phibar, dynamics._kernel)
            == _exact_outcome(values, with_phibar, None))


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


def _exact_code(values):
    """0 where ``exact_moments``, asked for the potential too, sums ``values``
    itself; 1 where it declines (returns None)."""
    return int(dynamics._kernel.exact_moments(values, True) is None)


@needs_kernel
def test_compiled_exact_sums_itself_and_declines_what_fsum_must_do():
    """The kernel sums ordinary values itself; it declines non-finite values
    and sums or squares large enough to overflow, where ``_exact`` then gives
    fsum's answer."""
    code = _exact_code

    assert code(np.array([1e16, 1.0, -1e16, 1e-16])) == 0
    assert code(make_rng(1).uniform(1e12, 1e12 + 10, 300)) == 0
    many_partials = [2.0 ** (60 * k - 1000) for k in range(34)]
    declined = [[1.0, math.inf], [math.nan, 1.0], [math.inf, -math.inf],
                [1.7e308, 1.7e308, -1.7e308], [1e200, -1e200], many_partials]
    for values in declined:
        assert code(np.array(values)) != 0
        for with_phibar in (True, False):
            _assert_exact_matches_fsum(np.array(values), with_phibar)
    kernel = dynamics._kernel
    assert _exact_outcome(np.array([1.7e308, 1.7e308, -1.7e308]), False, kernel) is OverflowError
    assert _exact_outcome(np.array([math.inf, -math.inf]), True, kernel) is ValueError


@functools.lru_cache(maxsize=1)
def _adversarial_sums():
    rng = make_rng(41)
    huge = rng.uniform(-1.0, 1.0, 500) * 2.0 ** rng.integers(990, 1001, 500)
    wide = rng.uniform(1.0, 2.0, 2000) * 2.0 ** rng.integers(-1000, 1001, 2000)
    wide[::2] *= -1.0
    tiny = rng.integers(-2 ** 52, 2 ** 52, 3000) * 2.0 ** -1074
    zeros = np.zeros(700)
    zeros[::3] = -0.0
    zeros[350] = 0.1
    near = 1e12 + rng.uniform(0.0, 10.0, 3000)
    near[::7] = -1e12 + rng.uniform(-1e-3, 1e-3, 429)
    return {
        "cancelling-huge": rng.permutation(np.concatenate([huge, -huge, [1.0, 2.0 ** -1074]])),
        "cancelling-large": rng.permutation(np.concatenate([huge, -huge]) * 2.0 ** -500),
        "subnormals": np.concatenate([tiny, [5e-324, -5e-324, 5e-324, 2.0 ** -1022]]),
        "smallest-subnormal": np.array([5e-324] * 3 + [-5e-324] * 2),
        "mixed-exponents": wide,
        "mixed-with-cancellation": rng.permutation(np.concatenate([wide, -wide[:1000], tiny])),
        "zero-runs": zeros,
        "all-zeros": np.array([0.0, -0.0] * 40),
        "near-1e12": near,
        "million": rng.uniform(0.0, 100.0, 10 ** 6) - 50.0,
    }


@needs_kernel
@pytest.mark.parametrize("case", list(_adversarial_sums()))
@pytest.mark.parametrize("with_phibar", [True, False])
def test_compiled_exact_matches_fsum_on_adversarial_sums(case, with_phibar):
    """Cancelling huge pairs, subnormals, exponents from 2^-1000 to 2^1000,
    runs of zeros, values near 1e12 and 10^6 values: the compiled sums equal
    the fsum body by float.hex (where the squares overflow, both are fsum's)."""
    _assert_exact_matches_fsum(_adversarial_sums()[case], with_phibar)


@needs_kernel
def test_compiled_exact_sums_every_finite_input_it_can():
    """The kernel does not hand over to math.fsum, which is many times slower,
    on inputs where fsum cannot overflow: sync-trace's values, 10^6 values,
    and squares spread over more than 32 exponents (the partials' cap of
    Shewchuk's algorithm, which exact_moments once used)."""
    rng = make_rng(43)
    spread = rng.uniform(1.0, 2.0, 80) * 2.0 ** np.arange(-530, 500, 13)
    spread = np.concatenate([spread, -spread])  # mean 0, so the squares keep the spread
    assert len(set(np.frexp(spread * spread)[1])) > 32
    for values in (rng.uniform(0.0, 100.0, 10 ** 4), rng.uniform(0.0, 100.0, 10 ** 6), spread):
        assert _exact_code(values) == 0
        _assert_exact_matches_fsum(values, True)


@needs_kernel
def test_kernel_takes_only_arrays_it_can_take(monkeypatch):
    """The kernel refuses, through the buffer protocol, strided, float32 and
    big-endian arrays, and for the values it writes a read-only one; it
    declines an empty array, which the fsum body then gets, as every array
    does without a kernel."""
    frozen = np.arange(4.0)
    frozen.flags.writeable = False
    assert dynamics._exact(frozen, True) == (1.5, 5.0)  # only read
    state, pairs, noise = np.zeros(5), np.array([0, 1]), np.zeros(2)
    flags = dynamics._rule_flags(Real())
    for bad in (frozen, np.arange(8.0)[::2], np.arange(4, dtype=np.float32),
                np.arange(4.0).astype(">f8")):
        before = bad.tobytes()
        with pytest.raises((TypeError, ValueError)):
            dynamics._kernel.pair_chunk(bad, pairs, noise, None, 2, flags, False, state, None)
        if bad is not frozen:
            with pytest.raises((TypeError, ValueError)):
                dynamics._kernel.exact_moments(bad, True)
        assert bad.tobytes() == before and state.tolist() == [0.0] * 5
    for bad_pairs in (np.array([0, 4]), np.array([-1, 0]), np.array([0, 1], dtype=np.int32)):
        with pytest.raises((TypeError, IndexError)):
            dynamics._kernel.pair_chunk(np.arange(4.0), bad_pairs, noise, None, 2, flags, False,
                                        state, None)
    assert dynamics._kernel.exact_moments(np.zeros(0), True) is None
    monkeypatch.setattr(dynamics, "_kernel", None)
    assert dynamics._exact(np.arange(4.0), True) == (1.5, 5.0)


@needs_kernel
def test_kernel_draw_checks_its_arguments_before_it_draws():
    """One entry serves both schedulers and keeps the checks of both: a
    matching draws all n agents, the noise code exists, and each buffer has
    the format, length and writability to be filled.  A refused call leaves
    the generator where it was."""
    rng = make_rng(0)
    before = rng.bit_generator.state
    pairs, noise, coins = np.zeros(4, np.int64), np.zeros(4), np.zeros(4)
    frozen = np.zeros(4)
    frozen.flags.writeable = False
    for matching, n, count, code, *buffers in [
        (True, 4, 3, 1, pairs, noise, coins),  # a matching of 3 of 4 agents
        (False, 0, 2, 1, pairs, noise, coins),
        (False, 4, -1, 1, pairs, noise, coins),
        (False, 4, 4, 3, pairs, noise, coins),  # no noise code 3
        (False, 4, 4, 1, pairs[:3], noise, coins),
        (False, 4, 4, 1, pairs.astype(np.int32), noise, coins),
        (False, 4, 4, 1, pairs, noise.astype(np.float32), coins),
        (False, 4, 4, 1, pairs, frozen, coins),
        (False, 4, 4, 1, pairs, noise, frozen),
    ]:
        with pytest.raises((TypeError, ValueError)):
            dynamics._kernel.draw(rng.bit_generator.capsule, matching, n, count, code, 1.0,
                                  *buffers)
    with pytest.raises(TypeError):
        dynamics._kernel.draw(rng.bit_generator.capsule, False, 4, 4, 1, 1.0, pairs, noise)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("state", [
    [0.0] * 5, np.zeros(5, dtype=np.float32), np.zeros(4), np.zeros(6), np.zeros((1, 5)),
    np.zeros(10)[::2], np.zeros(5).astype(">f8"), np.zeros(5).view(np.int64),
    np.lib.stride_tricks.as_strided(np.zeros(5), writeable=False),
], ids=["list", "float32", "short", "long", "2-d", "strided", "big-endian", "int64", "read-only"])
def test_run_pairs_rejects_a_state_the_kernel_cannot_write(monkeypatch, state):
    """The caller owns the tracker buffer and the kernel writes to it, so a
    state that is not a writable float64 array of 5 values raises, after the
    draws, before the kernel (or the reference loop) touches a value."""
    for kernel in (dynamics._kernel, None):
        monkeypatch.setattr(dynamics, "_kernel", kernel)
        values = np.arange(4.0)
        with pytest.raises((TypeError, ValueError)):
            dynamics._draw_and_apply(values, 2, False, Gaussian(1.0), make_rng(0),
                                     dynamics._rule_flags(Real()), False, state,
                                     dynamics._buffers(2), False)
        assert values.tolist() == [0.0, 1.0, 2.0, 3.0]


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


def test_kernel_library_name_follows_numpy():
    """Another numpy (its version or its samplers' bytes) never loads a
    module built against this one."""
    source, samplers = _native.SOURCE.read_bytes(), _native.SAMPLERS.read_bytes()
    name = _native.library_name(source, samplers, "2.4.6")
    assert name != _native.library_name(source, samplers, "2.4.7")
    assert name != _native.library_name(source, samplers + b"\0", "2.4.6")
    assert name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


@needs_compiler
def test_kernel_library_is_built_once_and_cached(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.load() is not None
    path = tmp_path / "gossipavg" / _native.library_name(
        _native.SOURCE.read_bytes(), _native.SAMPLERS.read_bytes(), np.__version__)
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temporary file left
    stamp = path.stat().st_mtime_ns
    monkeypatch.setattr(_native, "_build", lambda *args: pytest.fail("rebuilt a cached library"))
    assert _native.load() is not None
    assert path.stat().st_mtime_ns == stamp


@needs_compiler
def test_kernel_compiles_without_warnings(tmp_path):
    """The kernel's integer and float code stays clean under -Wall -Wextra,
    built by the command that builds the module the engines load."""
    command = _native.compiler_command(shutil.which("cc"), str(tmp_path / "kernel.so"),
                                       "-Wall", "-Wextra", "-Werror")
    done = subprocess.run(command, input=_native.SOURCE.read_bytes(), capture_output=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")


def test_kernel_falls_back_with_one_warning(tmp_path, monkeypatch):
    """Without a compiler, Python.h or numpy's C samplers, one RuntimeWarning
    names what is missing, and the engines take the pure-Python path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
    missing = tmp_path / "missing"
    for name, owner, attr, value in [
            ("cc", shutil, "which", lambda name: None),
            ("Python.h", _native, "PYTHON_H", missing / "Python.h"),
            ("libnpyrandom.a", _native, "SAMPLERS", missing / "libnpyrandom.a")]:
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, value)
            with pytest.warns(RuntimeWarning, match="pure-Python loop") as record:
                assert _native.load() is None
        assert len(record) == 1 and name in str(record[0].message)
