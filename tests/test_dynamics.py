"""Averaging dynamic: step semantics, rules, replay, determinism."""

import functools
import inspect
import itertools
import math
import os
import shutil
import signal
import struct
import subprocess
import sysconfig
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from gossipavg import _native, dynamics, harness, seeding
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


def _advance_collecting(engine, steps):
    """``engine._advance(steps)``, returning one StepEvent per step (one
    pair, or one round's whole matching): each of its chunks runs through
    ``_draw_and_apply(..., collect=True)``, which returns the chunk's
    Interactions, so the batched chunks are what the events replay."""
    events, draw_and_apply = [], dynamics._draw_and_apply

    def collecting(values, count, *args):
        interactions = draw_and_apply(values, count, *args[:7], True, args[8])
        per = len(interactions) // (count // engine._per_step)
        events.extend(StepEvent(interactions[k:k + per])
                      for k in range(0, len(interactions), per))
        return interactions

    with mock.patch.object(dynamics, "_draw_and_apply", collecting):
        engine._advance(steps)
    return events


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
    events = _advance_collecting(engine, 3000)
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
    events = _advance_collecting(engine, 60)
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


@pytest.mark.parametrize("engine_cls,n,every,decomp,honest,drift_at,then,tracker,bump", [
    pytest.param(SequentialEngine, 50, 1024, True, 5000, 0, 0, 0, 1.0, id="sequential-mean"),
    # at n > 4096 a resync is due every round and runs before the next round;
    # with no window (the synchronous engine opens none) no output reads the
    # mean tracker, so the refresh after a round neither checks nor raises
    pytest.param(SynchronousEngine, 5000, 1, False, 3, 0, 1, 0, 1.0, id="synchronous-mean"),
    # at n = 2000 the refresh at step 2000 ends a resync interval: the resync
    # due there runs before the next chunk, so it does not overwrite the
    # drifted tracker before the refresh checks it
    pytest.param(SequentialEngine, 2000, 2000, True, 0, 1990, 10, 0, 1.0,
                 id="sequential-mean-at-due-resync"),
    pytest.param(SequentialEngine, 2000, 2000, True, 0, 1990, 10, 1, 100.0,
                 id="sequential-potential-at-due-resync"),
])
def test_refresh_checks_each_tracker(engine_cls, n, every, decomp, honest, drift_at, then,
                                     tracker, bump):
    """In a window, a refresh passes on honest trackers and raises on a
    tracker pushed off its exact value by ``bump``, far past DRIFT_TOL (the
    potential is about 1.7e6 at n = 2000, so 1.0 would be within it).
    Outside one, it returns the exact values and checks no tracker."""
    pop = init_population(make_rng(31).uniform(0, 100, n))
    engine = engine_cls(pop, Gaussian(1.0), Real(), make_rng(32))
    assert engine._resync_every == every
    if decomp:
        engine.begin_decomposition()
    engine._advance(honest)
    engine.refresh()  # passes on honest trackers
    engine._advance(drift_at)
    engine.state[tracker] += bump
    engine._advance(then)
    if decomp:
        with pytest.raises(NumericalDriftError, match=("running-mean", "potential")[tracker]):
            engine.refresh()
    else:
        assert engine.refresh() == dynamics._exact(engine.values)


@pytest.mark.parametrize("engine_cls,every,window",
                         [(SequentialEngine, 1024, True), (SynchronousEngine, 64, False)],
                         ids=["sequential", "synchronous"])
def test_advance_resyncs_every_interval(monkeypatch, engine_cls, every, window):
    """One long advance resyncs on the values after every ``_resync_every``
    steps (rounds), as advancing one interval at a time shows.  Each resync
    sums the values exactly while a window is open (sequential) and not at
    all without one (synchronous, which opens none)."""
    start = make_rng(34).uniform(0, 100, 64)
    twin = engine_cls(init_population(start), Gaussian(1.0), Real(), make_rng(35))
    assert twin._resync_every == every
    engine = engine_cls(init_population(start), Gaussian(1.0), Real(), make_rng(35))
    if window:
        twin.begin_decomposition()
        engine.begin_decomposition()
    due = []
    for _ in range(3):
        twin._advance(every)
        due.append(twin.values.copy())
    resyncs, sums = [], []
    resync, exact = engine_cls._resync, dynamics._exact

    def resync_spy(self, check, exact=None):
        assert self is engine and not check
        resyncs.append(self.values.copy())
        return resync(self, check, exact)

    def exact_spy(values):
        assert values is engine.values
        sums.append(values.copy())
        return exact(values)

    monkeypatch.setattr(engine_cls, "_resync", resync_spy)
    monkeypatch.setattr(dynamics, "_exact", exact_spy)
    engine._advance(3 * every + 8)
    monkeypatch.undo()
    assert len(resyncs) == 3
    assert all(np.array_equal(a, b) for a, b in zip(resyncs, due))
    assert len(sums) == (3 if window else 0)
    assert all(np.array_equal(a, b) for a, b in zip(sums, due))
    assert engine._since_resync == 8
    twin._advance(8)
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
ORACLE_NOISES = [Gaussian(1.0), DiscreteGeometric(0.8), DiscreteGeometric(1.0), Zero()]

needs_kernel = pytest.mark.skipif(dynamics._kernel is None, reason="no compiled kernel")


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _event_bits(event):
    return [(*it[:2], _bits(it[2]), _bits(it[3]), *it[4:]) for it in event.interactions]


def _generator(bits, seed):
    """A numpy Generator, as a library caller passes one to an engine: over
    ``make_rng``'s PCG64, or over numpy's bit generator of the name ``bits``."""
    if bits == "PCG64":
        return make_rng(seed)
    return np.random.Generator(getattr(np.random, bits)(seed))


def _state(rng):
    """``rng.bit_generator.state`` with its arrays (MT19937's key, Philox's
    counter and key) as lists, so that two states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def _drive(scheduler, rule, model, start, seed, segments, decomp, collect, bits="PCG64"):
    """Run one engine over ``segments`` of (length, refresh after it) and
    record everything observable, floats as their bytes, and the generator's
    state at the end."""
    pop = init_population(start)
    engine_cls = SequentialEngine if scheduler == "sequential" else SynchronousEngine
    engine = engine_cls(pop, model, rule, _generator(bits, seed))
    events = []
    seen = []
    if decomp:
        engine.begin_decomposition()
    for length, refresh in segments:
        if collect:
            events += _advance_collecting(engine, length)
        else:
            engine._advance(length)
        seen.append([_bits(x) for x in engine.state.tolist()])
        if refresh:
            seen.append([_bits(x) for x in engine.refresh()])
    if decomp:
        seen.append([_bits(x) for x in engine.end_decomposition()])
    if collect:
        seen.append([_event_bits(ev) for ev in events])
    return engine.values.tobytes(), seen, _state(engine.rng)


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
    segments=st.lists(st.tuples(st.one_of(st.integers(0, 2600), st.sampled_from([1024, 2048])),
                                st.booleans()), min_size=1, max_size=4),
    bits=st.sampled_from(["PCG64", "MT19937", "Philox"]),
)
def test_kernel_matches_reference_loop(scheduler, rule, model, n, integral, decomp, collect,
                                       seed, segments, bits):
    """Bit-for-bit: values, trackers, interval sums, refreshes and events,
    and the generator state, so the kernel's draws are numpy's, on a
    Generator over any of numpy's bit generators, as a library caller may
    pass one.

    Sequential segments reach past the 1024-step resync and synchronous
    ones (about as many pairs) past the 4096 // n round resync; the
    refreshes between segments are the harness's record boundaries.  Some
    segments are 1024 or 2048 steps long, so they end where a resync falls
    due and the refresh or the open window after them meets it pending.
    """
    start = make_rng(seed + 1).uniform(0.0, 12.0, n)
    if integral:
        start = np.floor(start)
    if scheduler == "synchronous":
        segments = [(2 * length // n, refresh) for length, refresh in segments]
    args = (scheduler, rule, model, start, seed, segments, decomp, collect, bits)
    compiled = _drive(*args)
    with mock.patch.object(dynamics, "_kernel", None):
        reference = _drive(*args)
    assert compiled == reference


@needs_kernel
@pytest.mark.parametrize("bits", ["PCG64", "MT19937", "Philox"])
@pytest.mark.parametrize("scheduler,n,steps,every,windows", [
    ("sequential", 40, 3000, 700, ()),
    ("sequential", 40, 3000, 700, ((0, 1500), (2100, 3000))),
    ("synchronous", 41, 60, 13, ()),
], ids=["sequential", "sequential-windows", "synchronous"])
def test_run_on_a_callers_generator_matches_the_python_loop(bits, scheduler, n, steps, every,
                                                              windows):
    """The library's path: an engine given a numpy Generator makes a run's
    boundary loop (``advance`` with ``record_every``) in one kernel call on
    the Generator's capsule, drawn inline or ahead, with the Python loop's
    rows, windows, final values and generator state, bit for bit."""
    start = make_rng(61).uniform(0.0, 12.0, n)
    engine_cls = SequentialEngine if scheduler == "sequential" else SynchronousEngine
    seen = []
    for kernel, ahead in [(dynamics._kernel, False), (dynamics._kernel, True), (None, False)]:
        with mock.patch.object(dynamics, "_kernel", kernel):
            engine = engine_cls(init_population(start), DiscreteGeometric(0.8),
                                Cutoff(1.0, 10.0, rounding=True), _generator(bits, 62))
            rows, closed = engine.advance(steps, record_every=every, windows=windows, ahead=ahead)
        seen.append((repr(rows), repr(closed), engine.values.tobytes(), _state(engine.rng)))
    assert seen[0] == seen[1] == seen[2]


@needs_kernel
@pytest.mark.parametrize("n,rounds,every,windows", [
    (9, 40, 7, ((0, 13), (13, 40))),
    (40, 30, 4, ((2, 9), (20, 29))),
    (41, 30, 30, ((0, 30),)),
    (4100, 6, 1, ((0, 2), (3, 6))),  # a resync due every round
])
@pytest.mark.parametrize("model", [Gaussian(1.0), DiscreteGeometric(0.8), Zero()])
@pytest.mark.parametrize("rule", [Real(), DiscreteRounding(), Cutoff(1.0, 10.0, rounding=True)])
def test_synchronous_windows_run_as_the_python_loop(n, rounds, every, windows, model, rule):
    """The window methods are the engines' common code, so a synchronous run
    with windows, which the kernel's ``run`` takes, has its Python loop
    too: both give the same rows, closed windows, trackers, final values
    and generator state, bit for bit."""
    start = make_rng(63).uniform(0.0, 12.0, n)
    seen = []
    for kernel in (dynamics._kernel, None):
        with mock.patch.object(dynamics, "_kernel", kernel):
            engine = SynchronousEngine(init_population(start), model, rule, make_rng(64))
            rows, closed = engine.advance(rounds, record_every=every, windows=windows)
        assert len(closed) == len(windows)
        seen.append((repr(rows), repr(closed), engine.values.tobytes(), engine.state.tobytes(),
                     engine.step, engine._since_resync, engine._decomp, _state(engine.rng)))
    assert seen[0] == seen[1]


def test_engines_share_one_surface():
    """A scheduler's engine holds only data; every method is ``_Engine``'s,
    and ``advance`` runs a run's boundary loop on every call, recording at
    step 0 and at ``steps`` by default."""
    for engine_cls in (SequentialEngine, SynchronousEngine):
        own = {name for name in vars(engine_cls) if not name.startswith("__")}
        assert own <= {"_unit", "_matching", "_schedule"}
        engine = engine_cls(init_population(np.arange(7.0)), Gaussian(1.0), Real(), make_rng(3))
        rows, closed = engine.advance(5)
        assert [row[0] for row in rows] == [0, 5] and closed == []
        assert engine.advance(0) == ([(0, *rows[-1][1:])], [])  # counted from step 5
    assert list(inspect.signature(dynamics._Engine.advance).parameters) == [
        "self", "steps", "record_every", "windows", "ahead"]


def test_make_rng_is_a_numpy_generator_over_pcg64():
    """The library, ``verify`` and the step API keep numpy's Generator."""
    rng = make_rng(7, 3)
    assert isinstance(rng, np.random.Generator)
    assert rng.bit_generator.state == np.random.PCG64(seeding.mix64(7, 3)).state


def _observed_run(config, kernel):
    """``harness.run_single(config, 0)`` with ``kernel`` (None for the Python
    loop): the repr of its snapshots and decomposition records (exact for
    floats, signed zeros included) and its final values' bytes, or the
    message of the NumericalDriftError it raised; and its generator's state
    after the run: the kernel's stream with a kernel, numpy's without."""
    rngs, run_rng = [], harness._run_rng

    def spy(*args):
        rngs.append(run_rng(*args))
        return rngs[-1]

    with mock.patch.object(dynamics, "_kernel", kernel), \
            mock.patch.object(harness, "_run_rng", spy):
        try:
            trace = harness.run_single(config, 0)
        except NumericalDriftError as exc:
            return str(exc), rngs[0].bit_generator.state
    return ((repr(trace.snapshots), repr(trace.decompositions), trace.final_population.tobytes()),
            rngs[0].bit_generator.state)


@st.composite
def _record_runs(draw):
    """A run_single config: both schedulers, the oracle's rules and noises,
    odd and even n, steps and record_every that do and do not divide each
    other or the 1024-step resync, and sequential windows, adjacent or apart,
    whose ends fall on record steps or between them, and which span periodic
    resyncs where record steps are more than 1024 apart."""
    scheduler = draw(st.sampled_from(["sequential", "synchronous"]))
    steps = draw(st.one_of(st.integers(1, 3500), st.sampled_from([1024, 2048, 3072])))
    windows = ()
    if scheduler == "synchronous":
        steps = 1 + steps // 10
    else:
        ends = draw(st.sampled_from([0, 2, 3, 6]))
        cuts = sorted(set(draw(st.lists(st.integers(0, steps), min_size=ends, max_size=ends))))
        if draw(st.booleans()):  # windows from step 0 to the end, so they span resyncs
            cuts = sorted({0, *cuts, steps})
        apart = draw(st.sampled_from([1, 2]))  # 1: each window starts where the last ended
        windows = tuple(zip(cuts[:-1:apart], cuts[1::apart]))
    record_every = draw(st.one_of(st.integers(1, steps),
                                  st.sampled_from([r for r in (1, 100, 1024, 1500) if r <= steps])))
    return harness.ExperimentConfig(
        n=draw(st.sampled_from([2, 3, 8, 9, 40, 41])),
        init=draw(st.sampled_from([harness.UniformInit(1.0, 10.0), harness.ConstantInit(5.0)])),
        scheduler=scheduler, noise=draw(st.sampled_from(ORACLE_NOISES)),
        rule=draw(st.sampled_from(ORACLE_RULES)), steps=steps,
        master_seed=draw(st.integers(0, 2**64 - 1)), record_every=record_every,
        decomposition_intervals=windows)


#: The shape of the golden ``seq-resync-boundaries`` config: a record step on
#: every due resync, inside a window.
_RESYNC_BOUNDARIES = harness.ExperimentConfig(
    n=40, init=harness.UniformInit(0.0, 10.0), scheduler="sequential", noise=Gaussian(1.0),
    rule=Real(), steps=3072, master_seed=5, record_every=1024, decomposition_intervals=((0, 3072),))


@needs_kernel
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=_record_runs(), drift_tol=st.sampled_from([dynamics.DRIFT_TOL, 0.0]))
@example(config=_RESYNC_BOUNDARIES, drift_tol=dynamics.DRIFT_TOL)
@example(config=_RESYNC_BOUNDARIES, drift_tol=0.0)
def test_kernel_run_matches_the_python_loop(config, drift_tol):
    """A run's boundary loop in one kernel call (``_kernel.run``) gives the
    Python loop's snapshots, decomposition sums and bound checks, final
    values and generator state, bit for bit.  At a drift tolerance of 0 a
    window's trackers drift wherever they are not exact, and both raise the
    same NumericalDriftError, at the same step, after the same draws."""
    config.validate()
    with mock.patch.object(dynamics, "DRIFT_TOL", drift_tol):
        assert _observed_run(config, dynamics._kernel) == _observed_run(config, None)


@needs_kernel
def test_kernel_run_drifts_where_the_python_loop_does():
    """Far from 0 (values near 1e12) the potential tracker loses its digits
    and the run stops: the kernel raises the Python loop's message, at the
    same step, after the same draws."""
    config = harness.ExperimentConfig(
        n=100, init=harness.UniformInit(1e12, 1e12 + 10), scheduler="sequential",
        noise=Gaussian(1.0), rule=Real(), steps=5000, master_seed=1, record_every=100,
        decomposition_intervals=((0, 5000),))
    compiled = _observed_run(config, dynamics._kernel)
    assert compiled == _observed_run(config, None)
    assert compiled[0].startswith("potential tracker drifted")


@needs_kernel
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
def test_kernel_run_stops_on_a_signal():
    """A whole run is one kernel call, which runs the signal handlers before
    each chunk: a handler that raises stops a run of 10^10 steps (minutes of
    work) within moments, as it stops the Python loop between chunks."""
    class Alarm(Exception):
        pass

    def ring(signum, frame):
        raise Alarm

    engine = SequentialEngine(init_population(np.arange(100.0)), Gaussian(1.0), Real(),
                              make_rng(3))
    previous = signal.signal(signal.SIGALRM, ring)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        started = time.perf_counter()
        with pytest.raises(Alarm):
            engine.advance(10**10, record_every=10**10)
        assert time.perf_counter() - started < 10.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@needs_kernel
def test_kernel_run_lets_other_threads_run():
    """A whole run is one kernel call, which lets a waiting Python thread take
    the GIL before each chunk, as the interpreter did between the Python
    loop's chunks: a thread that ticks every 5 ms keeps ticking through a
    run of 10^7 steps, which it could not if the call held the GIL
    throughout (its longest gap would be the run)."""
    ticks, running = [], [True]

    def tick():
        while running[0]:
            ticks.append(time.perf_counter())
            time.sleep(0.005)

    engine = SequentialEngine(init_population(np.arange(100.0)), Gaussian(1.0), Real(),
                              make_rng(4))
    ticker = threading.Thread(target=tick)
    ticker.start()
    try:
        started = time.perf_counter()
        engine.advance(10**7, record_every=10**7)
        ended = time.perf_counter()
    finally:
        running[0] = False
        ticker.join()
    during = [started] + [t for t in ticks if started < t < ended] + [ended]
    assert max(b - a for a, b in zip(during, during[1:])) < (ended - started) / 2


def _run_drawn(config, ahead):
    """``_observed_run(config, dynamics._kernel)`` with ``harness.draws_ahead``
    forced to ``ahead``, and whether it asked the kernel's ``run`` for a
    producer."""
    asked = []

    def run(*args):
        asked.append(args[-1])
        return kernel.run(*args)

    kernel = dynamics._kernel
    with mock.patch.object(harness, "draws_ahead", lambda *facts: ahead), \
            mock.patch.object(dynamics, "_kernel", mock.Mock(wraps=kernel, run=run)):
        observed = _observed_run(config, dynamics._kernel)
    assert asked == [ahead]
    return observed


@st.composite
def _windowless_runs(draw):
    """A windowless run_single config of many chunks, so that the 8-slot ring
    wraps: both schedulers, the oracle's rules and noises, record_every that
    does or does not divide steps, and record steps on and off the resyncs
    (every 1024 sequential steps, every 4096 // n rounds)."""
    scheduler = draw(st.sampled_from(["sequential", "synchronous"]))
    n = draw(st.sampled_from([2, 3, 40, 41, 1000]))
    if scheduler == "sequential":
        steps = draw(st.one_of(st.integers(1, 30_000), st.sampled_from([1024, 10_240])))
        every = [1024, 2048, 3000, 512]
    else:
        steps = draw(st.integers(1, 300))
        every = [4096 // n, 2 * (4096 // n), 7]
    every = [r for r in every if 1 <= r <= steps]
    record_every = draw(st.one_of(st.integers(max(1, steps // 40), steps), st.sampled_from(every))
                        if every else st.integers(max(1, steps // 40), steps))
    init = draw(st.sampled_from([harness.UniformInit(1.0, 10.0), harness.ConstantInit(5.0)]))
    return harness.ExperimentConfig(
        n=n, init=init, scheduler=scheduler, noise=draw(st.sampled_from(ORACLE_NOISES)),
        rule=draw(st.sampled_from(ORACLE_RULES)), steps=steps,
        master_seed=draw(st.integers(0, 2**64 - 1)), record_every=record_every)


def _at_the_size_limit(steps):
    """A sequential run whose chunks hold harness.AHEAD_CHUNK_AGENTS agents,
    of ``steps`` steps."""
    return harness.ExperimentConfig(
        n=1000, init=harness.ConstantInit(10.0), scheduler="sequential",
        noise=DiscreteGeometric(0.8), rule=Cutoff(1.0, 10.0, rounding=True), steps=steps,
        master_seed=7, record_every=harness.AHEAD_CHUNK_AGENTS // 2)


_BELOW_THE_LIMIT = _at_the_size_limit(harness.AHEAD_RUN_AGENTS // 2 - 1)
_AT_THE_LIMIT = _at_the_size_limit(harness.AHEAD_RUN_AGENTS // 2)


@needs_kernel
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=_windowless_runs())
@example(config=_BELOW_THE_LIMIT)
@example(config=_AT_THE_LIMIT)
def test_a_run_drawn_ahead_is_the_run_drawn_inline(config):
    """A run whose chunks a producer thread draws ahead gives the snapshots,
    final values and generator state of the run that draws them itself, bit
    for bit: the producer walks the run's own schedule, so it draws exactly
    the run's chunks, in order, on the same generator."""
    config.validate()
    assert _run_drawn(config, True) == _run_drawn(config, False)


def test_the_size_limit_examples_straddle_the_rule():
    assert not harness.draws_ahead(_BELOW_THE_LIMIT, 2, False)
    assert harness.draws_ahead(_AT_THE_LIMIT, 2, False)


needs_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="no /proc/self/task")


def _threads():
    return len(os.listdir("/proc/self/task"))


def _threads_once_back_to(before, deadline=5.0):
    """The thread count once it is back to ``before``, or after ``deadline``
    seconds: the OS task of a thread just joined may linger in /proc a
    moment, while a thread still running stays until the deadline."""
    end = time.monotonic() + deadline
    while _threads() != before and time.monotonic() < end:
        time.sleep(0.01)
    return _threads()


def _affinities():
    """Each thread's allowed CPUs, as /proc lists them."""
    masks = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/status") as status:
                masks.update(line for line in status if line.startswith("Cpus_allowed_list"))
        except OSError:  # a thread that ended meanwhile
            pass
    return masks


def _long_engine(seed):
    return SequentialEngine(init_population(np.arange(1000.0)), Gaussian(1.0), Real(),
                            make_rng(seed))


@needs_kernel
@needs_tasks
def test_no_thread_outlives_a_run_drawn_ahead():
    """The producer exists while a run draws ahead (a watcher thread counts
    it), with the process's affinity mask (it moves itself off the caller's
    CPU once, at its start, and restores its mask), and it has ended when
    ``run`` returns."""
    _long_engine(1).advance(10**4, record_every=10**4, ahead=True)  # any lazy thread starts
    before, mask, seen, running = _threads(), _affinities(), [], [True]

    def watch():
        while running[0]:
            seen.append((_threads(), _affinities()))
            time.sleep(0.001)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        _long_engine(2).advance(2 * 10**6, record_every=10**6, ahead=True)
    finally:
        running[0] = False
        watcher.join(timeout=10)
    assert not watcher.is_alive()
    during = [masks for count, masks in seen if count == before + 2]  # the watcher, the producer
    assert during and max(count for count, _ in seen) == before + 2
    assert during[-1] == mask
    assert _threads_once_back_to(before) == before


@needs_kernel
@needs_tasks
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
def test_no_thread_outlives_a_run_drawn_ahead_that_a_signal_stops():
    """As test_kernel_run_stops_on_a_signal, with the draws made ahead: the
    handler's exception ends the run within moments, and the producer with
    it."""
    class Alarm(Exception):
        pass

    def ring(signum, frame):
        raise Alarm

    _long_engine(1).advance(10**4, record_every=10**4, ahead=True)
    before = _threads()
    previous = signal.signal(signal.SIGALRM, ring)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        started = time.perf_counter()
        with pytest.raises(Alarm):
            _long_engine(3).advance(10**10, record_every=10**10, ahead=True)
        assert time.perf_counter() - started < 10.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert _threads_once_back_to(before) == before


def _run_bits(engine, rows):
    return repr(rows), engine.values.tobytes(), engine.rng.bit_generator.state


@needs_kernel
def test_a_run_drawn_ahead_holds_the_generators_lock():
    """While a producer may draw, the run holds ``rng.bit_generator.lock``:
    another thread's ``rng.random`` waits for the run to end instead of
    racing it, so the run's bytes are those of a run left alone, and the
    thread's values follow the run's draws.  Where the lock is taken, the
    run draws its chunks itself, with the same bytes."""
    alone = _long_engine(5)
    expected = _run_bits(alone, alone.advance(10**6, record_every=10**5, ahead=True))
    after = alone.rng.random(4).tolist(), alone.rng.bit_generator.state

    engine, got = _long_engine(5), {}

    def other():
        time.sleep(0.005)
        got["asked"] = time.perf_counter()
        got["values"] = engine.rng.random(4).tolist()

    thread = threading.Thread(target=other)
    thread.start()
    try:
        rows = engine.advance(10**6, record_every=10**5, ahead=True)
        ended = time.perf_counter()
    finally:
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got["asked"] < ended  # asked during the run
    assert _run_bits(engine, rows)[:2] == expected[:2]
    assert (got["values"], engine.rng.bit_generator.state) == after

    held = _long_engine(5)
    with held.rng.bit_generator.lock:
        rows = held.advance(10**6, record_every=10**5, ahead=True)
    assert _run_bits(held, rows) == expected


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


def _kernel_and_numpy_normals(matching, n, count, scale, seed):
    """The agents and noise ``_kernel.draw`` gives with the Gaussian code, and
    those of rng.permutation or rng.integers then rng.normal(0.0, scale, m),
    each as bytes with the generator state after them."""
    m = count - count % 2
    agents, noise = np.zeros(count, np.int64), np.zeros(m)
    rng = make_rng(seed)
    dynamics._kernel.draw(rng.bit_generator.capsule, matching, n, count, dynamics._GAUSSIAN,
                          scale, agents, noise, None)
    twin = make_rng(seed)
    expected = twin.permutation(n) if matching else twin.integers(0, n, size=count)
    expected_noise = twin.normal(0.0, scale, m)
    return ((agents.tobytes(), noise.tobytes(), rng.bit_generator.state),
            (expected.tobytes(), expected_noise.tobytes(), twin.bit_generator.state), noise)


@needs_kernel
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(matching=st.booleans(), count=st.sampled_from([0, 1, 2, 7, 1001, 100_001]),
       scale=st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf]),
       seed=st.integers(0, 2**64 - 1))
def test_kernel_gaussian_draws_are_numpys(matching, count, scale, seed):
    """Both schedulers' Gaussian draws in the kernel, whose normals take
    numpy's ziggurat step inline, are numpy's bytes and leave numpy's
    generator state, at any count and at scales from 0 through subnormal and
    huge to inf.  A matching draws all n agents, so there count 0 stands
    for n = 1."""
    n = max(count, 1) if matching else 1000
    got, expected, _ = _kernel_and_numpy_normals(matching, n, n if matching else count, scale,
                                                 seed)
    assert got == expected


@needs_kernel
def test_kernel_gaussian_draws_reach_numpys_tail():
    """10^5 normals reach past the ziggurat's r, which only numpy's tail
    sampler (the slow path of layer 0) returns, and are still numpy's."""
    got, expected, noise = _kernel_and_numpy_normals(False, 1000, 100_001, 1.0, 7)
    assert got == expected
    assert np.abs(noise).max() > 3.6541528853610088


#: 1, 2, 3, each 2^k - 1, 2^k, 2^k + 1 up to 4097 (where the shuffle's mask narrows) and 10^4.
MATCHING_SIZES = sorted({1, 2, 3, 10_000} | {2**k + d for k in range(1, 13) for d in (-1, 0, 1)})


@needs_kernel
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from(MATCHING_SIZES),
       code=st.sampled_from([dynamics._ZERO, dynamics._GAUSSIAN]), prior=st.integers(0, 2),
       seed=st.integers(0, 2**64 - 1))
def test_kernel_shuffle_is_numpys_from_any_state(n, code, prior, seed):
    """A synchronous round's draw in the kernel is rng.permutation(n), then
    rng.normal(0.0, 1.0, n - n % 2) with the Gaussian code, in bytes and in
    the whole generator state, from any state: after 0 to 2 draws of 32 bits
    (PCG64 then holds a buffered half or not) and twice in a row.  n = 1
    draws nothing."""
    rng, twin = make_rng(seed), make_rng(seed)
    for _ in range(prior):
        rng.integers(0, 7, dtype=np.uint32)
        twin.integers(0, 7, dtype=np.uint32)
    before = twin.bit_generator.state
    m = n - n % 2
    for _ in range(2):
        agents, noise = np.zeros(n, np.int64), np.zeros(m)
        dynamics._kernel.draw(rng.bit_generator.capsule, True, n, n, code, 1.0, agents, noise,
                              None)
        expected = twin.permutation(n)
        expected_noise = twin.normal(0.0, 1.0, m) if code == dynamics._GAUSSIAN else np.zeros(m)
        assert agents.tobytes() == expected.tobytes()
        assert noise.tobytes() == expected_noise.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
    if n == 1:
        assert rng.bit_generator.state == before


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


def _exact_outcome(values, kernel):
    """float.hex of what ``_exact`` returns with ``kernel`` (None for the
    fsum body alone), or the type of what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(dynamics, "_kernel", kernel):
            mean, phibar = dynamics._exact(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return mean.hex(), phibar.hex()


def _assert_exact_matches_fsum(values):
    """The compiled sums against the fsum body."""
    assert dynamics._kernel is not None
    assert _exact_outcome(values, dynamics._kernel) == _exact_outcome(values, None)


@needs_kernel
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=st.lists(EXACT_FINITE, min_size=2, max_size=300))
def test_compiled_exact_matches_fsum(values):
    """``exact_moments`` returns math.fsum's correctly rounded sums bit for bit
    (or hands over to it where a sum or a square overflows)."""
    _assert_exact_matches_fsum(np.array(values))


@needs_kernel
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(EXACT_FINITE, st.sampled_from([math.inf, -math.inf, math.nan])),
                       min_size=2, max_size=40))
def test_compiled_exact_matches_fsum_on_non_finite_values(values):
    """inf, -inf and NaN give fsum's value, OverflowError or ValueError."""
    _assert_exact_matches_fsum(np.array(values))


def _exact_code(values):
    """0 where ``exact_moments`` sums ``values`` itself; 1 where it declines
    (returns None)."""
    return int(dynamics._kernel.exact_moments(values) is None)


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
        _assert_exact_matches_fsum(np.array(values))
    kernel = dynamics._kernel
    assert _exact_outcome(np.array([1.7e308, 1.7e308, -1.7e308]), kernel) is OverflowError
    assert _exact_outcome(np.array([math.inf, -math.inf]), kernel) is ValueError


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
@pytest.mark.parametrize("negated", [True, False])
def test_compiled_exact_matches_fsum_on_adversarial_sums(case, negated):
    """Cancelling huge pairs, subnormals, exponents from 2^-1000 to 2^1000,
    runs of zeros, values near 1e12 and 10^6 values, as given and negated
    (the same squares, and the mirror of each mean, which a negative total
    rounds through the kernel's negated chunks): the compiled sums equal the
    fsum body by float.hex (where the squares overflow, both are fsum's)."""
    values = _adversarial_sums()[case]
    _assert_exact_matches_fsum(-values if negated else values)


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
        _assert_exact_matches_fsum(values)


@needs_kernel
def test_kernel_takes_only_arrays_it_can_take(monkeypatch):
    """The kernel refuses, through the buffer protocol, strided, float32 and
    big-endian arrays, and for the values it writes a read-only one; it
    declines an empty array, which the fsum body then gets, as every array
    does without a kernel."""
    frozen = np.arange(4.0)
    frozen.flags.writeable = False
    assert dynamics._exact(frozen) == (1.5, 5.0)  # only read
    state, pairs, noise = np.zeros(5), np.array([0, 1]), np.zeros(2)
    flags = dynamics._rule_flags(Real())
    for bad in (frozen, np.arange(8.0)[::2], np.arange(4, dtype=np.float32),
                np.arange(4.0).astype(">f8")):
        before = bad.tobytes()
        with pytest.raises((TypeError, ValueError)):
            dynamics._kernel.pair_chunk(bad, pairs, noise, None, 2, flags, False, state, None)
        if bad is not frozen:
            with pytest.raises((TypeError, ValueError)):
                dynamics._kernel.exact_moments(bad)
        assert bad.tobytes() == before and state.tolist() == [0.0] * 5
    for bad_pairs in (np.array([0, 4]), np.array([-1, 0]), np.array([0, 1], dtype=np.int32)):
        with pytest.raises((TypeError, IndexError)):
            dynamics._kernel.pair_chunk(np.arange(4.0), bad_pairs, noise, None, 2, flags, False,
                                        state, None)
    assert dynamics._kernel.exact_moments(np.zeros(0)) is None
    monkeypatch.setattr(dynamics, "_kernel", None)
    assert dynamics._exact(np.arange(4.0)) == (1.5, 5.0)


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


@needs_kernel
def test_kernel_discrete_map_checks_its_arguments_before_it_writes():
    """The entry around numpy's ``log1p`` refuses, before any value changes,
    a short, mistyped, strided or read-only buffer, a negative count, a
    log1p(-p) that is no negative number, and a wrong argument count."""
    u = make_rng(0).random(4)
    noise, folds = u.copy(), np.full(4, -0.5)
    frozen = np.zeros(4)
    frozen.flags.writeable = False
    bad_buffers = [
        (noise[:3], folds), (noise, folds[:3]), (noise.astype(np.float32), folds),
        (noise, folds.astype(np.float32)), (noise, np.zeros(8)[::2]), (np.zeros(8)[::2], folds),
        (noise, frozen), (frozen, folds),
    ]
    for args in bad_buffers:
        with pytest.raises((TypeError, ValueError)):
            dynamics._kernel.discrete_map(*args, 4, -0.25)
    for count, log_q in [(-1, -0.25), (4, 0.0), (4, -0.0), (4, 0.5), (4, math.nan),
                         (4, math.inf), (4, "x"), (4.0, -0.25)]:
        with pytest.raises((TypeError, ValueError)):
            dynamics._kernel.discrete_map(noise, folds, count, log_q)
    with pytest.raises(TypeError):
        dynamics._kernel.discrete_map(noise, folds, 4)
    assert noise.tobytes() == u.tobytes() and folds.tolist() == [-0.5] * 4


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
                                     dynamics._buffers(2), False,
                                     dynamics._noise_params(Gaussian(1.0)))
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
    events = _advance_collecting(engine, length)
    for event in events:
        replay_event(ref, event, rule)
    assert np.array_equal(engine.values, ref.values)
    assert _drive(scheduler, rule, model, start, 30, [(length, False)], False, True) == compiled


needs_compiler = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def test_kernel_library_name_follows_numpy(monkeypatch):
    """Another numpy (its version or its samplers' bytes) never loads a
    module built against this one, nor does another source, another set of
    flags or another interpreter's extension suffix."""
    source, samplers = _native.SOURCE.read_bytes(), _native.SAMPLERS.read_bytes()
    name = _native.library_name(source, samplers, "2.4.6")
    assert name != _native.library_name(source, samplers, "2.4.7")
    assert name != _native.library_name(source, samplers + b"\0", "2.4.6")
    assert name != _native.library_name(source + b"\n", samplers, "2.4.6")
    assert name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    with monkeypatch.context() as patch:
        patch.setattr(_native, "FLAGS", (*_native.FLAGS, "-g"))
        assert _native.library_name(source, samplers, "2.4.6") != name
    monkeypatch.setattr(_native, "EXT_SUFFIX", ".cpython-399-x86_64-linux-gnu.so")
    other = _native.library_name(source, samplers, "2.4.6")
    assert other.endswith(_native.EXT_SUFFIX)
    assert other.removesuffix(_native.EXT_SUFFIX) != name.removesuffix(
        sysconfig.get_config_var("EXT_SUFFIX"))


# ---------------------------------------------------------------------------
# the kernel's PCG64 stream against numpy's
# ---------------------------------------------------------------------------

#: The master seeds of the stream oracle: the ends of the 64-bit range and
#: of the low 32-bit word, and one with the top bit set.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1]

#: (low, high) for ``uniform``: ordinary ranges, an empty one (its values are
#: low, and still use draws), and those numpy refuses: high below low, and a
#: range that is not finite.
UNIFORM_RANGES = [(0.0, 1.0), (1.0, 10.0), (-3.5, 2.25), (5.0, 5.0), (-0.0, 0.0), (10.0, 1.0),
                  (-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0)]


@pytest.fixture(scope="module")
def stream_kernels(tmp_path_factory):
    """The kernel in each 128-bit form it may take: ``int128`` as loaded, and
    ``limbs``, built by the loader's compile command with __SIZEOF_INT128__
    undefined, so that its 128-bit words are pairs of 64-bit limbs."""
    kernels = {"int128": dynamics._kernel}
    if dynamics._kernel is not None and shutil.which("cc") is not None:
        path = tmp_path_factory.mktemp("limbs") / f"kernel{_native.EXT_SUFFIX}"
        subprocess.run(_native.compiler_command(shutil.which("cc"), str(path),
                                                "-U__SIZEOF_INT128__"),
                       input=_native.SOURCE.read_bytes(), check=True, capture_output=True,
                       timeout=300)
        kernels["limbs"] = _native._import(path)
    return kernels


def _stream_kernel(stream_kernels, form):
    if stream_kernels.get(form) is None:
        pytest.skip(f"no kernel in the {form} form")
    return stream_kernels[form]


@needs_kernel
@pytest.mark.parametrize("form", ["int128", "limbs"])
def test_kernel_stream_is_numpys_pcg64_at_the_seed_edges(stream_kernels, form):
    """For each edge seed and runs 0-3, the kernel's stream seeded with
    mix64(seed, run) holds ``np.random.PCG64(mix64(seed, run))``'s state,
    gives its raw outputs and then holds its state again; a seed outside
    [0, 2^64) is refused, and only a stream of ``pcg64`` has its state read."""
    kernel = _stream_kernel(stream_kernels, form)
    with mock.patch.object(dynamics, "_kernel", kernel):
        for seed, run in itertools.product(STREAM_SEEDS, range(4)):
            stream = dynamics.KernelPCG64(seeding.mix64(seed, run))
            twin = np.random.PCG64(seeding.mix64(seed, run))
            assert stream.state == twin.state
            raw = np.zeros(1000, np.int64)
            kernel.random_raw(stream.capsule, raw)
            assert raw.view(np.uint64).tolist() == twin.random_raw(1000).tolist()
            assert stream.state == twin.state
        for seed in STREAM_SEEDS:
            assert dynamics.KernelPCG64(seed).state == np.random.PCG64(seed).state
        for seed in (-1, 2**64):
            with pytest.raises(OverflowError):
                kernel.pcg64(seed)
        with pytest.raises(TypeError):
            kernel.pcg64_state(make_rng(0).bit_generator.capsule)


@st.composite
def _stream_ops(draw):
    """What a run or a caller asks of a stream, a few times over: raw outputs,
    one chunk's draws (``draw``: both schedulers, each noise code, with coins
    or without), a run's boundary loop (``run``, drawn inline or ahead), and
    ``uniform``."""
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["raw", "draw", "run", "uniform"]))
        if kind == "raw":
            ops.append(("raw", draw(st.sampled_from([0, 1, 3, 1000]))))
        elif kind == "draw":
            matching = draw(st.booleans())
            n = draw(st.sampled_from([2, 3, 17, 1000]))
            count = n if matching else draw(st.sampled_from([0, 1, 2, 7, 1001]))
            code = draw(st.sampled_from([dynamics._ZERO, dynamics._GAUSSIAN, dynamics._UNIFORMS]))
            ops.append(("draw", matching, n, count, code, draw(st.booleans())))
        elif kind == "run":
            ops.append(("run", draw(st.sampled_from(["sequential", "synchronous"])),
                        draw(st.sampled_from(ORACLE_NOISES)), draw(st.sampled_from(ORACLE_RULES)),
                        draw(st.booleans())))
        else:
            ops.append(("uniform", *draw(st.sampled_from(UNIFORM_RANGES)),
                        draw(st.sampled_from([0, 1, 5, 40]))))
    return ops


def _stream_op(op, rng, kernel):
    """Apply ``op`` to ``rng``, the kernel's stream or a numpy Generator, and
    return what it gave as bytes, or the exception it raised."""
    kind, *args = op
    if kind == "raw":
        if isinstance(rng, np.random.Generator):
            return rng.bit_generator.random_raw(args[0]).tobytes()
        raw = np.zeros(args[0], np.int64)
        kernel.random_raw(rng.capsule, raw)
        return raw.tobytes()
    if kind == "draw":
        matching, n, count, code, coins = args
        agents, noise, flips = np.zeros(count, np.int64), np.zeros(count), np.zeros(count)
        kernel.draw(rng.bit_generator.capsule, matching, n, count, code, 1.0, agents, noise,
                    flips if coins else None)
        return agents.tobytes() + noise.tobytes() + flips.tobytes()
    if kind == "run":
        scheduler, model, rule, ahead = args
        engine_cls = SequentialEngine if scheduler == "sequential" else SynchronousEngine
        steps, every = (2500, 700) if scheduler == "sequential" else (50, 13)
        engine = engine_cls(init_population(np.arange(9.0)), model, rule, rng)
        rows, _ = engine.advance(steps, record_every=every, ahead=ahead)
        return repr(rows).encode() + engine.values.tobytes()
    low, high, size = args
    try:
        return rng.uniform(low, high, size).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@needs_kernel
@pytest.mark.parametrize("form", ["int128", "limbs"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.sampled_from(STREAM_SEEDS), run=st.integers(0, 3), ops=_stream_ops())
def test_kernel_stream_follows_numpys_pcg64(stream_kernels, form, seed, run, ops):
    """The stream that a run draws from with a kernel
    (``harness._run_rng``) against ``np.random.PCG64(mix64(seed, run))`` in
    a Generator, over a sequence of what a run asks of it: after each, the
    same values, bit for bit, or the same exception, and the same state
    ({state, inc, has_uint32, uinteger}), so numpy's buffered half of a
    next_uint32 carries over as numpy carries it.  ``uniform`` is numpy's
    ``rng.uniform(low, high, size)``, refusals included."""
    kernel = _stream_kernel(stream_kernels, form)
    with mock.patch.object(dynamics, "_kernel", kernel):
        config = harness.ExperimentConfig(
            n=2, init=harness.ConstantInit(0.0), scheduler="sequential", noise=Zero(),
            rule=Real(), steps=1, master_seed=seed, record_every=1)
        stream = harness._run_rng(config, run)
        assert isinstance(stream, dynamics.KernelPCG64)
        twin = np.random.Generator(np.random.PCG64(seeding.mix64(seed, run)))
        for op in ops:
            assert _stream_op(op, stream, kernel) == _stream_op(op, twin, kernel), op
            assert stream.state == twin.bit_generator.state, op


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


def test_kernel_cache_keeps_the_newest_libraries(tmp_path, monkeypatch):
    """A build deletes the libraries of its cache directory beyond the
    newest KEEP by mtime, so two checkouts that alternate build once each; a
    concurrent build's temporary file and a library that another process
    removed are left alone.  The build and the import are stubbed."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    python_h, source, samplers = tmp_path / "Python.h", tmp_path / "_kernel.c", tmp_path / "lib.a"
    python_h.touch()
    samplers.touch()
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    monkeypatch.setattr(_native, "_python_h", lambda: python_h)
    monkeypatch.setattr(_native, "SOURCE", source)
    monkeypatch.setattr(_native, "SAMPLERS", samplers)
    built = []

    def build(cc, text, path):
        built.append(text)
        path.write_bytes(text)
        os.utime(path, ns=(len(built), len(built)))  # mtimes in build order

    monkeypatch.setattr(_native, "_build", build)
    monkeypatch.setattr(_native, "_import", lambda path: path.read_bytes())
    cache = tmp_path / "gossipavg"
    cache.mkdir()
    pending = cache / f"kernel-building{_native.EXT_SUFFIX}.x1y2.tmp"
    pending.touch()
    removed = cache / f"kernel-removed{_native.EXT_SUFFIX}"
    removed.symlink_to(tmp_path / "absent")  # stat fails, as on a file deleted meanwhile

    def load(text):
        source.write_bytes(text)
        assert _native.load() == text

    for text in [b"parent", b"change"] * 3:
        load(text)
    assert built == [b"parent", b"change"]
    texts = [b"source %d" % k for k in range(_native.KEEP + 2)]
    for text in texts:
        load(text)
    libraries = [path.read_bytes() for path in cache.glob(f"kernel-*{_native.EXT_SUFFIX}")
                 if path.exists()]
    assert sorted(libraries) == texts[-_native.KEEP:]
    assert pending.exists() and removed.is_symlink()


@needs_compiler
def test_kernel_compiles_without_warnings(tmp_path):
    """The kernel's integer and float code stays clean under -Wall -Wextra,
    and it is portable C99 (-std=c99 -Wpedantic refuses GNU extensions),
    built by the command that builds the module the engines load."""
    for flags in [("-Wall", "-Wextra"), ("-std=c99", "-Wpedantic")]:
        command = _native.compiler_command(shutil.which("cc"), str(tmp_path / "kernel.so"),
                                           *flags, "-Werror")
        done = subprocess.run(command, input=_native.SOURCE.read_bytes(), capture_output=True,
                              timeout=300)
        assert done.returncode == 0, f"{flags}: {done.stderr.decode(errors='replace')}"


@needs_compiler
@pytest.mark.parametrize("wrong", [b"zig_k[37] += 1;", b"zig_w[37] *= 1.0000001;"],
                         ids=["k", "w"])
def test_kernel_with_a_wrong_normal_table_refuses_to_load(tmp_path, monkeypatch, wrong):
    """A kernel whose normal tables are off in one entry fails its init check
    on numpy's random_standard_normal: the import raises ImportError naming
    the check, and load() falls back with its one RuntimeWarning."""
    marker = b"    calibrate();\n"
    source = _native.SOURCE.read_bytes()
    assert source.count(marker) == 1
    source = source.replace(marker, marker + b"    " + wrong + b"\n")
    path = tmp_path / "gossipavg" / _native.library_name(source, _native.SAMPLERS.read_bytes(),
                                                         np.__version__)
    _native._build(shutil.which("cc"), source, path)
    with pytest.raises(ImportError, match="normal check failed"):
        _native._import(path)
    (tmp_path / "_kernel.c").write_bytes(source)
    monkeypatch.setattr(_native, "SOURCE", tmp_path / "_kernel.c")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    monkeypatch.setattr(_native, "_build", lambda *args: pytest.fail("rebuilt a cached library"))
    with pytest.warns(RuntimeWarning, match="normal check failed") as record:
        assert _native.load() is None
    assert len(record) == 1


def test_kernel_falls_back_with_one_warning(tmp_path, monkeypatch):
    """Without a compiler, Python.h or numpy's C samplers, one RuntimeWarning
    names what is missing, and the engines take the pure-Python path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
    missing = tmp_path / "missing"
    for name, owner, attr, value in [
            ("cc", shutil, "which", lambda name: None),
            ("Python.h", _native, "_python_h", lambda: missing / "Python.h"),
            ("libnpyrandom.a", _native, "SAMPLERS", missing / "libnpyrandom.a")]:
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, value)
            with pytest.warns(RuntimeWarning, match="pure-Python loop") as record:
                assert _native.load() is None
        assert len(record) == 1 and name in str(record[0].message)
