"""Agent population state and the pairwise averaging dynamic.

One interaction between agents i and j with channel noises (Ni, Nj)
replaces the pair values (xi, xj) by

    xi' = (xi + xj + Nj) / 2        # i receives xj + Nj
    xj' = (xi + xj + Ni) / 2        # j receives xi + Ni

before the update rule's rounding/clamping is applied.  The sequential
scheduler performs one uniformly random interaction per step; the
synchronous scheduler performs a uniformly random perfect matching per
round, all pairs updating from the pre-round values.

Self-pairs (i == j), which the sequential sampler draws with probability
1/n and which absorb the leftover agent of an odd-n matching, perform no
exchange: the agent keeps its value and the event records zero noise.
This keeps the exact one-step potential identity valid on every realized
interaction.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from . import _native
from .errors import NumericalDriftError, ParameterError
from .noise import Gaussian, NoiseModel, Zero, sample_batch

#: Randomness is drawn in fixed-size chunks so that stream consumption is a
#: deterministic function of the run configuration alone.
CHUNK = 1 << 14

#: ``refresh`` raises NumericalDriftError when a tracker is off its exact
#: recomputation by more than this, relative to 1 + |exact value|.
DRIFT_TOL = 1e-6


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Real:
    """Store the exact average."""


@dataclass(frozen=True)
class DiscreteRounding:
    """Round the average up or down with equal probability (integers stay put)."""


@dataclass(frozen=True)
class Cutoff:
    """Clamp received values and stored results into [vmin, vmax]."""

    vmin: float
    vmax: float
    rounding: bool = False

    def __post_init__(self) -> None:
        if not self.vmin < self.vmax:
            raise ParameterError(f"cutoff requires vmin < vmax, got [{self.vmin}, {self.vmax}]")


UpdateRule = Union[Real, DiscreteRounding, Cutoff]


def _rule_flags(rule: UpdateRule) -> tuple[bool, bool, float, float]:
    """(do_round, do_clamp, vmin, vmax) for the inner loops."""
    if isinstance(rule, Real):
        return False, False, 0.0, 0.0
    if isinstance(rule, DiscreteRounding):
        return True, False, 0.0, 0.0
    if isinstance(rule, Cutoff):
        return rule.rounding, True, rule.vmin, rule.vmax
    raise ParameterError(f"unknown update rule {rule!r}")


# ---------------------------------------------------------------------------
# population and events
# ---------------------------------------------------------------------------


@dataclass
class Population:
    """Mutable state of one run: agent values plus the frozen initial average."""

    values: np.ndarray
    initial_average: float
    step_count: int = 0

    @property
    def n(self) -> int:
        return len(self.values)

    def copy(self) -> "Population":
        return Population(self.values.copy(), self.initial_average, self.step_count)

    def running_average(self) -> float:
        return float(np.mean(self.values))


def init_population(values) -> Population:
    """Freeze the initial average and wrap the values into a Population."""
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1 or len(arr) < 2:
        raise ParameterError("population needs at least 2 agents")
    return Population(arr, float(np.mean(arr)), 0)


class Interaction(NamedTuple):
    """Realized randomness of one pairwise exchange.

    ``noise_i`` is the channel noise on agent i's outgoing value (received
    by j) and ``round_i`` the rounding offset applied to agent i's own new
    value: +1 rounded up, -1 rounded down, 0 untouched.
    """

    i: int
    j: int
    noise_i: float
    noise_j: float
    round_i: int
    round_j: int


class StepEvent(NamedTuple):
    """All interactions of one step: a single pair (sequential) or a matching."""

    interactions: list[Interaction]


def parallel_time(t_sequential: int, n: int) -> float:
    """Sequential step count rescaled to parallel time t/n."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    return t_sequential / n


# ---------------------------------------------------------------------------
# one agent's update (the Python oracle: replay and reference loop)
# ---------------------------------------------------------------------------


def _receive(x, w, u, flags):
    """New value and rounding offset of an agent holding ``x`` that receives ``w``.

    The coin ``u`` (uniform in [0,1)) is read only where the rule rounds and
    x + w, after the clamp of ``w``, is not exactly even.
    """
    do_round, do_clamp, vmin, vmax = flags
    if do_clamp:
        if w > vmax:
            w = vmax
        elif w < vmin:
            w = vmin
    s = x + w
    if do_round and s != 2.0 * (f := s // 2.0):
        v, r = (f + 1.0, 1) if u < 0.5 else (f, -1)
    else:
        v, r = s * 0.5, 0
    if do_clamp:
        if v > vmax:
            v = vmax
        elif v < vmin:
            v = vmin
    return v, r


# ---------------------------------------------------------------------------
# one-step operations
# ---------------------------------------------------------------------------


def _step(pop: Population, count: int, matching: bool, model: NoiseModel, rule: UpdateRule,
          rng: np.random.Generator) -> StepEvent:
    """One step of ``count`` agents through the engines' own chunk."""
    # the step API keeps no trackers, so the tracker state passed is discarded
    event = StepEvent(_draw_and_apply(pop.values, count, matching, model, rng, _rule_flags(rule),
                                      False, np.zeros(5), _buffers(count), True,
                                      _noise_params(model)))
    pop.step_count += 1
    return event


def sequential_step(
    pop: Population, model: NoiseModel, rule: UpdateRule, rng: np.random.Generator
) -> StepEvent:
    """One uniformly random interaction (i, j drawn with replacement)."""
    return _step(pop, 2, False, model, rule, rng)


def synchronous_step(
    pop: Population, model: NoiseModel, rule: UpdateRule, rng: np.random.Generator
) -> StepEvent:
    """One synchronous round: a uniform random perfect matching, all pairs
    updating from the pre-round values.  For odd n the leftover agent
    self-pairs and keeps its value."""
    return _step(pop, len(pop.values), True, model, rule, rng)


def replay_event(pop: Population, event: StepEvent, rule: UpdateRule) -> None:
    """Re-apply a recorded event; bit-for-bit identical to the original step.

    The event runs through ``_pairs_reference``; its pairs are disjoint, so
    each reads the pre-step values.  A recorded offset of +1 replays as a
    coin below 1/2 (round up), any other as one above; ``_receive`` reads a
    coin only where the rule rounds and the sum is not exactly even, where
    the step recorded a nonzero offset.
    """
    pairs, noise, coins = [], [], []
    for i, j, noise_i, noise_j, round_i, round_j in event.interactions:
        pairs += (int(i), int(j))
        noise += (float(noise_i), float(noise_j))
        coins += (0.0 if round_i > 0 else 1.0, 0.0 if round_j > 0 else 1.0)
    _pairs_reference(pop.values, pairs, noise, coins, _rule_flags(rule), False, [0.0] * 5,
                     None)
    pop.step_count += 1


# ---------------------------------------------------------------------------
# batched engines
# ---------------------------------------------------------------------------

#: The compiled draws, pair loop, exact sums and run loop (``_kernel.c``), or
#: None where they could not be built; the engines then draw with numpy, run
#: ``_pairs_reference``, ``_exact`` its ``math.fsum`` body and
#: ``_Engine._record``.
_kernel = _native.load()

#: The kernel's noise draws (``NOISE_*`` in ``_kernel.c``): none, normal(0,
#: scale) per value, or uniforms that its ``discrete_map`` maps to the
#: discrete model, as ``sample_batch`` does, bit for bit.
_ZERO, _GAUSSIAN, _UNIFORMS = range(3)


class KernelPCG64:
    """numpy's ``PCG64(seed)``, seeded and stepped by the kernel: the same
    outputs and the same state, without importing ``numpy.random``.  A run
    of ``harness.run_single`` draws from one where there is a kernel.

    Like a numpy bit generator it has a ``capsule`` (the ``bitgen_t`` that the
    kernel's ``draw`` and ``run`` take, named "BitGenerator" as numpy's is), a
    ``lock`` and a ``state`` in numpy's form.  It is its own
    ``bit_generator``, so an engine reads it as it reads a Generator's; and
    its one sampler, ``uniform``, gives ``Generator.uniform``'s values."""

    def __init__(self, seed: int):
        self.capsule = _kernel.pcg64(seed)
        self.lock = threading.Lock()

    @property
    def bit_generator(self) -> "KernelPCG64":
        return self

    @property
    def state(self) -> dict:
        """``np.random.PCG64(seed).state`` after the same draws."""
        (state_hi, state_lo), (inc_hi, inc_lo), has_uint32, uinteger = _kernel.pcg64_state(
            self.capsule)
        return {"bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": has_uint32, "uinteger": uinteger}

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """``rng.uniform(low, high, size)``: the same values, the same errors,
        drawn holding the lock, as numpy's samplers hold theirs."""
        out = np.empty(size)
        with self.lock:
            _kernel.uniform(self.capsule, low, high, out)
        return out


def _noise_params(model: NoiseModel) -> tuple[int, float]:
    """The kernel's noise code for ``model`` and its parameter: the Gaussian's
    scale, the discrete model's log1p(-p) (-inf at p = 1), 0.0 for Zero."""
    if isinstance(model, Gaussian):
        return _GAUSSIAN, math.sqrt(model.sigma2)
    if isinstance(model, Zero):
        return _ZERO, 0.0
    return _UNIFORMS, math.log1p(-model.p) if model.p < 1.0 else -math.inf


def _exact(values: np.ndarray) -> tuple[float, float]:
    """Mean and potential about it, each from one correctly rounded sum.

    The squares are rounded one by one, as ``(x - m) * (x - m)`` would be.
    The kernel's ``exact_moments`` (a superaccumulator) gives ``math.fsum``'s
    sums bit for bit, a correctly rounded sum being unique.  The fsum body,
    the tests' oracle, runs without a kernel and where it declines (None):
    only where fsum could raise, on a value or square that is not finite or
    whose biased exponent plus the bit length of n plus 2 exceeds 2046.
    """
    if _kernel is not None:
        out = _kernel.exact_moments(values)
        if out is not None:
            return out
    mean = math.fsum(values.tolist()) / len(values)
    d = values - mean
    return mean, math.fsum((d * d).tolist())


def _sum_sq(values: np.ndarray, centre: float) -> float:
    """Sum of (x_i - centre)^2, by numpy's dot product."""
    d = values - centre
    return float(np.dot(d, d))


def _snapshot_row(values: np.ndarray, step: int, x0: float, mean: float, phibar: float) -> tuple:
    """A ``PotentialSnapshot``'s fields, given the initial average x0, mean and phi_bar."""
    return step, _sum_sq(values, x0), phibar, 2.0 * len(values) * phibar, mean, mean - x0


def _decomposition_step(xi, xj, a, c, mean, tracked, inv_n):
    """Advance (phi_bar, S', S*, S^-) over one exchange xi, xj -> (xi+xj+a)/2, (xi+xj+c)/2.

    The effective received offsets a and c are the channel noise plus the
    rounding offset; phi_bar follows the exact one-step change formula about
    the running mean.  ``pair_chunk`` in ``_kernel.c`` is its C twin.
    """
    phibar, sp, ss, sm = tracked
    d = xi - xj
    dsq = d * d
    nsum = a + c
    z = (xi + xj) * 0.5 - mean
    quarter = (a * a + c * c) * 0.25
    sp += quarter
    ss += nsum * z
    if phibar > 0.0:
        dl = dsq / (phibar + phibar)
        sm += dl if dl < 1.0 else 1.0
    else:
        sm += inv_n
    phibar += -dsq * 0.5 + quarter - nsum * nsum * (0.25 * inv_n) + nsum * z
    return phibar, sp, ss, sm


def _as_list(buffer):
    """A kernel buffer's entries as Python scalars; a list passes as it is."""
    return buffer.tolist() if isinstance(buffer, np.ndarray) else buffer


def _pairs_reference(values, pairs, noise, coins, flags, decomp, state, offsets) -> None:
    """Python form of ``pair_chunk`` in ``_kernel.c``: the tests' oracle,
    ``replay_event``'s loop, and the engines' loop where the kernel is
    unavailable.  ``pairs``, ``noise``, ``coins`` and ``state`` may be
    arrays or lists of Python scalars."""
    mean, *tracked = _as_list(state)
    inv_n = 1.0 / len(values)
    pairs = _as_list(pairs)
    noise = _as_list(noise)
    coins = _as_list(coins) if coins is not None else [0.0] * len(pairs)
    for k in range(0, len(pairs), 2):
        i, j = pairs[k], pairs[k + 1]
        if i == j:
            continue
        xi, xj = values.item(i), values.item(j)
        vi, ri = _receive(xi, xj + noise[k + 1], coins[k], flags)
        vj, rj = _receive(xj, xi + noise[k], coins[k + 1], flags)
        if decomp:
            tracked = _decomposition_step(xi, xj, vi + vi - xi - xj, vj + vj - xi - xj, mean,
                                          tracked, inv_n)
        mean += (vi - xi + vj - xj) * inv_n
        values[i] = vi
        values[j] = vj
        if offsets is not None:
            offsets[k] = ri
            offsets[k + 1] = rj
    state[:] = (mean, *tracked)


def _buffers(size: int) -> tuple[np.ndarray, ...]:
    """The agents, noise, coins, offsets and (discrete noise only) folds
    buffers of a chunk of up to ``size`` agents."""
    return (np.zeros(size, np.int64), np.zeros(size), np.zeros(size), np.zeros(size, np.int8),
            np.zeros(size))


def _draw_and_apply(values: np.ndarray, count: int, matching: bool, model: NoiseModel,
                    rng: np.random.Generator, flags, decomp: bool, state: np.ndarray,
                    buffers, collect: bool, noise_params: tuple[int, float]) -> list:
    """Draw ``count`` agents into ``buffers`` (uniform picks with replacement
    or, ``matching``, a permutation of all n), then the noise, then the coins
    of the exchanges (agents[2k], agents[2k+1]), and apply them to ``values``
    in order.  An odd last agent self-pairs.  ``state`` is the float64 array
    [mean, phi_bar, S', S*, S^-], updated in place (the last four only when
    ``decomp``).  With ``collect``, returns each pair's Interaction.
    ``noise_params`` is ``_noise_params(model)``, which callers compute once.

    The kernel's draws, on ``rng.bit_generator.capsule`` with numpy's C
    samplers, are the numpy calls' values, leaving the same generator state.
    The kernel checks each buffer and index, the Python branch ``state``,
    before either changes a value."""
    n = len(values)
    m = count - count % 2
    agents, noise, coins, offsets, folds = buffers
    coins = coins if flags[0] else None
    offsets = offsets if collect else None
    if _kernel is not None:
        code, param = noise_params
        _kernel.draw(rng.bit_generator.capsule, matching, n, count, code, param, agents, noise,
                     coins)
        if code == _UNIFORMS:
            _kernel.discrete_map(noise, folds, m, param)
        _kernel.pair_chunk(values, agents, noise, coins, m, flags, decomp, state, offsets)
    else:
        agents[:count] = rng.permutation(n) if matching else rng.integers(0, n, size=count)
        noise[:m] = sample_batch(model, rng, m)
        if coins is not None:
            coins[:m] = rng.random(m)
        if not (isinstance(state, np.ndarray) and state.dtype == np.float64
                and state.shape == (5,) and state.flags.writeable and state.flags.c_contiguous):
            raise ValueError(f"state must be a writable float64 array of 5 trackers, got {state!r}")
        _pairs_reference(values, agents[:m], noise[:m], None if coins is None else coins[:m],
                         flags, decomp, state, offsets)
    if not collect:
        return []
    p, z, r = agents[:count].tolist(), noise[:m].tolist(), offsets[:m].tolist()
    if m < count:
        p.append(p[-1])
    return [Interaction(p[k], p[k], 0.0, 0.0, 0, 0) if p[k] == p[k + 1]
            else Interaction(p[k], p[k + 1], z[k], z[k + 1], r[k], r[k + 1])
            for k in range(0, len(p), 2)]


class _Engine:
    """What both engines share: the values, the trackers in ``state``, the
    exact recomputation that checks and resyncs them, the windows that open
    and close them, the buffers each chunk's draws fill, the chunk loop and
    a run's boundary loop.  ``state``
    is [mean, phi_bar, S', S*, S^-] in ``pair_chunk``'s layout; the trackers
    are live only while a decomposition window is open (``_decomp``), the one
    reader of the mean tracker, and hold no meaning outside one.  A subclass
    holds only data: its ``_unit``, whether a step draws a ``_matching``,
    and its ``_schedule``."""

    _unit = "step"
    _matching = False

    def __init__(self, pop: Population, model: NoiseModel, rule: UpdateRule,
                 rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.flags = _rule_flags(rule)
        self._noise = _noise_params(model)
        self.values = np.array(pop.values, dtype=np.float64)
        self.n = len(self.values)
        self.initial_average = pop.initial_average
        self.state = np.zeros(5)
        self.step = pop.step_count
        self._decomp = False
        self._resync_every, self._chunk, self._per_step = self._schedule(self.n)
        self._buffers = _buffers(min(self._chunk, self._resync_every) * self._per_step)
        self._since_resync = 0

    def _resync(self, check: bool,
                exact: Optional[tuple[float, float]] = None) -> Optional[tuple[float, float]]:
        """End a resync interval.  While ``_decomp``, write the exact mean and
        potential into ``state``; no other code writes exact values there, and
        outside a window no output reads the trackers, so nothing is summed
        for them.  ``exact``, the (mean, potential) of the current values, is
        taken instead of computing them.  With ``check`` both are computed and
        returned, and while ``_decomp`` a tracker off its exact value by more
        than DRIFT_TOL raises NumericalDriftError first."""
        self._since_resync = 0
        if not (check or self._decomp):
            return None
        mean, phibar = exact or _exact(self.values)
        if self._decomp:
            if check:  # ``item`` is the cheapest read of one tracker as a Python float
                tracked = self.state.item(0)
                if abs(tracked - mean) > DRIFT_TOL * (1.0 + abs(mean)):
                    self._drifted(0, tracked, mean)
                tracked = self.state.item(1)
                if abs(tracked - phibar) > DRIFT_TOL * (1.0 + abs(phibar)):
                    self._drifted(1, tracked, phibar)
            self.state[0] = mean  # item by item: a slice assignment costs 4 times as much
            self.state[1] = phibar
        return mean, phibar

    def _drifted(self, tracker: int, tracked: float, exact: float) -> None:
        name = ("running-mean", "potential")[tracker]
        raise NumericalDriftError(f"{name} tracker drifted: {tracked} vs {exact} "
                                  f"at {self._unit} {self.step}")

    def refresh(self) -> tuple[float, float]:
        """Recompute the exact mean and potential and return them; while a
        window is open, verify and resync the trackers."""
        return self._resync(True)

    def begin_decomposition(self, exact: Optional[tuple[float, float]] = None) -> None:
        """Open a window: zero the sums and track phi_bar.  ``exact`` is the
        (mean, potential) of the current values, as ``refresh`` just returned
        them; without it they are computed."""
        self.state[2:] = 0.0
        self._decomp = True
        self._resync(False, exact)

    def end_decomposition(self) -> tuple[float, float, float]:
        self._decomp = False
        return tuple(self.state[2:].tolist())

    def advance(self, steps: int, record_every: Optional[int] = None, windows=(),
                ahead: bool = False) -> tuple[list, list]:
        """Run ``steps`` steps as a run's boundary loop and return what
        ``_record`` returns, in one call of the kernel's ``run`` where there
        is a kernel, which leaves everything as ``_record`` leaves it.
        ``record_every`` defaults to ``steps`` (to 1 at 0 steps).  With
        ``ahead`` (``harness.draws_ahead`` decides), and no window, a second
        thread draws the chunks while this one applies them, holding the
        generator's lock; where another thread holds it, or there is a
        window, the run draws its chunks itself.  Either way gives the same
        bits."""
        if record_every is None:
            record_every = steps or 1
        if _kernel is None:
            return self._record(steps, record_every, windows)
        lock = self.rng.bit_generator.lock
        ahead = ahead and lock.acquire(blocking=False)
        try:
            rows, closed, self._decomp, drift = _kernel.run(
                self.rng.bit_generator.capsule, self.values, self.state, self._buffers,
                np.empty(self.n), self.flags, self._noise,
                (self._matching, self._resync_every, self._chunk, self._per_step),
                self._decomp, self.initial_average, steps, record_every,
                np.array(windows, np.int64).reshape(-1), DRIFT_TOL, _exact, ahead)
        finally:
            if ahead:
                lock.release()
        self._since_resync = 0  # the call ends on a record step, which resyncs
        if drift is not None:  # (tracker, tracked, exact, step)
            self.step += drift[3]
            self._drifted(*drift[:3])
        self.step += steps
        return rows, closed

    def _advance(self, steps: int) -> None:
        """Run ``steps`` steps in chunks of at most ``_chunk``, none past a
        resync.  A due resync runs before the next chunk rather than after the
        last one, so a ``refresh`` between the two (which resyncs too) replaces
        it and still checks the trackers."""
        if steps <= 0:
            return
        done = 0
        while done < steps:
            if self._since_resync >= self._resync_every:
                self._resync(False)
            b = min(self._chunk, steps - done, self._resync_every - self._since_resync)
            _draw_and_apply(self.values, b * self._per_step, self._matching, self.model,
                            self.rng, self.flags, self._decomp, self.state, self._buffers,
                            False, self._noise)
            done += b
            self._since_resync += b
        self.step += steps

    def _record(self, steps: int, record_every: int, windows) -> tuple[list, list]:
        """The kernel's ``run`` in Python, and its oracle: at step 0, every
        ``record_every`` steps, at ``steps`` and at each end of the sorted,
        apart ``windows`` (t0, t1), counted from the current step, advance,
        refresh, close a window that ends there, append the snapshot row and
        open a window that starts there.  Returns the rows and each closed
        window's (t0, t1, phi_bar(t0), phi_bar(t1), S', S*, S^-)."""
        ends = dict(windows)  # t0 -> t1
        start, rows, closed, opened = self.step, [], [], None  # opened: (t0, phi_bar(t0))
        for b in sorted({*range(0, steps + 1, record_every), steps, *ends, *ends.values()}):
            self._advance(start + b - self.step)
            mean, phibar = self.refresh()
            if opened and b == ends[opened[0]]:
                closed.append((opened[0], b, opened[1], phibar, *self.end_decomposition()))
                opened = None
            rows.append(_snapshot_row(self.values, b, self.initial_average, mean, phibar))
            if b in ends:
                self.begin_decomposition((mean, phibar))
                opened = b, phibar
        return rows, closed


class SequentialEngine(_Engine):
    """Drives one sequential run: one pair per step.  A resync falls due every
    ``max(n, 1024)`` steps and ends a chunk there.  While a decomposition
    window is open, the mean tracker follows the value deltas, phi_bar the
    exact one-step change formula about it, and the resync overwrites both
    with their exact values."""

    @staticmethod
    def _schedule(n: int) -> tuple[int, int, int]:
        """The resync interval, the longest chunk in steps, and the agents per step."""
        return max(n, 1024), CHUNK, 2


class SynchronousEngine(_Engine):
    """Drives one synchronous run; a step is a round, a random perfect matching
    of all n agents, and a chunk.  A resync falls due every ``4096 // n``
    rounds (every round from n = 2049 on); with no window to track, it sums
    nothing."""

    _unit = "round"
    _matching = True

    @staticmethod
    def _schedule(n: int) -> tuple[int, int, int]:
        return max(1, 4096 // n), 1, n
