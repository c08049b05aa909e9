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
from dataclasses import dataclass, field
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


@dataclass
class StepEvent:
    """All interactions of one step: a single pair (sequential) or a matching."""

    interactions: list[Interaction] = field(default_factory=list)


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
                                      False, np.zeros(5), _buffers(count), True))
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

#: The compiled draws, pair loop and exact sums (``_kernel.c``), or None
#: where they could not be built; the engines then draw with numpy, run
#: ``_pairs_reference`` and ``_exact`` its ``math.fsum`` body.
_kernel = _native.load()

#: The kernel's noise draws (``NOISE_*`` in ``_kernel.c``): none, normal(0,
#: scale) per value, or uniforms that ``sample_batch`` maps to the discrete model.
_ZERO, _GAUSSIAN, _UNIFORMS = range(3)


def _exact(values: np.ndarray, with_phibar: bool = True) -> tuple[float, Optional[float]]:
    """Mean and (if asked) potential about it, each from one correctly rounded sum.

    The squares are rounded one by one, as ``(x - m) * (x - m)`` would be.
    The kernel's ``exact_moments`` (a superaccumulator) gives ``math.fsum``'s
    sums bit for bit, a correctly rounded sum being unique.  The fsum body,
    the tests' oracle, runs without a kernel and where it declines (None):
    only where fsum could raise, on a value or square that is not finite or
    whose biased exponent plus the bit length of n plus 2 exceeds 2046.
    """
    if _kernel is not None:
        out = _kernel.exact_moments(values, with_phibar)
        if out is not None:
            return out
    mean = math.fsum(values.tolist()) / len(values)
    if not with_phibar:
        return mean, None
    d = values - mean
    return mean, math.fsum((d * d).tolist())


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


def _buffers(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The agents, noise, coins and offsets buffers of a chunk of up to ``size`` agents."""
    return np.zeros(size, np.int64), np.zeros(size), np.zeros(size), np.zeros(size, np.int8)


def _draw_and_apply(values: np.ndarray, count: int, matching: bool, model: NoiseModel,
                    rng: np.random.Generator, flags, decomp: bool, state: np.ndarray,
                    buffers, collect: bool) -> list:
    """Draw ``count`` agents into ``buffers`` (uniform picks with replacement
    or, ``matching``, a permutation of all n), then the noise, then the coins
    of the exchanges (agents[2k], agents[2k+1]), and apply them to ``values``
    in order.  An odd last agent self-pairs.  ``state`` is the float64 array
    [mean, phi_bar, S', S*, S^-], updated in place (the last four only when
    ``decomp``).  With ``collect``, returns each pair's Interaction.

    The kernel's draws, on ``rng.bit_generator.capsule`` with numpy's C
    samplers, are the numpy calls' values, leaving the same generator state.
    The kernel checks each buffer and index, the Python branch ``state``,
    before either changes a value."""
    n = len(values)
    m = count - count % 2
    agents, noise, coins, offsets = buffers
    coins = coins if flags[0] else None
    offsets = offsets if collect else None
    if _kernel is not None:
        code = (_GAUSSIAN if isinstance(model, Gaussian) else
                _ZERO if isinstance(model, Zero) else _UNIFORMS)
        scale = math.sqrt(model.sigma2) if code == _GAUSSIAN else 0.0
        _kernel.draw(rng.bit_generator.capsule, matching, n, count, code, scale, agents, noise,
                     coins)
        if code == _UNIFORMS:
            sample_batch(model, rng, m, noise[:m])
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
    exact recomputation that checks and resyncs them, and the buffers each
    chunk's draws fill.  ``state`` is [mean, phi_bar, S', S*, S^-] in
    ``pair_chunk``'s layout; phi_bar and the sums are live only while a
    decomposition window is open (``_decomp``)."""

    _unit = "step"

    def __init__(self, pop: Population, model: NoiseModel, rule: UpdateRule,
                 rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.flags = _rule_flags(rule)
        self.values = np.array(pop.values, dtype=np.float64)
        self.n = len(self.values)
        self.state = np.zeros(5)
        self.state[0] = _exact(self.values, False)[0]
        self.step = pop.step_count
        self._decomp = False
        self._since_resync = 0
        self._resync_every, size = self._schedule(self.n)
        self._buffers = _buffers(size)

    def _resync(self, check: bool) -> tuple[float, Optional[float]]:
        """Write the exact mean, and while ``_decomp`` the exact potential, into
        ``state``.  With ``check`` the potential is always computed, and a live
        tracker off its exact value by more than DRIFT_TOL raises
        NumericalDriftError first."""
        mean, phibar = _exact(self.values, check or self._decomp)
        live = (mean, phibar) if self._decomp else (mean,)
        if check:
            for name, tracked, exact in zip(("running-mean", "potential"), self.state.tolist(),
                                            live):
                if abs(tracked - exact) > DRIFT_TOL * (1.0 + abs(exact)):
                    raise NumericalDriftError(f"{name} tracker drifted: {tracked} vs {exact} "
                                              f"at {self._unit} {self.step}")
        self.state[0] = mean  # item by item: a slice assignment costs 4 times as much
        if self._decomp:
            self.state[1] = phibar
        self._since_resync = 0
        return mean, phibar

    def refresh(self) -> tuple[float, float]:
        """Recompute mean and potential; verify and resync the trackers."""
        return self._resync(True)


class SequentialEngine(_Engine):
    """Drives one sequential run.  The mean tracker follows the value deltas
    and is resynced every ``_resync_every`` steps; while a decomposition window
    is open, phi_bar follows the exact one-step change formula about it."""

    @staticmethod
    def _schedule(n: int) -> tuple[int, int]:
        """The resync interval and the agents drawn by the longest chunk."""
        return max(n, 1024), 2 * min(CHUNK, max(n, 1024))

    # -- tracking control ---------------------------------------------------

    def begin_decomposition(self) -> None:
        self.state[1:] = (_exact(self.values, True)[1], 0.0, 0.0, 0.0)
        self._decomp = True

    def end_decomposition(self) -> tuple[float, float, float]:
        self._decomp = False
        return tuple(self.state[2:].tolist())

    # -- main loop -----------------------------------------------------------

    def advance(self, steps: int, collect: Optional[list] = None) -> None:
        if steps <= 0:
            return
        done = 0
        while done < steps:
            b = min(CHUNK, steps - done, self._resync_every - self._since_resync)
            interactions = _draw_and_apply(self.values, 2 * b, False, self.model, self.rng,
                                           self.flags, self._decomp, self.state, self._buffers,
                                           collect is not None)
            if collect is not None:
                collect.extend(StepEvent([it]) for it in interactions)
            done += b
            self._since_resync += b
            if self._since_resync >= self._resync_every:
                self._resync(False)
        self.step += steps


class SynchronousEngine(_Engine):
    """Drives one synchronous run; ``advance`` counts rounds, not interactions.

    A due resync of the mean tracker runs before the next round rather than
    after the last one, so a ``refresh`` between the two (which resyncs too)
    replaces it.
    """

    _unit = "round"

    @staticmethod
    def _schedule(n: int) -> tuple[int, int]:
        return max(1, 4096 // max(n, 1)), n

    def advance(self, rounds: int, collect: Optional[list] = None) -> None:
        if rounds <= 0:
            return
        for _ in range(rounds):
            if self._since_resync >= self._resync_every:
                self._resync(False)
            interactions = _draw_and_apply(self.values, self.n, True, self.model, self.rng,
                                           self.flags, False, self.state, self._buffers,
                                           collect is not None)
            if collect is not None:
                collect.append(StepEvent(interactions))
            self._since_resync += 1
        self.step += rounds
