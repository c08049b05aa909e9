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

import ctypes
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from . import _native
from .errors import NumericalDriftError, ParameterError
from .noise import NoiseModel, sample_batch

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
# single-interaction arithmetic (the Python oracle: replay and reference loop)
# ---------------------------------------------------------------------------


def _apply_pair(xi, xj, ni, nj, ui, uj, flags):
    """New values and rounding offsets for one i != j exchange.

    ``ui``/``uj`` are the rounding coins (uniform in [0,1)); they are
    ignored unless the rule rounds and the sum is not exactly even.
    """
    do_round, do_clamp, vmin, vmax = flags
    wi = xj + nj
    wj = xi + ni
    if do_clamp:
        if wi > vmax:
            wi = vmax
        elif wi < vmin:
            wi = vmin
        if wj > vmax:
            wj = vmax
        elif wj < vmin:
            wj = vmin
    si = xi + wi
    sj = xj + wj
    ri = rj = 0
    if do_round:
        fi = si // 2.0
        if si != 2.0 * fi:
            if ui < 0.5:
                vi = fi + 1.0
                ri = 1
            else:
                vi = fi
                ri = -1
        else:
            vi = si * 0.5
        fj = sj // 2.0
        if sj != 2.0 * fj:
            if uj < 0.5:
                vj = fj + 1.0
                rj = 1
            else:
                vj = fj
                rj = -1
        else:
            vj = sj * 0.5
    else:
        vi = si * 0.5
        vj = sj * 0.5
    if do_clamp:
        if vi > vmax:
            vi = vmax
        elif vi < vmin:
            vi = vmin
        if vj > vmax:
            vj = vmax
        elif vj < vmin:
            vj = vmin
    return vi, vj, ri, rj


# ---------------------------------------------------------------------------
# one-step operations
# ---------------------------------------------------------------------------


def sequential_step(
    pop: Population, model: NoiseModel, rule: UpdateRule, rng: np.random.Generator
) -> StepEvent:
    """One uniformly random interaction (i, j drawn with replacement)."""
    # the step API keeps no trackers, so the tracker state passed is discarded
    events: list = []
    _sequential_chunk(pop.values, 1, model, rng, _rule_flags(rule), False, [0.0] * 5, events)
    pop.step_count += 1
    return events[0]


def synchronous_step(
    pop: Population, model: NoiseModel, rule: UpdateRule, rng: np.random.Generator
) -> StepEvent:
    """One synchronous round: a uniform random perfect matching, all pairs
    updating from the pre-round values.  For odd n the leftover agent
    self-pairs and keeps its value."""
    events: list = []
    _synchronous_round(pop.values, model, rng, _rule_flags(rule), [0.0] * 5, events)
    pop.step_count += 1
    return events[0]


def replay_event(pop: Population, event: StepEvent, rule: UpdateRule) -> None:
    """Re-apply a recorded event; bit-for-bit identical to the original step.

    A recorded offset of +1 replays as a coin below 1/2 (round up), any other
    as one above; ``_apply_pair`` reads a coin only where the rule rounds and
    the sum is not exactly even, where the step recorded a nonzero offset.
    """
    flags = _rule_flags(rule)
    pre = pop.values if len(event.interactions) == 1 else pop.values.copy()
    for it in event.interactions:
        if it.i == it.j:
            continue
        vi, vj, _, _ = _apply_pair(pre[it.i], pre[it.j], it.noise_i, it.noise_j,
                                   0.0 if it.round_i > 0 else 1.0,
                                   0.0 if it.round_j > 0 else 1.0, flags)
        pop.values[it.i] = vi
        pop.values[it.j] = vj
    pop.step_count += 1


# ---------------------------------------------------------------------------
# batched engines
# ---------------------------------------------------------------------------

#: The compiled pair loop and exact sums (``_kernel.c``), or None where they
#: could not be built; the engines then run ``_pairs_reference`` and ``_exact``
#: its ``math.fsum`` body.
_kernel = _native.load()

_F64, _I64, _I8 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.int8)
_MOMENTS = ctypes.c_double * 2


def _kernel_view(values: np.ndarray) -> Optional[ctypes.c_double]:
    """``values`` as the array argument of the kernel's ``exact_moments``, or
    None where there is no kernel or it cannot take the array (not a writable,
    C-contiguous, non-empty 1-d float64 array).  Making one costs about as
    much as the call, so each engine keeps one for its values."""
    if _kernel is None or values.ndim != 1 or values.dtype != _F64:
        return None
    try:
        return ctypes.c_double.from_buffer(values)
    except (TypeError, ValueError):
        return None


def _exact(values: np.ndarray, with_phibar: bool = True,
           view: Optional[ctypes.c_double] = None) -> tuple[float, Optional[float]]:
    """Mean and (if asked) potential about it, each from one correctly rounded sum.

    The squares are rounded one by one, as ``(x - m) * (x - m)`` would be.
    Given ``view = _kernel_view(values)``, the kernel's ``exact_moments``
    computes both sums in one call, bit for bit as ``math.fsum`` does.  The
    fsum body below, the tests' oracle, runs without a view or a kernel and
    where the kernel declines (a non-finite summand or partial, more partials
    than it keeps), so it returns or raises what ``math.fsum`` does.
    """
    if view is not None and _kernel is not None:
        out = _MOMENTS()
        if not _kernel.exact_moments(view, len(values), with_phibar, out):
            return out[0], (out[1] if with_phibar else None)
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


def _pairs_reference(values, pairs, noise, coins, flags, decomp, state, offsets):
    """Python form of ``pair_chunk`` in ``_kernel.c``: the tests' oracle, and
    the engines' loop where the kernel is unavailable."""
    mean, *tracked = state
    inv_n = 1.0 / len(values)
    pairs = pairs.tolist()
    noise = noise.tolist()
    coins = coins.tolist() if coins is not None else [0.0] * len(pairs)
    for k in range(0, len(pairs), 2):
        i, j = pairs[k], pairs[k + 1]
        if i == j:
            continue
        xi, xj = values.item(i), values.item(j)
        vi, vj, ri, rj = _apply_pair(xi, xj, noise[k], noise[k + 1], coins[k], coins[k + 1],
                                     flags)
        if decomp:
            tracked = _decomposition_step(xi, xj, vi + vi - xi - xj, vj + vj - xi - xj, mean,
                                          tracked, inv_n)
        mean += (vi - xi + vj - xj) * inv_n
        values[i] = vi
        values[j] = vj
        if offsets is not None:
            offsets[k] = ri
            offsets[k + 1] = rj
    return [mean, *tracked]


def _address(arr: Optional[np.ndarray], dtype: np.dtype) -> Optional[int]:
    """Address of a kernel buffer, or None for no buffer or an empty one
    (``from_buffer`` rejects read-only, non-contiguous and empty arrays, and
    is cheaper than ``arr.ctypes.data``)."""
    if arr is None or not arr.size:
        return None
    if arr.dtype != dtype:
        raise TypeError(f"kernel buffer must be a {dtype} array, got {arr.dtype}")
    return ctypes.addressof(ctypes.c_char.from_buffer(arr))


def _run_pairs(values: np.ndarray, pairs: np.ndarray, noise: np.ndarray,
               coins: Optional[np.ndarray], flags, decomp: bool, state: list,
               offsets: Optional[np.ndarray]) -> list:
    """Apply the exchanges (pairs[2k], pairs[2k+1]) to ``values`` in order.

    ``state`` is [mean, phi_bar, S', S*, S^-]; the updated list is returned
    (the last four move only when ``decomp``).  The rounding offsets go to
    ``offsets`` when given.  The indices must lie in [0, len(values)), as
    the engines' draws do.
    """
    if _kernel is None:
        return _pairs_reference(values, pairs, noise, coins, flags, decomp, state, offsets)
    do_round, do_clamp, vmin, vmax = flags
    if (do_round and coins is None) or any(
            a is not None and len(a) != len(pairs) for a in (noise, coins, offsets)):
        raise ValueError("kernel buffers must hold one entry per agent of each pair")
    st = np.array(state, dtype=np.float64)
    _kernel.pair_chunk(_address(values, _F64), len(values), _address(pairs, _I64),
                       _address(noise, _F64), _address(coins, _F64),
                       len(pairs) // 2, do_round, do_clamp, vmin, vmax, decomp,
                       _address(st, _F64), _address(offsets, _I8))
    return st.tolist()


def _interactions(pairs: np.ndarray, noise: np.ndarray, offsets: np.ndarray):
    """The Interaction of each pair of a chunk; a self-pair records no exchange."""
    p, z, r = pairs.tolist(), noise.tolist(), offsets.tolist()
    for k in range(0, len(p), 2):
        i, j = p[k], p[k + 1]
        if i == j:
            yield Interaction(i, i, 0.0, 0.0, 0, 0)
        else:
            yield Interaction(i, j, z[k], z[k + 1], r[k], r[k + 1])


def _sequential_chunk(values: np.ndarray, b: int, model: NoiseModel, rng: np.random.Generator,
                      flags, decomp: bool, state: list, collect: Optional[list]) -> list:
    """Draw ``b`` steps (pairs, then noise, then coins) and apply them; returns
    the updated ``state``.  With ``collect``, appends one StepEvent per step."""
    pairs = rng.integers(0, len(values), size=2 * b)
    noise = sample_batch(model, rng, 2 * b)
    coins = rng.random(2 * b) if flags[0] else None
    offsets = np.zeros(2 * b, np.int8) if collect is not None else None
    state = _run_pairs(values, pairs, noise, coins, flags, decomp, state, offsets)
    if collect is not None:
        collect.extend(StepEvent([it]) for it in _interactions(pairs, noise, offsets))
    return state


def _synchronous_round(values: np.ndarray, model: NoiseModel, rng: np.random.Generator,
                       flags, state: list, collect: Optional[list]) -> list:
    """Draw one round (a permutation, then noise, then coins) and apply it in
    place: the pairs are disjoint, so each reads the pre-round values.  Returns
    the updated ``state``.  With ``collect``, appends the round's StepEvent,
    ending in the leftover self-pair when n is odd."""
    n = len(values)
    npairs = n // 2
    perm = rng.permutation(n)
    noise = sample_batch(model, rng, 2 * npairs)
    coins = rng.random(2 * npairs) if flags[0] else None
    offsets = np.zeros(2 * npairs, np.int8) if collect is not None else None
    pairs = perm[: 2 * npairs]
    state = _run_pairs(values, pairs, noise, coins, flags, False, state, offsets)
    if collect is not None:
        interactions = list(_interactions(pairs, noise, offsets))
        if n % 2 == 1:
            k = int(perm[-1])
            interactions.append(Interaction(k, k, 0.0, 0.0, 0, 0))
        collect.append(StepEvent(interactions))
    return state


class _Engine:
    """What both engines share: the values, the running-mean tracker and the
    exact recomputation that checks it."""

    _unit = "step"

    def __init__(self, pop: Population, model: NoiseModel, rule: UpdateRule,
                 rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.flags = _rule_flags(rule)
        self.values = np.array(pop.values, dtype=np.float64)
        self._view = _kernel_view(self.values)
        self.n = len(self.values)
        self.mean = _exact(self.values, False, self._view)[0]
        self.step = pop.step_count
        self.phibar: Optional[float] = None
        self._since_resync = 0

    def refresh(self) -> tuple[float, float]:
        """Recompute mean and potential; verify and resync the trackers."""
        mean_full, phibar_full = _exact(self.values, True, self._view)
        for name, tracked, exact in (("running-mean", self.mean, mean_full),
                                     ("potential", self.phibar, phibar_full)):
            if tracked is not None and abs(tracked - exact) > DRIFT_TOL * (1.0 + abs(exact)):
                raise NumericalDriftError(
                    f"{name} tracker drifted: {tracked} vs {exact} at {self._unit} {self.step}"
                )
        self.mean = mean_full
        if self.phibar is not None:
            self.phibar = phibar_full
        self._since_resync = 0
        return mean_full, phibar_full


class SequentialEngine(_Engine):
    """Drives one sequential run with incremental mean/potential tracking.

    The running mean is maintained incrementally from the value deltas and
    periodically recomputed (``resync``); while a decomposition window is
    open the potential about the running mean is additionally tracked via
    the exact one-step change formula.  ``refresh`` recomputes both from
    scratch, raises ``NumericalDriftError`` if the trackers wandered, and
    adopts the exact values.
    """

    def __init__(self, pop: Population, model: NoiseModel, rule: UpdateRule,
                 rng: np.random.Generator):
        super().__init__(pop, model, rule, rng)
        self.s_prime = 0.0
        self.s_star = 0.0
        self.s_minus = 0.0
        self._decomp = False
        self._resync_every = max(self.n, 1024)

    # -- tracking control ---------------------------------------------------

    def begin_decomposition(self) -> None:
        self.phibar = _exact(self.values, True, self._view)[1]
        self.s_prime = 0.0
        self.s_star = 0.0
        self.s_minus = 0.0
        self._decomp = True

    def end_decomposition(self) -> tuple[float, float, float]:
        sums = (self.s_prime, self.s_star, self.s_minus)
        self._decomp = False
        self.phibar = None
        return sums

    # -- main loop -----------------------------------------------------------

    def advance(self, steps: int, collect: Optional[list] = None) -> None:
        if steps <= 0:
            return
        decomp = self._decomp
        state = [self.mean, self.phibar if decomp else 0.0,
                 self.s_prime, self.s_star, self.s_minus]
        done = 0
        while done < steps:
            b = min(CHUNK, steps - done, self._resync_every - self._since_resync)
            state = _sequential_chunk(self.values, b, self.model, self.rng, self.flags, decomp,
                                      state, collect)
            done += b
            self._since_resync += b
            if self._since_resync >= self._resync_every:
                state[0], phibar = _exact(self.values, decomp, self._view)
                if decomp:
                    state[1] = phibar
                self._since_resync = 0
        self.mean = state[0]
        if decomp:
            self.phibar, self.s_prime, self.s_star, self.s_minus = state[1:]
        self.step += steps


class SynchronousEngine(_Engine):
    """Drives one synchronous run; ``advance`` counts rounds, not interactions.

    A due resync of the mean tracker runs before the next round rather than
    after the last one, so a ``refresh`` between the two (which resyncs too)
    replaces it.
    """

    _unit = "round"

    def __init__(self, pop: Population, model: NoiseModel, rule: UpdateRule,
                 rng: np.random.Generator):
        super().__init__(pop, model, rule, rng)
        self._resync_every = max(1, 4096 // max(self.n, 1))

    def advance(self, rounds: int, collect: Optional[list] = None) -> None:
        if rounds <= 0:
            return
        state = [self.mean, 0.0, 0.0, 0.0, 0.0]
        for _ in range(rounds):
            if self._since_resync >= self._resync_every:
                state[0] = _exact(self.values, False, self._view)[0]
                self._since_resync = 0
            state = _synchronous_round(self.values, self.model, self.rng, self.flags, state,
                                       collect)
            self._since_resync += 1
        self.mean = state[0]
        self.step += rounds
