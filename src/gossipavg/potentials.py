"""Potential functions, the exact one-step change, and the interval decomposition.

Three potentials measure convergence of a population ``x`` with running
average ``m`` and frozen initial average ``m0``:

* ``tss``      -- sum of (x_i - m0)^2, distance to the initial average
* ``phi_bar``  -- sum of (x_i - m)^2, distance to the running average
* ``phi``      -- sum over ordered pairs of (x_i - x_j)^2 = 2 n phi_bar

Over an interval of sequential steps the change of ``phi_bar`` decomposes
into a contraction part S^- (sum of per-step contraction fractions), a
noise-energy part S' (sum of N'/4) and a cross part S* (sum of
N* ((x_i+x_j)/2 - mean)).  ``check_decomposition_bound`` evaluates the
resulting closed-form bound on the end-of-interval potential.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import Population, StepEvent, _decomposition_step, _snapshot_row, _sum_sq
from .errors import ModelMismatchError, ParameterError


class PotentialSnapshot(NamedTuple):
    """Potentials and averages of one recorded step; its fields are the
    trace CSV's columns, in order, before ``parallel_time``."""

    step: int
    tss: float
    phi_bar: float
    phi: float
    running_avg: float
    drift: float


class DecompositionAccumulator(NamedTuple):
    """Running S', S*, S^- sums over the interval (t0, t1]; its fields are
    the decomposition CSV's columns, in order, before ``bound_holds``."""

    t0: int
    t1: int
    s_prime: float = 0.0
    s_star: float = 0.0
    s_minus: float = 0.0

    @property
    def length(self) -> int:
        return self.t1 - self.t0


def tss(pop: Population) -> float:
    """Total sum of squares about the frozen initial average."""
    return _sum_sq(pop.values, pop.initial_average)


def phi_bar(pop: Population) -> float:
    """Sum of squared distances to the current running average."""
    return _sum_sq(pop.values, np.mean(pop.values))


def phi(pop: Population) -> float:
    """Pairwise potential, computed through the 2 n phi_bar identity."""
    return 2.0 * pop.n * phi_bar(pop)


def snapshot(pop: Population) -> PotentialSnapshot:
    """Record all potentials of the population at its current step."""
    return PotentialSnapshot._make(_snapshot_row(pop.values, pop.step_count,
                                                 pop.initial_average, pop.running_average(),
                                                 phi_bar(pop)))


def one_step_delta(x_i: float, x_j: float, n_i: float, n_j: float, mean: float, n: int) -> float:
    """Exact change of phi_bar caused by one realized exchange.

    ``mean`` must be the exact pre-step running average.  The formula is an
    algebraic identity for the update pair ((x_i+x_j+n_j)/2, (x_i+x_j+n_i)/2),
    so it also applies to rounding rules when the offsets are folded into
    the noises.  It is the phi_bar change the engines' tracker applies, bit
    for bit; numpy arrays of exchanges work too.
    """
    return _decomposition_step(x_i, x_j, n_j, n_i, mean, (0.0, 0.0, 0.0, 0.0), 1.0 / n)[0]


def delta_fraction(pop: Population, i: int, j: int) -> float:
    """Contraction fraction (x_i - x_j)^2 / (2 phi_bar) of one interaction.

    Falls back to 1/n for an exactly flat population; always in [0, 1].
    """
    return _decomposition_step(float(pop.values[i]), float(pop.values[j]), 0.0, 0.0, 0.0,
                               (phi_bar(pop), 0.0, 0.0, 0.0), 1.0 / pop.n)[3]


def accumulate_decomposition(
    acc: DecompositionAccumulator, event: StepEvent, pre_step_pop: Population
) -> DecompositionAccumulator:
    """Fold one sequential step into the interval sums.

    Uses the event's effective noises (channel noise plus rounding offset),
    so it is exact for the real-valued and rounding rules; cutoff clamping
    is not representable in the event and is not accounted for.
    """
    if len(event.interactions) != 1:
        raise ModelMismatchError(
            "decomposition is defined for the sequential model; "
            f"got an event with {len(event.interactions)} interactions"
        )
    it = event.interactions[0]
    tracked = (phi_bar(pre_step_pop), acc.s_prime, acc.s_star, acc.s_minus)
    _, s_prime, s_star, s_minus = _decomposition_step(
        float(pre_step_pop.values[it.i]), float(pre_step_pop.values[it.j]),
        it.noise_j + it.round_i, it.noise_i + it.round_j,  # received by i and by j
        pre_step_pop.running_average(), tracked, 1.0 / pre_step_pop.n)
    return acc._replace(t1=acc.t1 + 1, s_prime=s_prime, s_star=s_star, s_minus=s_minus)


def check_decomposition_bound(
    acc: DecompositionAccumulator, phi_bar_t0: float, phi_bar_t1: float
) -> bool:
    """Whether the end-of-interval potential obeys the decomposition bound

        phi_bar(t1) <= (1 - S^-/t)^t phi_bar(t0) + S' + S* + eps

    with eps = 1e-6 (1 + phi_bar(t0)) absorbing floating-point accumulation.
    """
    t = acc.length
    if t <= 0:
        raise ParameterError(f"interval must have positive length, got t0={acc.t0} t1={acc.t1}")
    base = 1.0 - acc.s_minus / t
    if base < 0.0:
        base = 0.0
    bound = base**t * phi_bar_t0 + acc.s_prime + acc.s_star + 1e-6 * (1.0 + phi_bar_t0)
    return phi_bar_t1 <= bound
