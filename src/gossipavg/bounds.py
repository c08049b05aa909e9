"""Closed-form tail and convergence bounds for the averaging dynamic.

Every formula here is a deterministic function of the interval length t,
the failure budget delta, the noise moments, and the max-quantiles from
:mod:`gossipavg.noise`; nothing depends on a realized run.  The three
interval bounds mirror the S' / S* decomposition:

* ``b_prime``  -- high-probability bound on S' over an interval of t steps,
  evaluated with the N' quantile taken at delta/2;
* ``z_value`` / ``b_star`` -- auxiliary potential cap and the resulting
  bound on S*, both evaluated with quantiles taken at delta/4.

``evaluate_all`` wires the quantile budgets correctly and returns one flat
dict for the CLI.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ParameterError, UndefinedPredictionError
from .noise import NoiseModel, NoiseMoments, is_smooth_at, m_quantile, moments

DEFAULT_TIME_CONSTANT = 30.0


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the interval bounds.

    The quantiles must come from ``noise.m_quantile`` for the same t and
    the delta sub-budget the target formula expects: delta/2 for
    ``b_prime``, delta/4 for ``z_value``/``b_star`` (see ``bound_inputs``).
    """

    n: int
    t: int
    delta: float
    phi0: float
    moments: NoiseMoments
    m_prime: float
    m_star: float
    m_combined: float


def bound_inputs(
    model: NoiseModel, n: int, t: int, delta: float, phi0: float, quantile_divisor: int = 2
) -> BoundInputs:
    """Assemble BoundInputs with quantiles computed at delta/quantile_divisor."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    if not 0.0 <= phi0 < math.inf:
        raise ParameterError(f"phi0 must be finite and nonnegative, got {phi0}")
    sub = delta / quantile_divisor
    return BoundInputs(
        n=n,
        t=t,
        delta=delta,
        phi0=phi0,
        moments=moments(model),
        m_prime=m_quantile(model, t, sub, "prime"),
        m_star=m_quantile(model, t, sub, "star"),
        m_combined=m_quantile(model, t, sub, "combined"),
    )


def _b_prime_core(t: int, log_term: float, m_prime: float, mom: NoiseMoments) -> float:
    return (
        t * mom.e_nprime / 4.0
        + 2.0 * log_term * m_prime / 3.0
        + math.sqrt(log_term * mom.var_nprime * t / 8.0)
    )


def b_prime(inputs: BoundInputs) -> float:
    """Bound exceeded by S' with probability at most delta (m' at delta/2)."""
    if not 0.0 < inputs.delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {inputs.delta}")
    return _b_prime_core(inputs.t, math.log(2.0 / inputs.delta), inputs.m_prime, inputs.moments)


def z_value(inputs: BoundInputs) -> float:
    """Auxiliary cap on the potential within the interval (quantiles at delta/4).

    z = phi0 + 2 ln(2t/d) t E[(N*)^2] / n + (2/3 ln(2t/d) m)^2 + b'_{d/4} + 1
    """
    if not 0.0 < inputs.delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {inputs.delta}")
    log_t = math.log(2.0 * inputs.t / inputs.delta)
    return (
        inputs.phi0
        + 2.0 * log_t * inputs.t * inputs.moments.e_nstar_sq / inputs.n
        + (2.0 * log_t * inputs.m_combined / 3.0) ** 2
        + _b_prime_core(inputs.t, math.log(4.0 / inputs.delta), inputs.m_prime, inputs.moments)
        + 1.0
    )


def b_star(inputs: BoundInputs) -> float:
    """Bound exceeded by S* with probability at most delta (quantiles at delta/4)."""
    log_t = math.log(2.0 * inputs.t / inputs.delta)
    z = z_value(inputs)
    return (
        2.0 * log_t * inputs.m_star / 3.0
        + math.sqrt(2.0 * log_t * inputs.t * inputs.moments.e_nstar_sq / inputs.n)
    ) * math.sqrt(z)


def s_minus_tail(gamma: float, t: int, n: int) -> float:
    """Probability bound exp(-3 gamma^2 t / (8 n)) for S^- falling below (1-gamma) t/n."""
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")
    return math.exp(-3.0 * gamma * gamma * t / (8.0 * n))


def convergence_time(
    phi0: float, n: int, delta: float, mom: NoiseMoments, c: float = DEFAULT_TIME_CONSTANT
) -> float:
    """Predicted steps c n ln(phi0 / (E[N'] n delta)) to contract the potential.

    The leading constant is not pinned by the theory; the default 30 is an
    empirical desk calibration and is exposed as a parameter.  Returns 0
    when the potential already starts below the noise floor E[N'] n delta.
    """
    if not 0.0 < c < math.inf:
        raise ParameterError(f"c must be positive and finite, got {c}")
    if mom.e_nprime <= 0.0:
        raise UndefinedPredictionError("convergence time is undefined for a noiseless channel")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    floor = mom.e_nprime * n * delta
    if phi0 <= floor:
        return 0.0
    # log-space difference survives very large phi0
    return c * n * (math.log(phi0) - math.log(floor))


def drift_bound_gaussian(t: int, delta: float, sigma: float, n: int) -> tuple[float, float]:
    """(upper, lower_prob) for the running-average drift under Gaussian noise.

    With probability at least 1 - delta the drift magnitude stays below
    ``upper`` = sigma sqrt(t ln(1/delta)) / n, and it exceeds that same
    magnitude with probability at least ``lower_prob`` =
    delta / (2 sqrt(2 ln(1/delta))) (meaningful for delta <= 1/e).
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if t < 0:
        raise ParameterError(f"t must be nonnegative, got {t}")
    log_term = math.log(1.0 / delta)
    upper = sigma * math.sqrt(t * log_term) / n
    lower_prob = delta / (2.0 * math.sqrt(2.0 * log_term))
    return upper, lower_prob


def drift_bound_general(t: int, delta: float, sigma: float, m: float) -> float:
    """Drift magnitude bound m sigma sqrt(2 t) for general noise.

    ``m`` must be the combined max-quantile at budget delta/(2t).  ``delta``
    is accepted for interface symmetry; the quantile already encodes it.
    """
    del delta
    return m * sigma * math.sqrt(2.0 * t)


def gaussian_tail(x: float) -> tuple[float, float]:
    """Sandwich (lower, upper) on the standard normal upper tail P[N > x]."""
    if x < 0.0:
        raise ParameterError(f"x must be nonnegative, got {x}")
    c = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    lower = c * x / (x * x + 1.0)
    upper = c / x if x > 0.0 else math.inf
    return lower, upper


def tss_identity(phi_bar: float, n: int, drift: float) -> float:
    """TSS reconstructed from phi_bar and the running-average drift."""
    return phi_bar + n * drift * drift


def standing_assumption_ok(n: int, mom: NoiseMoments) -> bool:
    """Whether n E[N^2] >= 1, the standing scale assumption of the bounds."""
    return n * mom.variance >= 1.0


def evaluate_all(
    model: NoiseModel,
    n: int,
    t: int,
    delta: float,
    phi0: float,
    gamma: float | None = None,
    c: float = DEFAULT_TIME_CONSTANT,
) -> dict:
    """Evaluate every bound for one parameter set; flat dict keyed by formula.

    Quantile budgets follow each formula's definition: ``b_prime`` uses
    delta/2 quantiles, ``z``/``b_star`` use delta/4 quantiles.
    """
    in_half = bound_inputs(model, n, t, delta, phi0, quantile_divisor=2)
    in_quarter = bound_inputs(model, n, t, delta, phi0, quantile_divisor=4)
    mom = moments(model)
    if not standing_assumption_ok(n, mom):
        warnings.warn(
            f"n E[N^2] = {n * mom.variance:.3g} < 1; the bounds assume unit noise scale",
            stacklevel=2,
        )
    sigma = math.sqrt(mom.variance)
    out = {
        "n": n,
        "t": t,
        "delta": delta,
        "phi0": phi0,
        "variance": mom.variance,
        "e_nprime": mom.e_nprime,
        "e_nstar_sq": mom.e_nstar_sq,
        "var_nprime": mom.var_nprime,
        "m_prime": in_half.m_prime,
        "m_star": in_half.m_star,
        "m_combined": in_half.m_combined,
        "smooth": is_smooth_at(model, t, delta),
        "b_prime": b_prime(in_half),
        "z": z_value(in_quarter),
        "b_star": b_star(in_quarter),
        "standing_assumption_ok": standing_assumption_ok(n, mom),
    }
    try:
        out["convergence_time"] = convergence_time(phi0, n, delta, mom, c)
    except UndefinedPredictionError:
        out["convergence_time"] = None
    upper, lower_prob = drift_bound_gaussian(t, delta, sigma, n)
    out["drift_upper"] = upper
    out["drift_lower_prob"] = lower_prob
    try:
        out["drift_general"] = drift_bound_general(
            t, delta, sigma, m_quantile(model, t, delta / (2.0 * t), "combined")
        )
    except ParameterError:
        # discrete pmfs are truncated at tail mass 1e-12; a delta/(2t) budget
        # below that cannot be resolved
        out["drift_general"] = None
    if gamma is not None:
        out["s_minus_tail"] = s_minus_tail(gamma, t, n)
    return out
