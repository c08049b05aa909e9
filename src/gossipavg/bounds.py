"""Closed-form tail and convergence bounds for the averaging dynamic.

Every formula here is a deterministic function of plain numbers: the
interval length t, the failure budget delta, the noise moments, and the
max-quantiles from :mod:`gossipavg.noise`; nothing depends on a realized
run.  Each interval bound is a 1 - delta statement that splits delta across
its quantiles, mirroring the S' / S* decomposition:

* ``b_prime(t, delta, m_prime, mom)`` -- bound on S' over an interval of t
  steps; ``m_prime`` is the N' quantile at delta/2;
* ``z_value(n, t, delta, phi0, mom, m_prime, m_combined)`` -- auxiliary cap
  on the potential; both quantiles at delta/4;
* ``b_star(n, t, delta, mom, m_star, z)`` -- bound on S*, with the N*
  quantile at delta/4 and ``z`` from ``z_value`` at the same delta.

``evaluate_all`` computes each quantile once per budget and returns one flat
dict for the CLI.
"""

from __future__ import annotations

import math
import warnings

from .errors import ParameterError, QuantileRangeError, UndefinedPredictionError
from .noise import NoiseModel, NoiseMoments, is_smooth_at, m_quantile, moments

DEFAULT_TIME_CONSTANT = 30.0


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")


def b_prime(t: int, delta: float, m_prime: float, mom: NoiseMoments) -> float:
    """Bound exceeded by S' with probability at most delta (``m_prime`` at delta/2)."""
    _check_delta(delta)
    log_term = math.log(2.0 / delta)
    return (
        t * mom.e_nprime / 4.0
        + 2.0 * log_term * m_prime / 3.0
        + math.sqrt(log_term * mom.var_nprime * t / 8.0)
    )


def z_value(n: int, t: int, delta: float, phi0: float, mom: NoiseMoments,
            m_prime: float, m_combined: float) -> float:
    """Auxiliary cap on the potential within the interval (both quantiles at delta/4).

    z = phi0 + 2 ln(2t/d) t E[(N*)^2] / n + (2/3 ln(2t/d) m)^2 + b'_{d/4} + 1,
    where b'_{d/4}, the S' bound with m' at d/4, is ``b_prime(t, d / 2, m_prime, mom)``.
    """
    _check_delta(delta)
    log_t = math.log(2.0 * t / delta)
    try:
        m_term = (2.0 * log_t * m_combined / 3.0) ** 2
    except OverflowError:
        raise QuantileRangeError(
            f"variance {mom.variance!r} is too large: the squared quantile term "
            f"of z at t = {t} passes the float range") from None
    return (
        phi0
        + 2.0 * log_t * t * mom.e_nstar_sq / n
        + m_term
        + b_prime(t, delta / 2.0, m_prime, mom)
        + 1.0
    )


def b_star(n: int, t: int, delta: float, mom: NoiseMoments, m_star: float, z: float) -> float:
    """Bound exceeded by S* with probability at most delta (``m_star`` at delta/4,
    ``z`` from ``z_value`` at the same delta)."""
    _check_delta(delta)
    log_t = math.log(2.0 * t / delta)
    return (
        2.0 * log_t * m_star / 3.0
        + math.sqrt(2.0 * log_t * t * mom.e_nstar_sq / n)
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
    _check_delta(delta)
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
    _check_delta(delta)
    if t < 0:
        raise ParameterError(f"t must be nonnegative, got {t}")
    log_term = math.log(1.0 / delta)
    upper = sigma * math.sqrt(t * log_term) / n
    lower_prob = delta / (2.0 * math.sqrt(2.0 * log_term))
    return upper, lower_prob


def drift_bound_general(t: int, sigma: float, m: float) -> float:
    """Drift magnitude bound m sigma sqrt(2 t) for general noise.

    ``m`` must be the combined max-quantile at budget delta/(2t), which
    carries the failure budget delta.
    """
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

    Each N' and N* envelope is bisected once per budget: at delta/2, where
    they are reported and feed ``b_prime``, and at delta/4, where they feed
    ``z_value`` and ``b_star``.  The moments, the standing assumption and z
    are each computed once.
    """
    _check_delta(delta)
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    if not 0.0 <= phi0 < math.inf:
        raise ParameterError(f"phi0 must be finite and nonnegative, got {phi0}")
    mom = moments(model)
    m_prime, m_star = (m_quantile(model, t, delta / 2, kind) for kind in ("prime", "star"))
    q_prime, q_star = (m_quantile(model, t, delta / 4, kind) for kind in ("prime", "star"))
    assumption_ok = standing_assumption_ok(n, mom)
    if not assumption_ok:
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
        "m_prime": m_prime,
        "m_star": m_star,
        "m_combined": max(m_prime, m_star),
        "smooth": is_smooth_at(model, t, delta),
        "b_prime": b_prime(t, delta, m_prime, mom),
        "z": (z := z_value(n, t, delta, phi0, mom, q_prime, max(q_prime, q_star))),
        "b_star": b_star(n, t, delta, mom, q_star, z),
        "standing_assumption_ok": assumption_ok,
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
            t, sigma, m_quantile(model, t, delta / (2.0 * t), "combined")
        )
    except ParameterError:
        # discrete pmfs are truncated at tail mass 1e-12; a delta/(2t) budget
        # below that cannot be resolved
        out["drift_general"] = None
    if gamma is not None:
        out["s_minus_tail"] = s_minus_tail(gamma, t, n)
    return out
