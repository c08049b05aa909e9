"""Channel-noise models: sampling, moments, max-quantiles, smoothness test.

Three zero-mean channel models are supported:

* ``Gaussian(sigma2)``   -- N ~ Normal(0, sigma2)
* ``DiscreteGeometric(p)`` -- integer noise with P{N=0} = p and
  P{N=i} = (p/2)(1-p)^|i| for i != 0
* ``Zero``               -- a noiseless channel

Two derived per-step variables drive the potential analysis: the squared
pair N' = N1^2 + N2^2 and the sum N* = N1 + N2 of the two independent
draws of one interaction.  ``m_quantile`` computes high-probability
envelopes for the running maximum of those variables over an interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ParameterError, QuantileRangeError

#: Discrete pmfs are truncated once the remaining tail mass drops below this.
TAIL_MASS = 1e-12

#: Absolute tolerance of the quantile bisection for continuous CDFs.
QUANTILE_TOL = 1e-9

#: Largest magnitude K to which a discrete pmf is tabulated: ``_nprime_pmf``
#: accumulates into a table of 2K^2 + 1 bins (about 0.15 GB at K = 3000), and
#: p = 0.01 needs K = 2750.
_MAX_MAGNITUDE = 3000


@dataclass(frozen=True)
class Gaussian:
    """Normal channel noise with variance ``sigma2``."""

    sigma2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma2 < math.inf:
            raise ParameterError(f"sigma2 must be positive and finite, got {self.sigma2}")


@dataclass(frozen=True)
class DiscreteGeometric:
    """Two-sided geometric integer noise with success parameter ``p`` in (0, 1]."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ParameterError(f"p must be in (0, 1], got {self.p}")


@dataclass(frozen=True)
class Zero:
    """Noiseless channel; every sample is exactly 0."""


NoiseModel = Union[Gaussian, DiscreteGeometric, Zero]


class NoiseMoments(NamedTuple):
    """Closed-form moments of a noise model and its derived step variables.

    ``variance`` is the model's nominal sigma^2; ``e_nprime`` = E[N'] and
    ``e_nstar_sq`` = E[(N*)^2] both equal 2 sigma^2; ``var_nprime`` = Var(N').
    """

    mean: float
    variance: float
    e_nprime: float
    e_nstar_sq: float
    var_nprime: float


def sample_batch(model: NoiseModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` independent samples from ``model``.

    The discrete model is sampled by inverse CDF from a single uniform per
    draw (sign from the uniform's half, magnitude from the folded
    remainder), so the stream consumption is one value per sample, whatever
    the batch size.  The engines' compiled kernel maps its own draws of
    those uniforms bit for bit as this does (``_kernel.discrete_map``);
    this is its oracle and the engines' draw without the kernel.
    """
    if isinstance(model, Zero):
        return np.zeros(size)
    if isinstance(model, Gaussian):
        return rng.normal(0.0, math.sqrt(model.sigma2), size=size)
    u = rng.random(size)
    if model.p >= 1.0:
        u.fill(0.0)
        return u
    # floor(log1p(-|2u - 1|) / log1p(-p)), signed by u - 0.5, worked in one
    # buffer: the same ufuncs in the same order as out-of-place, so the same
    # values, without a temporary per operation
    mag = np.multiply(u, 2.0)
    mag -= 1.0
    np.abs(mag, out=mag)
    np.negative(mag, out=mag)
    with np.errstate(divide="ignore"):
        np.log1p(mag, out=mag)
    mag /= math.log1p(-model.p)
    np.floor(mag, out=mag)
    # u == 0.0 folds to exactly 1.0 (probability 2^-53); keep the draw finite
    mag[~np.isfinite(mag)] = 0.0
    # u - 0.5 is negative exactly when u < 0.5, so a zero magnitude takes
    # the sign -0.0 there, as the product with a -1.0 sign would give
    u -= 0.5
    return np.copysign(mag, u, out=u)


def _magnitude_pmf(p: float) -> np.ndarray:
    """pmf of |N| for the discrete model over 0..K, truncated at TAIL_MASS.

    P{|N|=0} = p and P{|N|=k} = p(1-p)^k for k >= 1; the tail beyond K
    has mass (1-p)^(K+1).
    """
    if p >= 1.0:
        return np.array([1.0])
    q = 1.0 - p
    # below p of about 1.1e-16, q rounds to 1.0 and no K reaches the tail mass
    k_max = max(1, math.ceil(math.log(TAIL_MASS) / math.log(q))) if q < 1.0 else math.inf
    if k_max > _MAX_MAGNITUDE:
        raise QuantileRangeError(f"discrete p = {p!r} is too small: its pmf needs more than "
                                 f"the limit of {_MAX_MAGNITUDE} magnitudes to reach tail mass "
                                 f"{TAIL_MASS}")
    k = np.arange(k_max + 1)
    return p * q**k


@lru_cache(maxsize=32)
def _signed_support_pmf(p: float) -> tuple[np.ndarray, np.ndarray]:
    """(support, pmf) of N itself on -K..K for the discrete model."""
    mag = _magnitude_pmf(p)
    k_max = len(mag) - 1
    support = np.arange(-k_max, k_max + 1)
    pmf = np.concatenate([mag[:0:-1] / 2.0, [mag[0]], mag[1:] / 2.0])
    return support, pmf


@lru_cache(maxsize=32)
def _nstar_pmf(p: float) -> tuple[np.ndarray, np.ndarray]:
    """(support, pmf) of N* = N1 + N2 via discrete self-convolution."""
    support, pmf = _signed_support_pmf(p)
    conv = np.convolve(pmf, pmf)
    k_max = int(support[-1])
    return np.arange(-2 * k_max, 2 * k_max + 1), conv


@lru_cache(maxsize=32)
def _nprime_pmf(p: float) -> tuple[np.ndarray, np.ndarray]:
    """(support, pmf) of N' = N1^2 + N2^2 over its integer support."""
    mag = _magnitude_pmf(p)
    sq = np.arange(len(mag)) ** 2
    # row k adds P{|N1| = k} P{|N2| = l} to bin k^2 + l^2, one term per bin,
    # so each bin sums its terms in (k, l) order
    acc = np.zeros(2 * int(sq[-1]) + 1)
    for k, mk in enumerate(mag.tolist()):
        acc[sq[k] + sq] += mk * mag
    support = np.flatnonzero(acc)
    return support, acc[support]


def moments(model: NoiseModel) -> NoiseMoments:
    """Closed-form moments for ``model``.

    For the discrete model the nominal variance uses the (1-p)/p^2 closed
    form, while Var(N') is evaluated numerically from the truncated pmf of
    N^2 so that it matches the sampler exactly.
    """
    if isinstance(model, Zero):
        return NoiseMoments(0.0, 0.0, 0.0, 0.0, 0.0)
    if isinstance(model, Gaussian):
        s2 = model.sigma2
        # Var(X^2) = 2 sigma^4 for each of the two independent squares
        return NoiseMoments(0.0, s2, 2.0 * s2, 2.0 * s2, 4.0 * s2 * s2)
    p = model.p
    mag = _magnitude_pmf(p)  # refuses a p too small first; below about 1e-162 p * p is 0
    variance = (1.0 - p) / (p * p)
    k = np.arange(len(mag), dtype=float)
    e2 = float(np.sum(k**2 * mag))
    e4 = float(np.sum(k**4 * mag))
    var_nprime = 2.0 * (e4 - e2 * e2)
    return NoiseMoments(0.0, variance, 2.0 * variance, 2.0 * variance, var_nprime)


def _cdf_nprime_gaussian(model: Gaussian, x: float) -> float:
    # N' = N1^2 + N2^2 is exponential with mean 2 sigma^2
    if x <= 0.0:
        return 0.0
    return -math.expm1(-x / (2.0 * model.sigma2))


def _cdf_nstar_gaussian(model: Gaussian, x: float) -> float:
    # N* = N1 + N2 ~ Normal(0, 2 sigma^2)
    return 0.5 * math.erfc(-x / (2.0 * math.sqrt(model.sigma2)))


def _bisect_quantile(cdf, target: float, scale: float) -> Optional[float]:
    """Smallest x with cdf(x) >= target, to absolute tolerance QUANTILE_TOL
    or to adjacent floats, whichever is coarser; None where an end of the
    bracket passes the float range.

    The bracket starts at [0, scale] and each end is doubled outward until
    it straddles the target; only distributions with mass below zero ever
    extend the lower end.
    """
    hi = max(scale, 1.0)
    while hi < math.inf and not cdf(hi) >= target:
        hi *= 2.0
    lo = 0.0
    if cdf(lo) >= target:
        lo = -max(scale, 1.0)
        while lo > -math.inf and not cdf(lo) < target:
            lo *= 2.0
    if hi == math.inf or lo == -math.inf:
        return None
    while hi - lo > QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float between lo and hi
            break
        if cdf(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def m_quantile(model: NoiseModel, t: int, delta: float, kind: str = "combined") -> float:
    """Envelope of the running maximum of N' and/or N* over t+1 steps.

    Returns the smallest level L such that all t+1 per-step samples of the
    requested variable stay at or below L with probability at least
    1 - delta.  Since steps are i.i.d. this is the (1-delta)^(1/(t+1))
    quantile of a single sample; ``kind`` selects N' (``"prime"``), N*
    (``"star"``) or the max of the two envelopes (``"combined"``).
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if t < 1:
        raise ParameterError(f"t must be a positive integer, got {t}")
    if kind not in ("prime", "star", "combined"):
        raise ParameterError(f"unknown quantile kind {kind!r}")
    if kind == "combined":
        return max(
            m_quantile(model, t, delta, "prime"),
            m_quantile(model, t, delta, "star"),
        )
    if isinstance(model, Zero):
        return 0.0
    # per-sample target computed in log space to survive large t
    target = math.exp(math.log1p(-delta) / (t + 1))
    name = "N'" if kind == "prime" else "N*"
    if isinstance(model, Gaussian):
        cdf = _cdf_nprime_gaussian if kind == "prime" else _cdf_nstar_gaussian
        level = _bisect_quantile(lambda x: cdf(model, x), target, 2.0 * model.sigma2)
        if level is None:
            raise QuantileRangeError(f"gaussian variance {model.sigma2!r} is too large: "
                                     f"bisecting the {name} quantile at t = {t} passes the "
                                     "float range")
        return level
    support, pmf = _nprime_pmf(model.p) if kind == "prime" else _nstar_pmf(model.p)
    idx = int(np.searchsorted(np.cumsum(pmf), target, side="left"))
    if idx >= len(support):
        raise QuantileRangeError(f"discrete p = {model.p!r} at t = {t}: the {name} quantile "
                                 f"lies in the tail of mass {TAIL_MASS} beyond the "
                                 "tabulated pmf")
    return float(support[idx])


def is_smooth_at(model: NoiseModel, t: int, delta: float) -> bool:
    """Whether the combined max-envelope stays below (t/delta)^(1/20).

    This threshold is an asymptotic growth condition: for light-tailed
    models the envelope grows like log(t/delta) while the threshold grows
    polynomially, but the polynomial side only catches up for extremely
    large t/delta.  At desk scales the test can be false even for the
    Gaussian model; the computed quantile is reported as-is, unclamped.
    """
    return m_quantile(model, t, delta, "combined") <= (t / delta) ** (1.0 / 20.0)
