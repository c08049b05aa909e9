"""Closed-form bounds: frozen examples, structure checks, independent re-evaluation."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from gossipavg import bounds, noise
from gossipavg import (
    DiscreteGeometric,
    Gaussian,
    ParameterError,
    UndefinedPredictionError,
    Zero,
    b_prime,
    b_star,
    convergence_time,
    drift_bound_gaussian,
    drift_bound_general,
    evaluate_all,
    gaussian_tail,
    m_quantile,
    moments,
    s_minus_tail,
    standing_assumption_ok,
    tss_identity,
    z_value,
)


def _b_prime(model, t, delta):
    """b_prime with its N' quantile at delta/2, as evaluate_all passes it."""
    return b_prime(t, delta, m_quantile(model, t, delta / 2, "prime"), moments(model))


def _z(model, n, t, delta, phi0):
    """z_value with its quantiles at delta/4, as evaluate_all passes them."""
    m_prime, m_comb = (m_quantile(model, t, delta / 4, kind) for kind in ("prime", "combined"))
    return z_value(n, t, delta, phi0, moments(model), m_prime, m_comb)


def _b_star(model, n, t, delta, phi0):
    """b_star with its N* quantile at delta/4 and the z of ``_z``."""
    return b_star(n, t, delta, moments(model), m_quantile(model, t, delta / 4, "star"),
                  _z(model, n, t, delta, phi0))


def test_b_prime_zero_noise():
    assert _b_prime(Zero(), 1000, 0.1) == 0.0


def test_b_prime_gaussian_magnitude():
    val = _b_prime(Gaussian(1.0), 10**4, 0.1)
    assert 5000 < val < 5600  # t/4 * E[N'] = 5000 dominates


def test_b_prime_scaling_in_t():
    mom = moments(Gaussian(1.0))
    # fix the quantile to isolate the formula structure
    m_fixed = 10.0
    log_term = math.log(2 / 0.1)

    def direct(t):
        return t * mom.e_nprime / 4 + 2 * log_term * m_fixed / 3 + math.sqrt(
            log_term * mom.var_nprime * t / 8
        )

    t = 5000
    first = lambda t: t * mom.e_nprime / 4
    third = lambda t: math.sqrt(log_term * mom.var_nprime * t / 8)
    assert first(2 * t) == 2 * first(t)
    assert third(2 * t) == pytest.approx(math.sqrt(2) * third(t), rel=1e-12)
    assert direct(t) == first(t) + 2 * log_term * m_fixed / 3 + third(t)


def test_b_prime_independent_reimplementation():
    model = Gaussian(1.0)
    t, delta = 10**4, 0.1
    mom = moments(model)
    m_prime = m_quantile(model, t, delta / 2, "prime")
    expected = (
        t * mom.e_nprime / 4
        + 2 * math.log(2 / delta) * m_prime / 3
        + math.sqrt(math.log(2 / delta) * mom.var_nprime * t / 8)
    )
    assert b_prime(t, delta, m_prime, mom) == pytest.approx(expected, rel=1e-12)


def test_z_zero_noise_only_constant_survives():
    assert _z(Zero(), 100, 1000, 0.1, 0.0) == 1.0


def test_z_dominates_phi0():
    for phi0 in (0.0, 10.0, 1e6, 1e12):
        assert _z(Gaussian(1.0), 1000, 10**4, 0.1, phi0) >= phi0


def test_z_independent_reimplementation():
    model = Gaussian(1.0)
    n, t, delta, phi0 = 1000, 10**4, 0.1, 1e6
    mom = moments(model)
    m_comb = m_quantile(model, t, delta / 4, "combined")
    m_prime = m_quantile(model, t, delta / 4, "prime")
    lt = math.log(2 * t / delta)
    bprime_q = (
        t * mom.e_nprime / 4
        + 2 * math.log(4 / delta) * m_prime / 3
        + math.sqrt(math.log(4 / delta) * mom.var_nprime * t / 8)
    )
    expected = (
        phi0
        + 2 * lt * t * mom.e_nstar_sq / n
        + (2 * lt * m_comb / 3) ** 2
        + bprime_q
        + 1.0
    )
    assert z_value(n, t, delta, phi0, mom, m_prime, m_comb) == pytest.approx(expected, rel=1e-12)


def test_b_star_zero_noise():
    assert _b_star(Zero(), 100, 1000, 0.1, 0.0) == 0.0


def test_b_star_scales_with_sqrt_z():
    model = Gaussian(1.0)
    lo, hi = ((model, 1000, 10**4, 0.1, phi0) for phi0 in (1e6, 4e6))
    ratio = _b_star(*hi) / _b_star(*lo)
    assert ratio == pytest.approx(math.sqrt(_z(*hi) / _z(*lo)), rel=1e-12)


def test_b_star_independent_reimplementation():
    model = Gaussian(1.0)
    n, t, delta, phi0 = 1000, 10**4, 0.1, 1e6
    mom = moments(model)
    m_star = m_quantile(model, t, delta / 4, "star")
    z = _z(model, n, t, delta, phi0)
    lt = math.log(2 * t / delta)
    expected = (
        2 * lt * m_star / 3 + math.sqrt(2 * lt * t * mom.e_nstar_sq / n)
    ) * math.sqrt(z)
    assert b_star(n, t, delta, mom, m_star, z) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5])
@pytest.mark.parametrize("formula", [
    lambda delta: b_prime(1000, delta, 1.0, moments(Gaussian(1.0))),
    lambda delta: z_value(100, 1000, delta, 0.0, moments(Gaussian(1.0)), 1.0, 1.0),
    lambda delta: b_star(100, 1000, delta, moments(Gaussian(1.0)), 1.0, 1.0),
], ids=["b_prime", "z_value", "b_star"])
def test_formulas_reject_a_delta_outside_0_1(formula, delta):
    with pytest.raises(ParameterError, match="delta must be in"):
        formula(delta)


def test_s_minus_tail_values():
    assert s_minus_tail(1e-12, 100, 10) == pytest.approx(1.0)
    n = 100
    assert s_minus_tail(0.5, 100 * n, n) == pytest.approx(math.exp(-75 / 8), rel=1e-12)
    assert s_minus_tail(0.5, 100 * n, n) == pytest.approx(8.5e-5, rel=0.01)
    tails = [s_minus_tail(0.3, t, 50) for t in (100, 1000, 10_000)]
    assert tails == sorted(tails, reverse=True)
    with pytest.raises(ParameterError):
        s_minus_tail(1.5, 100, 10)


def test_convergence_time_examples():
    mom = moments(Gaussian(1.0))
    floor = mom.e_nprime * 1000 * 0.1
    assert convergence_time(floor, 1000, 0.1, mom) == 0.0
    val = convergence_time(1e9, 1000, 0.1, mom, c=30.0)
    assert val == pytest.approx(30 * 1000 * math.log(1e9 / (2 * 1000 * 0.1)), rel=1e-12)
    assert val == pytest.approx(4.63e5, rel=0.01)
    doubled = convergence_time(2e9, 1000, 0.1, mom, c=30.0)
    assert doubled - val == pytest.approx(30 * 1000 * math.log(2), rel=1e-9)


def test_convergence_time_rejects_noiseless():
    with pytest.raises(UndefinedPredictionError):
        convergence_time(100.0, 10, 0.1, moments(Zero()))


def test_drift_bound_gaussian_examples():
    assert drift_bound_gaussian(0, 0.5, 1.0, 10)[0] == 0.0
    upper, _ = drift_bound_gaussian(10**4, math.exp(-1), 1.0, 100)
    assert upper == pytest.approx(1.0, rel=1e-12)
    _, lower_prob = drift_bound_gaussian(10**4, math.exp(-1), 1.0, 100)
    assert lower_prob == pytest.approx(math.exp(-1) / (2 * math.sqrt(2)), rel=1e-12)
    assert lower_prob == pytest.approx(0.130, abs=5e-4)
    with pytest.raises(ParameterError):
        drift_bound_gaussian(10, 1.0, 1.0, 10)


def test_drift_bound_general():
    assert drift_bound_general(100, 1.0, 0.0) == 0.0
    m = 3.0
    assert drift_bound_general(400, 1.0, m) == pytest.approx(
        2 * drift_bound_general(100, 1.0, m), rel=1e-12
    )
    t, delta = 10**4, 0.1
    mq = m_quantile(Gaussian(1.0), t, delta / (2 * t), "combined")
    assert drift_bound_general(t, 1.0, mq) == pytest.approx(
        mq * math.sqrt(2 * t), rel=1e-12
    )


def test_gaussian_tail_values():
    lower, upper = gaussian_tail(1.0)
    c = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert lower == pytest.approx(c / 2, rel=1e-12)
    assert upper == pytest.approx(c, rel=1e-12)
    assert lower == pytest.approx(0.1210, abs=5e-5)
    assert upper == pytest.approx(0.2420, abs=5e-5)
    _, up40 = gaussian_tail(40.0)
    assert up40 < 1e-300
    with pytest.raises(ParameterError):
        gaussian_tail(-0.1)


def test_gaussian_tail_ordering():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0):
        lower, upper = gaussian_tail(x)
        assert lower <= upper


def test_gaussian_tail_sandwiches_true_tail():
    """Simpson-rule integration of the density as an independent oracle."""

    def true_tail(x, width=40.0, steps=200_001):
        grid = np.linspace(x, x + width, steps)
        dens = np.exp(-grid * grid / 2) / math.sqrt(2 * math.pi)
        return float(np.sum((dens[:-1] + dens[1:]) * np.diff(grid)) / 2)

    for x in (0.5, 1.0, 2.0, 3.0):
        lower, upper = gaussian_tail(x)
        tail = true_tail(x)
        assert lower <= tail <= upper


def test_tss_identity_op():
    assert tss_identity(5.0, 10, 0.0) == 5.0
    assert tss_identity(2.0, 2, 1.0) == 4.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        pb, n, drift = rng.uniform(0, 100), int(rng.integers(2, 50)), rng.normal()
        assert tss_identity(pb, n, drift) >= 0.0


def test_standing_assumption():
    assert standing_assumption_ok(100, moments(Gaussian(1.0)))
    assert not standing_assumption_ok(2, moments(Gaussian(0.01)))


def test_evaluate_all_bisects_each_quantile_once(monkeypatch):
    """Each N' and N* envelope is bisected once per budget (m_combined is the
    max of the two at delta/2 and delta/4), and the moments are computed once."""
    calls, moment_calls = [], []

    def logged(fn, log):
        def wrapper(*args):
            log.append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(noise, "m_quantile", logged(noise.m_quantile, calls))
    monkeypatch.setattr(bounds, "m_quantile", logged(noise.m_quantile, []))
    monkeypatch.setattr(bounds, "moments", logged(bounds.moments, moment_calls))
    values = evaluate_all(Gaussian(1.0), 100, 10**4, 0.1, 50.0)
    bisected = [args for args in calls if args[3] != "combined"]
    assert len(bisected) == len(set(bisected)) == 8
    assert len(moment_calls) == 1
    assert values["m_combined"] == max(values["m_prime"], values["m_star"])


def test_evaluate_all_keys_and_zero_noise():
    with pytest.warns(UserWarning):
        values = evaluate_all(Zero(), 100, 1000, 0.1, 0.0, gamma=0.5)
    assert values["b_prime"] == 0.0
    assert values["z"] == 1.0
    assert values["b_star"] == 0.0
    assert values["convergence_time"] is None
    assert values["s_minus_tail"] == pytest.approx(s_minus_tail(0.5, 1000, 100))
    gauss = evaluate_all(Gaussian(1.0), 100, 1000, 0.1, 1e4)
    for key in ("b_prime", "z", "b_star", "convergence_time", "m_combined", "smooth"):
        assert key in gauss


# What `gossipavg bounds` prints over a grid, one sha256 per noise model: each
# point's JSON, its warnings, or the error it raises. The formula tests compare
# at rel=1e-12; these pin the last digit. A change that moves an output on
# purpose re-records them and names the fields it changed.
_GOLDEN_NOISES = {
    "gaussian:1": Gaussian(1.0),
    "gaussian:0.01": Gaussian(0.01),
    "discrete:0.8": DiscreteGeometric(0.8),
    "discrete:0.5": DiscreteGeometric(0.5),
    "zero": Zero(),
}
_TINY_DELTA = 3.115728650883837e-308  # delta / 2 is not exact here
_GOLDEN_GRID = [
    (n, t, delta, phi0, gamma)
    for n in (2, 100, 10**4)
    for t, deltas in ((1, (0.1, 1e-3, _TINY_DELTA)), (10**3, (0.1, 1e-3)), (10**6, (0.1, 1e-3)))
    for delta in deltas
    for phi0 in (0.0, 1e6)
    for gamma in (None, 0.5)
]


@pytest.mark.parametrize("name, digest", [
    ("gaussian:1", "42f0395d83c60efb4c65c0e663db76c942fb742a72916b404dc3960b10aa8193"),
    ("gaussian:0.01", "b522e3efaa99d7736b72ad194a82a825f0dd6341b97c6981bf8619bebf650d96"),
    ("discrete:0.8", "c056849580dbec4bef0510e98d5af1456af8f35865081cc4debf83ffbd08300a"),
    ("discrete:0.5", "a3bd415f46e6eb86641daf76e604f15c67be602adc326ad05cd7ea8a1c291f12"),
    ("zero", "8d99d08fd2c3217ca1cf44e37b7e136b493aa125b0603ee9623ca5344246735c"),
])
def test_evaluate_all_output_is_golden(name, digest):
    lines = []
    for n, t, delta, phi0, gamma in _GOLDEN_GRID:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                values = evaluate_all(_GOLDEN_NOISES[name], n, t, delta, phi0, gamma=gamma)
                lines.append(json.dumps(values, indent=2))
            except ParameterError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
        lines += [f"warning: {w.message}" for w in caught]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
