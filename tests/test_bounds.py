"""Closed-form bounds: frozen examples, structure checks, independent re-evaluation."""

import math

import numpy as np
import pytest

from gossipavg import bounds, noise
from gossipavg import (
    Gaussian,
    ParameterError,
    UndefinedPredictionError,
    Zero,
    b_prime,
    b_star,
    bound_inputs,
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


def test_b_prime_zero_noise():
    inputs = bound_inputs(Zero(), 100, 1000, 0.1, 0.0, quantile_divisor=2)
    assert b_prime(inputs) == 0.0


def test_b_prime_gaussian_magnitude():
    inputs = bound_inputs(Gaussian(1.0), 1000, 10**4, 0.1, 0.0, quantile_divisor=2)
    val = b_prime(inputs)
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
    n, t, delta = 1000, 10**4, 0.1
    inputs = bound_inputs(model, n, t, delta, 0.0, quantile_divisor=2)
    mom = moments(model)
    m_prime = m_quantile(model, t, delta / 2, "prime")
    expected = (
        t * mom.e_nprime / 4
        + 2 * math.log(2 / delta) * m_prime / 3
        + math.sqrt(math.log(2 / delta) * mom.var_nprime * t / 8)
    )
    assert b_prime(inputs) == pytest.approx(expected, rel=1e-12)


def test_z_zero_noise_only_constant_survives():
    inputs = bound_inputs(Zero(), 100, 1000, 0.1, 0.0, quantile_divisor=4)
    assert z_value(inputs) == 1.0


def test_z_dominates_phi0():
    for phi0 in (0.0, 10.0, 1e6, 1e12):
        inputs = bound_inputs(Gaussian(1.0), 1000, 10**4, 0.1, phi0, quantile_divisor=4)
        assert z_value(inputs) >= phi0


def test_z_independent_reimplementation():
    model = Gaussian(1.0)
    n, t, delta, phi0 = 1000, 10**4, 0.1, 1e6
    inputs = bound_inputs(model, n, t, delta, phi0, quantile_divisor=4)
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
    assert z_value(inputs) == pytest.approx(expected, rel=1e-12)


def test_b_star_zero_noise():
    inputs = bound_inputs(Zero(), 100, 1000, 0.1, 0.0, quantile_divisor=4)
    assert b_star(inputs) == 0.0


def test_b_star_scales_with_sqrt_z():
    model = Gaussian(1.0)
    lo = bound_inputs(model, 1000, 10**4, 0.1, 1e6, quantile_divisor=4)
    hi = bound_inputs(model, 1000, 10**4, 0.1, 4e6, quantile_divisor=4)
    ratio = b_star(hi) / b_star(lo)
    assert ratio == pytest.approx(math.sqrt(z_value(hi) / z_value(lo)), rel=1e-12)


def test_b_star_independent_reimplementation():
    model = Gaussian(1.0)
    n, t, delta, phi0 = 1000, 10**4, 0.1, 1e6
    inputs = bound_inputs(model, n, t, delta, phi0, quantile_divisor=4)
    mom = moments(model)
    m_star = m_quantile(model, t, delta / 4, "star")
    lt = math.log(2 * t / delta)
    expected = (
        2 * lt * m_star / 3 + math.sqrt(2 * lt * t * mom.e_nstar_sq / n)
    ) * math.sqrt(z_value(inputs))
    assert b_star(inputs) == pytest.approx(expected, rel=1e-12)


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
