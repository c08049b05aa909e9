"""Noise models: sampling laws, moments, max-quantiles, smoothness."""

import math

import numpy as np
import pytest

from gossipavg import (
    DiscreteGeometric,
    Gaussian,
    ParameterError,
    Zero,
    is_smooth_at,
    m_quantile,
    make_rng,
    moments,
    sample_batch,
)

ALL_MODELS = [Gaussian(1.0), Gaussian(0.3125), DiscreteGeometric(0.8), DiscreteGeometric(0.5), Zero()]


def test_zero_always_zero():
    rng = make_rng(1)
    assert sample_batch(Zero(), rng, 1)[0] == 0.0
    assert np.all(sample_batch(Zero(), rng, 1000) == 0.0)


def test_discrete_p1_always_zero():
    # P{N=0} = p forces the degenerate distribution at p = 1
    x = sample_batch(DiscreteGeometric(1.0), make_rng(2), 10_000)
    assert np.all(x == 0.0)


def test_gaussian_sample_variance():
    x = sample_batch(Gaussian(1.0), make_rng(3), 10**6)
    assert 0.99 <= float(np.var(x)) <= 1.01


def test_all_models_zero_mean():
    for k, model in enumerate(ALL_MODELS):
        x = sample_batch(model, make_rng(4, k), 10**6)
        sd = float(np.std(x))
        if sd == 0.0:
            assert float(np.mean(x)) == 0.0
            continue
        se = sd / math.sqrt(len(x))
        assert abs(float(np.mean(x))) <= 5 * se, f"{model} mean biased"


def test_discrete_samples_are_integers():
    x = sample_batch(DiscreteGeometric(0.5), make_rng(5), 100_000)
    assert np.all(x == np.floor(x))


def test_discrete_pmf():
    p = 0.8
    x = sample_batch(DiscreteGeometric(p), make_rng(6), 10**6)
    for i in range(-3, 4):
        expected = p if i == 0 else 0.5 * p * (1 - p) ** abs(i)
        emp = float(np.mean(x == i))
        se = math.sqrt(expected * (1 - expected) / len(x))
        assert abs(emp - expected) <= 5 * se, f"pmf mismatch at {i}"


def test_moments_discrete_variance():
    assert moments(DiscreteGeometric(0.8)).variance == pytest.approx(0.3125, rel=1e-12)


def test_moments_gaussian():
    m = moments(Gaussian(1.0))
    assert m.e_nprime == 2.0
    assert m.e_nstar_sq == 2.0
    assert m.var_nprime == 4.0
    m2 = moments(Gaussian(2.0))
    assert m2.var_nprime == pytest.approx(16.0)


def test_moments_zero():
    m = moments(Zero())
    assert (m.mean, m.variance, m.e_nprime, m.e_nstar_sq, m.var_nprime) == (0, 0, 0, 0, 0)


def test_discrete_var_nprime_series_oracle():
    """Var(N') against the closed-form geometric series sums.

    With q = 1-p the pmf gives E[N^2] = q(1+q)/p^2 and
    E[N^4] = q(1+11q+11q^2+q^3)/p^4, so Var(N') = 2(E[N^4] - E[N^2]^2).
    The module's pmf summation truncates at tail mass 1e-12, which leaves
    a ~1e-8 relative gap on the fourth-moment side.
    """
    for p in (0.8, 0.5):
        q = 1.0 - p
        e2 = q * (1 + q) / p**2
        e4 = q * (1 + 11 * q + 11 * q**2 + q**3) / p**4
        expected = 2.0 * (e4 - e2 * e2)
        assert moments(DiscreteGeometric(p)).var_nprime == pytest.approx(expected, rel=1e-6)


def test_discrete_var_nprime_monte_carlo():
    p = 0.8
    rng = make_rng(7)
    n1 = sample_batch(DiscreteGeometric(p), rng, 10**7)
    n2 = sample_batch(DiscreteGeometric(p), rng, 10**7)
    nprime = n1 * n1 + n2 * n2
    emp_var = float(np.var(nprime))
    # standard error of the sample variance from the sample's own moments
    centered = nprime - nprime.mean()
    mu4 = float(np.mean(centered**4))
    se = math.sqrt((mu4 - emp_var**2) / len(nprime))
    assert abs(emp_var - moments(DiscreteGeometric(p)).var_nprime) <= 5 * se


def test_m_quantile_zero_model():
    for kind in ("prime", "star", "combined"):
        assert m_quantile(Zero(), 1000, 0.05, kind) == 0.0


def test_m_quantile_gaussian_prime_plugback():
    """The returned level reproduces the max-CDF target through the
    exponential law of N' = N1^2 + N2^2."""
    for t, delta in [(10, 0.3), (1000, 0.1), (10**6, 0.01)]:
        q = m_quantile(Gaussian(1.0), t, delta, "prime")
        cdf = -math.expm1(-q / 2.0)
        back = math.exp((t + 1) * math.log(cdf))
        assert abs(back - (1 - delta)) <= 1e-9


def test_m_quantile_gaussian_star_plugback():
    for t, delta in [(10, 0.3), (1000, 0.1), (10**6, 0.01)]:
        q = m_quantile(Gaussian(1.0), t, delta, "star")
        cdf = 0.5 * math.erfc(-q / 2.0)  # Normal(0, 2)
        back = math.exp((t + 1) * math.log(cdf))
        assert abs(back - (1 - delta)) <= 1e-6


def test_m_quantile_combined_near_log():
    q = m_quantile(Gaussian(1.0), 10**6, 0.01, "combined")
    ref = math.log(10**6 / 0.01)
    assert ref / 3 <= q <= 3 * ref


def test_m_quantile_monotone():
    model = Gaussian(1.0)
    for kind in ("prime", "star", "combined"):
        qs = [m_quantile(model, t, 0.1, kind) for t in (1, 10, 100, 10_000)]
        assert qs == sorted(qs)
        qs_d = [m_quantile(model, 1000, d, kind) for d in (0.5, 0.2, 0.05, 0.01)]
        assert qs_d == sorted(qs_d)
    qs = [m_quantile(DiscreteGeometric(0.5), t, 0.1, "combined") for t in (1, 10, 1000)]
    assert qs == sorted(qs)


def test_m_quantile_discrete_against_brute_pmf():
    """Discrete quantiles checked against a pmf built directly from the law."""
    p, t, delta = 0.8, 50, 0.1
    target = (1 - delta) ** (1.0 / (t + 1))
    kmax = 80
    support = np.arange(-kmax, kmax + 1)
    pmf = np.where(support == 0, p, 0.5 * p * (1 - p) ** np.abs(support))

    q_star = m_quantile(DiscreteGeometric(p), t, delta, "star")
    conv = np.convolve(pmf, pmf)
    sup2 = np.arange(-2 * kmax, 2 * kmax + 1)
    cdf = np.cumsum(conv)
    below = float(cdf[sup2 <= q_star][-1])
    assert below >= target
    strictly_below = cdf[sup2 < q_star]
    assert len(strictly_below) == 0 or float(strictly_below[-1]) < target

    q_prime = m_quantile(DiscreteGeometric(p), t, delta, "prime")
    vals = (support[:, None] ** 2 + support[None, :] ** 2).ravel()
    probs = (pmf[:, None] * pmf[None, :]).ravel()
    mass_le = float(probs[vals <= q_prime].sum())
    mass_lt = float(probs[vals < q_prime].sum())
    assert mass_le >= target > mass_lt


def test_m_quantile_star_negative_branch():
    # a max-probability target below 1/2 puts the sum quantile below zero
    q = m_quantile(Gaussian(1.0), 1, 0.9, "star")
    assert q < 0.0
    cdf = 0.5 * math.erfc(-q / 2.0)
    assert cdf == pytest.approx((1 - 0.9) ** 0.5, abs=1e-8)
    # the squared variable keeps the combined envelope nonnegative
    assert m_quantile(Gaussian(1.0), 1, 0.9, "combined") >= 0.0


def test_m_quantile_rejects_bad_args():
    with pytest.raises(ParameterError):
        m_quantile(Gaussian(1.0), 10, 1.5)
    with pytest.raises(ParameterError):
        m_quantile(Gaussian(1.0), 0, 0.1)
    with pytest.raises(ParameterError):
        m_quantile(Gaussian(1.0), 10, 0.1, "bogus")


def test_model_validation():
    with pytest.raises(ParameterError):
        Gaussian(0.0)
    with pytest.raises(ParameterError):
        DiscreteGeometric(0.0)
    with pytest.raises(ParameterError):
        DiscreteGeometric(1.5)


def test_is_smooth_zero_model():
    assert is_smooth_at(Zero(), 10, 0.5) is True


def test_is_smooth_matches_definition():
    for t, delta in [(2, 0.5), (1000, 0.1), (10**6, 0.01)]:
        expected = m_quantile(Gaussian(1.0), t, delta, "combined") <= (t / delta) ** 0.05
        result = is_smooth_at(Gaussian(1.0), t, delta)
        assert result == expected
        print(f"is_smooth_at(gaussian, t={t}, delta={delta}) = {result}")
