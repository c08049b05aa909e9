"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion (the line is also printed on capture for
failing tests).  Statistical criteria use fixed seeds and are fully
deterministic.
"""

import math
import statistics
import time

import numpy as np
import pytest

import gossipavg as ga
from gossipavg import harness, verify


def _report(num: int, desc: str, ok: bool, detail: str, t0: float, part: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}{part} [{status}] {desc}: {detail}  "
          f"({time.perf_counter() - t0:.1f}s)")
    return ok


def test_c01_identity_suite():
    t0 = time.perf_counter()
    rng = ga.make_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        pop = ga.init_population(rng.uniform(-1e3, 1e3, n))
        pop.values = pop.values + rng.normal(0, 5, n)  # induce drift
        v = pop.values
        pairwise = float(np.sum((v[:, None] - v[None, :]) ** 2))
        pb = ga.phi_bar(pop)
        drift = pop.running_average() - pop.initial_average
        err1 = abs(ga.phi(pop) - pairwise) / max(pairwise, 1.0)
        err2 = abs(ga.tss(pop) - ga.tss_identity(pb, n, drift)) / max(ga.tss(pop), 1.0)
        worst = max(worst, err1, err2)
    ok = worst <= 1e-9
    assert _report(1, "potential identities", ok, f"max rel err {worst:.2e}", t0)


def test_c02_one_step_exactness():
    t0 = time.perf_counter()
    worst = float(verify._onestep_errors(ga.make_rng(102), 100_000, 1e3, 5.0).max())
    ok = worst <= 1e-9
    assert _report(2, "one-step exactness", ok, f"max rel err {worst:.2e}", t0)


def test_c03_delta_mean():
    t0 = time.perf_counter()
    rng = ga.make_rng(103)
    n = 100
    pop = ga.init_population(rng.uniform(0, 50, n))
    pb = ga.phi_bar(pop)
    ii = rng.integers(0, n, 10**6)
    jj = rng.integers(0, n, 10**6)
    d = pop.values[ii] - pop.values[jj]
    deltas = d * d / (2 * pb)
    mean = float(np.mean(deltas))
    se = float(np.std(deltas)) / math.sqrt(len(deltas))
    ok = abs(mean - 0.01) <= 5 * se
    assert _report(3, "contraction fraction mean 1/n", ok,
                   f"|{mean:.6f} - 0.01| vs 5SE {5 * se:.2e}", t0)


def test_c04_pathwise_decomposition():
    t0 = time.perf_counter()
    n = 100
    config = ga.ExperimentConfig(
        n=n,
        init=ga.UniformInit(0.0, float(n * n)),
        scheduler="sequential",
        noise=ga.Gaussian(1.0),
        rule=ga.Real(),
        steps=10 * n,
        master_seed=104,
        record_every=10 * n,
        decomposition_intervals=tuple((k * n, (k + 1) * n) for k in range(10)),
        runs=100,
    )
    traces = ga.run_experiment(config)
    violations = sum(1 for t in traces for rec in t.decompositions if not rec.bound_holds)
    checked = sum(len(t.decompositions) for t in traces)
    ok = violations == 0 and checked == 1000
    assert _report(4, "pathwise decomposition bound", ok,
                   f"{violations} violations in {checked} intervals", t0)


def test_c05_convergence_to_running_average():
    t0 = time.perf_counter()
    n, sigma2, delta = 1000, 1.0, 0.05
    phi0 = n**3 / 12.0
    mom = ga.moments(ga.Gaussian(sigma2))
    t_star = int(ga.convergence_time(phi0, n, delta, mom, c=30.0))
    config = ga.ExperimentConfig(
        n=n,
        init=ga.UniformInit(0.0, float(n)),
        scheduler="sequential",
        noise=ga.Gaussian(sigma2),
        rule=ga.Real(),
        steps=t_star,
        master_seed=105,
        record_every=t_star,
        runs=100,
    )
    traces = ga.run_experiment(config)
    ratios = [t.snapshots[-1].phi_bar / (sigma2 * n) for t in traces]
    good = sum(1 for r in ratios if r <= 20.0)
    ok = good >= 95
    assert _report(5, "convergence to running average", ok,
                   f"{good}/100 runs below 20 sigma^2 n after {t_star} steps "
                   f"(max ratio {max(ratios):.2f})", t0)


def test_c06_potential_floor():
    t0 = time.perf_counter()
    n, sigma2 = 1000, 1.0
    config = ga.ExperimentConfig(
        n=n,
        init=ga.ConstantInit(0.0),
        scheduler="sequential",
        noise=ga.Gaussian(sigma2),
        rule=ga.Real(),
        steps=5 * n,
        master_seed=106,
        record_every=5 * n,
        runs=100,
    )
    traces = ga.run_experiment(config)
    good = sum(1 for t in traces if t.snapshots[-1].phi_bar >= 0.05 * sigma2 * n)
    ok = good >= 50
    assert _report(6, "potential floor after noise injection", ok, f"{good}/100 runs", t0)


def test_c07_drift_law():
    t0 = time.perf_counter()
    n, steps, runs, delta = 100, 10**4, 1000, 0.1
    config = ga.ExperimentConfig(
        n=n,
        init=ga.ConstantInit(0.0),
        scheduler="sequential",
        noise=ga.Gaussian(1.0),
        rule=ga.Real(),
        steps=steps,
        master_seed=107,
        record_every=steps,
        runs=runs,
    )
    report = ga.monte_carlo_drift(config, runs=runs, delta=delta)
    var_ok = abs(report.empirical_variance - 0.5) <= 0.15 * 0.5
    se_up = math.sqrt(delta * (1 - delta) / runs)
    upper_ok = report.exceed_fraction_upper <= delta + 3 * se_up
    se_lo = math.sqrt(report.lower_prob * (1 - report.lower_prob) / runs)
    lower_ok = report.exceed_fraction_lower >= report.lower_prob - 3 * se_lo
    ok = var_ok and upper_ok and lower_ok
    assert _report(
        7, "running-average drift law", ok,
        f"var {report.empirical_variance:.3f} (theory {report.theory_variance:.3f}), "
        f"upper exceed {report.exceed_fraction_upper:.4f} <= {delta + 3 * se_up:.4f}, "
        f"lower exceed {report.exceed_fraction_lower:.4f} >= {report.lower_prob - 3 * se_lo:.4f}",
        t0,
    )


def test_c08_s_minus_tail():
    t0 = time.perf_counter()
    gamma, n = 0.5, 100
    steps = 100 * n
    runs = 1000
    config = ga.ExperimentConfig(
        n=n,
        init=ga.UniformInit(0.0, 100.0),
        scheduler="sequential",
        noise=ga.Gaussian(1.0),
        rule=ga.Real(),
        steps=steps,
        master_seed=108,
        record_every=steps,
        decomposition_intervals=((0, steps),),
        runs=runs,
    )
    traces = ga.run_experiment(config)
    threshold = (1 - gamma) * steps / n
    frac = sum(
        1 for t in traces if t.decompositions[0].accumulator.s_minus <= threshold
    ) / runs
    bound = ga.s_minus_tail(gamma, steps, n)
    se = math.sqrt(frac * (1 - frac) / runs)
    ok = frac <= bound + 3 * se
    assert _report(8, "contraction-sum lower tail", ok,
                   f"P(S- <= {threshold:.0f}) = {frac:.4f} vs bound {bound:.2e}", t0)


def test_c09_s_prime_bound():
    t0 = time.perf_counter()
    n, delta, runs = 100, 0.1, 1000
    steps = n
    config = ga.ExperimentConfig(
        n=n,
        init=ga.UniformInit(0.0, 100.0),
        scheduler="sequential",
        noise=ga.Gaussian(1.0),
        rule=ga.Real(),
        steps=steps,
        master_seed=109,
        record_every=steps,
        decomposition_intervals=((0, steps),),
        runs=runs,
    )
    traces = ga.run_experiment(config)
    bound = ga.b_prime(ga.bound_inputs(ga.Gaussian(1.0), n, steps, delta, 0.0, quantile_divisor=2))
    frac = sum(1 for t in traces if t.decompositions[0].accumulator.s_prime > bound) / runs
    se = math.sqrt(delta * (1 - delta) / runs)
    ok = frac <= delta + 3 * se
    assert _report(9, "noise-energy sum bound", ok,
                   f"P(S' > {bound:.1f}) = {frac:.4f} <= {delta + 3 * se:.4f}", t0)


def test_c10_synchronous_equivalence():
    t0 = time.perf_counter()
    n, rounds = 1000, 20
    ratios = []
    for k in range(50):
        init_values = tuple(ga.make_rng(1100, k).uniform(0.0, 100.0, n))
        cfg_sync = ga.ExperimentConfig(
            n=n, init=ga.ExplicitInit(init_values), scheduler="synchronous",
            noise=ga.Gaussian(1.0), rule=ga.Real(), steps=rounds,
            master_seed=1200 + k, record_every=rounds, runs=1,
        )
        cfg_seq = ga.ExperimentConfig(
            n=n, init=ga.ExplicitInit(init_values), scheduler="sequential",
            noise=ga.Gaussian(1.0), rule=ga.Real(), steps=rounds * n // 2,
            master_seed=1300 + k, record_every=rounds * n // 2, runs=1,
        )
        phi_sync = ga.run_experiment(cfg_sync)[0].snapshots[-1].phi_bar
        phi_seq = ga.run_experiment(cfg_seq)[0].snapshots[-1].phi_bar
        ratios.append(phi_sync / phi_seq)
    median = float(np.median(ratios))
    ok = 0.5 <= median <= 2.0
    assert _report(10, "synchronous/sequential equivalence", ok,
                   f"median ratio {median:.3f} over 50 seed pairs "
                   f"(range {min(ratios):.3f}..{max(ratios):.3f})", t0)


def test_c11_bounded_range_drift():
    t0 = time.perf_counter()
    trace = ga.run_experiment(ga.fig_b_config())[0]
    start = trace.snapshots[0].running_avg
    final = trace.snapshots[-1].running_avg
    band_ok = start == 10.0 and 5.0 <= final <= 7.0

    # control: same noise without the cutoff keeps the average near 10
    control_cfg = ga.ExperimentConfig(
        n=1000, init=ga.ConstantInit(10.0), scheduler="sequential",
        noise=ga.DiscreteGeometric(0.8), rule=ga.Real(),
        steps=10**7, master_seed=harness.FIG_B_SEED, record_every=10**7, runs=1,
    )
    control = ga.run_experiment(control_cfg)[0]
    control_drift = abs(control.snapshots[-1].running_avg - 10.0)
    sigma = math.sqrt(0.3125)
    upper, _ = ga.drift_bound_gaussian(10**7, 0.01, sigma, 1000)
    control_ok = control_drift <= upper and control_drift < abs(final - 10.0)
    ok = band_ok and control_ok
    assert _report(11, "bounded-range average drift", ok,
                   f"cutoff run 10 -> {final:.3f} (band [5, 7]); "
                   f"control drift {control_drift:.3f} <= bound {upper:.3f}", t0)


def test_c12_distance_tail_is_exponential():
    t0 = time.perf_counter()
    trace = ga.run_experiment(ga.fig_a_config(n=10**4))[0]
    slope, r2 = ga.survival_fit(harness.tail_histogram(trace.final_population,
                                                       harness.FIG_A_BINS))
    ok = slope < 0 and r2 >= 0.9
    assert _report(12, "distance tail follows an exponential law", ok,
                   f"slope {slope:.3g}, r^2 {r2:.4f}", t0)


def test_c13_rounding_neutrality():
    t0 = time.perf_counter()
    n, steps = 500, 5000
    ratios = []
    for k in range(50):
        common = dict(
            n=n, init=ga.ConstantInit(0.0), scheduler="sequential",
            noise=ga.DiscreteGeometric(0.8), steps=steps,
            master_seed=1400 + k, record_every=steps, runs=1,
        )
        rounded = ga.run_experiment(
            ga.ExperimentConfig(rule=ga.DiscreteRounding(), **common)
        )[0].snapshots[-1].phi_bar
        real = ga.run_experiment(
            ga.ExperimentConfig(rule=ga.Real(), **common)
        )[0].snapshots[-1].phi_bar
        ratios.append(rounded / real)
    median = float(np.median(ratios))
    ok = 1.0 / 3.0 <= median <= 3.0
    assert _report(13, "randomized rounding neutrality", ok,
                   f"median converged-potential ratio {median:.3f} "
                   f"(range {min(ratios):.2f}..{max(ratios):.2f})", t0)


SMOOTHNESS_POINTS = [(10**3, 0.1), (10**3, 0.01), (10**6, 0.1), (10**6, 0.01)]


def _gaussian_envelope(sigma2: float, t: int, delta: float) -> float:
    """Closed-form combined max-envelope of Gaussian(sigma2) over t+1 steps.

    N' = N1^2 + N2^2 is exponential with mean 2 sigma^2, so its
    (1-delta)^(1/(t+1)) quantile is -2 sigma^2 ln(1 - (1-delta)^(1/(t+1))),
    written with expm1/log1p to keep its digits; N* = N1 + N2 is
    Normal(0, 2 sigma^2).
    """
    log_target = math.log1p(-delta) / (t + 1)
    prime = -2.0 * sigma2 * math.log(-math.expm1(log_target))
    star = statistics.NormalDist(0.0, math.sqrt(2.0 * sigma2)).inv_cdf(math.exp(log_target))
    return max(prime, star)


def test_c14a_smoothness_flag():
    """The smoothness flag equals its closed-form value at desk scale.

    The predicate is "combined max-envelope <= (t/delta)^(1/20)".  For the
    unit Gaussian the envelope grows like 2 ln(t/delta) and the polynomial
    threshold only overtakes it at ln(t/delta) ~ 107.4, so at these points
    the envelope (18.3..36.8) is 11 to 15 times the threshold (1.58..2.51)
    and the flag is false.  Gaussian(0.01) has 1/100 of the N' envelope
    and 1/10 of the N* envelope (0.52..0.79), about a third of the
    threshold, so its flag is true.  Each expected flag is computed here
    and must clear its threshold by a factor 2 either way, so that none
    depends on rounding.
    """
    t0 = time.perf_counter()
    cases = {1.0: False, 0.01: True}
    results = {}
    for sigma2, smooth in cases.items():
        for t, d in SMOOTHNESS_POINTS:
            envelope = _gaussian_envelope(sigma2, t, d)
            ratio = envelope / (t / d) ** (1.0 / 20.0)
            assert (ratio <= 0.5) if smooth else (ratio >= 2.0), (sigma2, t, d, ratio)
            results[(sigma2, t, d)] = ga.is_smooth_at(ga.Gaussian(sigma2), t, d)
    ok = all(results[(s2, t, d)] == cases[s2] for s2, t, d in results)
    detail = ", ".join(
        f"(s2={s2}, t={t:.0e}, d={d}) -> {'true' if v else 'false'}"
        for (s2, t, d), v in results.items()
    )
    assert _report(14, "smoothness flag at desk scale", ok, detail, t0, part="a")


def test_c14b_quantile_log_ratio():
    t0 = time.perf_counter()
    model = ga.Gaussian(1.0)
    ratios = {}
    for t, d in SMOOTHNESS_POINTS:
        ratios[(t, d)] = ga.m_quantile(model, t, d, "combined") / math.log(t / d)
    ok = all(0.3 <= r <= 3.0 for r in ratios.values())
    detail = ", ".join(f"{r:.2f}" for r in ratios.values())
    assert _report(14, "combined quantile tracks log(t/delta)", ok,
                   f"ratios {detail}", t0, part="b")
