"""Self-contained invariant and Monte Carlo checks behind ``gossipavg verify``.

Each check is a quick, seeded smoke version of the package's statistical
contracts (the full calibrated suite lives in the test tree).  A check
returns (name, ok, detail); the CLI prints one line per check and exits
nonzero if any fails.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics, harness, noise, potentials
from .seeding import make_rng

VERIFY_SEED = 0xC0FFEE


#: Values per block when a check streams a Monte Carlo sample; the draws do not
#: depend on the split.  The three checks that stream took 29 ms at 2^14 to
#: 2^16 (41 ms whole); verify's high-water mark rose 1.7 MB, and 2.9 at 2^15.
_SAMPLE_BLOCK = 1 << 14


def _blocks(total: int) -> list:
    """Sizes of the successive blocks in which a check draws ``total`` values."""
    return [min(_SAMPLE_BLOCK, total - start) for start in range(0, total, _SAMPLE_BLOCK)]


def _moments(blocks) -> tuple[int, float, float]:
    """Count, mean and population standard deviation of the arrays ``blocks``,
    one held at a time, merged by Chan, Golub & LeVeque's pairwise update
    (*Algorithms for Computing the Sample Variance*, 1983)."""
    count, mean, m2 = 0, 0.0, 0.0
    for x in blocks:
        m, x_mean = len(x), float(np.mean(x))
        delta = x_mean - mean
        count += m
        mean += delta * m / count
        m2 += float(np.sum((x - x_mean) ** 2)) + delta * delta * (count - m) * m / count
    return count, mean, math.sqrt(m2 / count)


def _check_noise_zero_mean() -> tuple[str, bool, str]:
    models = [noise.Gaussian(1.0), noise.DiscreteGeometric(0.8), noise.Zero()]
    worst = 0.0
    for k, model in enumerate(models):
        rng = make_rng(VERIFY_SEED, k)
        count, mean, sd = _moments(noise.sample_batch(model, rng, m) for m in _blocks(200_000))
        se = sd / math.sqrt(count) if sd > 0 else 1e-12
        worst = max(worst, abs(mean) / (5.0 * se))
    return "noise-zero-mean", worst <= 1.0, f"max |mean|/5SE = {worst:.3f}"


def _check_discrete_pmf() -> tuple[str, bool, str]:
    p = 0.8
    rng = make_rng(VERIFY_SEED, 10)
    samples = (noise.sample_batch(noise.DiscreteGeometric(p), rng, m) for m in _blocks(200_000))
    counts = sum(np.count_nonzero(x[:, None] == np.arange(-3, 4), axis=0) for x in samples)
    worst = 0.0
    for i, count in zip(range(-3, 4), counts.tolist()):
        expected = p if i == 0 else 0.5 * p * (1.0 - p) ** abs(i)
        se = math.sqrt(expected * (1.0 - expected) / 200_000)
        worst = max(worst, abs(count / 200_000 - expected) / (5.0 * se))
    return "discrete-pmf", worst <= 1.0, f"max |emp-pmf|/5SE = {worst:.3f}"


def _check_quantile_roundtrip() -> tuple[str, bool, str]:
    model = noise.Gaussian(1.0)
    worst = 0.0
    prev_t = None
    mono_ok = True
    for t in (10, 1000, 100_000):
        for delta in (0.3, 0.05):
            for kind in ("prime", "star"):
                q = noise.m_quantile(model, t, delta, kind)
                if kind == "prime":
                    cdf = -math.expm1(-q / 2.0)
                else:
                    cdf = 0.5 * math.erfc(-q / 2.0)
                back = math.exp((t + 1) * math.log(cdf))
                worst = max(worst, abs(back - (1.0 - delta)))
        m_now = noise.m_quantile(model, t, 0.1, "combined")
        if prev_t is not None and m_now < prev_t:
            mono_ok = False
        prev_t = m_now
    ok = worst <= 1e-6 and mono_ok
    return "quantile-roundtrip", ok, f"max CDF gap = {worst:.2e}, monotone = {mono_ok}"


def _check_identity_suite() -> tuple[str, bool, str]:
    rng = make_rng(VERIFY_SEED, 20)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        pop = dynamics.init_population(rng.uniform(-1e3, 1e3, size=n))
        pb = potentials.phi_bar(pop)
        ts = potentials.tss(pop)
        drift = pop.running_average() - pop.initial_average
        lhs = potentials.phi(pop)
        worst = max(worst, abs(lhs - 2.0 * n * pb) / max(lhs, 1.0))
        worst = max(worst, abs(ts - (pb + n * drift * drift)) / max(ts, 1.0))
    return "potential-identities", worst <= 1e-9, f"max rel err = {worst:.2e}"


# Cases whose inputs are drawn at once by _onestep_errors, into one set of
# buffers per call: 32 values and 5 more words a case, 0.6 MB.  The peak
# resident set of ``gossipavg verify``, 37.4 MB (Linux, numpy 2.4.6), is
# reached later, in _check_drift, 0.2 to 0.3 MB above the mark after this
# check; larger blocks mean fewer groups of equal n, so less time.
_ONESTEP_BLOCK = 2000

#: The most agents a case holds: the values buffer's width per case.
_ONESTEP_MAX_N = 32


def _onestep_cases(rng: np.random.Generator, cases: int, spread: float, sigma: float,
                   ns: np.ndarray, values: np.ndarray, pairs: np.ndarray,
                   noise: np.ndarray) -> None:
    """Python form of ``onestep_cases`` in ``_kernel.c``: the fallback and the
    tests' oracle.  Case k makes four numpy calls, in this order, into
    ``ns[k]``, the next n entries of ``values`` (packed case after case),
    ``pairs[2k:2k+2]`` and ``noise[2k:2k+2]``."""
    pos = 0
    for k in range(cases):
        n = int(rng.integers(2, 33))
        ns[k] = n
        values[pos:pos + n] = rng.uniform(-spread, spread, size=n)
        pairs[2 * k:2 * k + 2] = rng.choice(n, size=2, replace=False)
        noise[2 * k:2 * k + 2] = rng.normal(0.0, sigma, size=2)
        pos += n


def _onestep_errors(rng: np.random.Generator, cases: int, spread: float, sigma: float) -> np.ndarray:
    """Relative error of ``one_step_delta`` against recomputing phi_bar, per case.

    Case k draws n in [2, 32], n values uniform in [-spread, spread], a pair
    i != j and two N(0, sigma^2) noises, in that order, one numpy call each
    (or the kernel's ``onestep_cases``, which gives the same values and
    generator state).  The arithmetic runs on blocks of cases, one (cases, n)
    array per n, so each row is summed exactly as a single case's array
    would be; rows are never padded to a common width, which would change
    numpy's pairwise sums.
    """
    errors = np.empty(cases)
    block = min(cases, _ONESTEP_BLOCK)
    ns, pairs = np.empty(block, np.int64), np.empty(2 * block, np.int64)
    values, noise = np.empty(_ONESTEP_MAX_N * block), np.empty(2 * block)
    for start in range(0, cases, _ONESTEP_BLOCK):
        count = min(_ONESTEP_BLOCK, cases - start)
        if dynamics._kernel is not None:
            dynamics._kernel.onestep_cases(rng.bit_generator.capsule, count, spread, sigma,
                                           ns, values, pairs, noise)
        else:
            _onestep_cases(rng, count, spread, sigma, ns, values, pairs, noise)
        sizes = ns[:count]
        offsets = np.cumsum(sizes) - sizes
        for n in np.flatnonzero(np.bincount(sizes)).tolist():
            ks = np.flatnonzero(sizes == n)
            rows = values[offsets[ks, None] + np.arange(n)]
            r = np.arange(len(ks))
            i, j = pairs[2 * ks], pairs[2 * ks + 1]
            n_i, n_j = noise[2 * ks], noise[2 * ks + 1]
            x_i, x_j = rows[r, i], rows[r, j]
            mean = rows.mean(axis=1)
            before = np.sum((rows - mean[:, None]) ** 2, axis=1)
            predicted = potentials.one_step_delta(x_i, x_j, n_i, n_j, mean, n)
            s = x_i + x_j
            rows[r, i] = (s + n_j) / 2.0
            rows[r, j] = (s + n_i) / 2.0
            after_mean = rows.mean(axis=1)
            after = np.sum((rows - after_mean[:, None]) ** 2, axis=1)
            scale = np.maximum(np.maximum(before, after), 1.0)
            errors[start + ks] = np.abs(predicted - (after - before)) / scale
    return errors


def _check_onestep_exact() -> tuple[str, bool, str]:
    worst = float(_onestep_errors(make_rng(VERIFY_SEED, 30), 20_000, 100.0, 2.0).max())
    return "one-step-exactness", worst <= 1e-9, f"max rel err = {worst:.2e}"


def _check_delta_mean() -> tuple[str, bool, str]:
    rng = make_rng(VERIFY_SEED, 40)
    n = 100
    pop = dynamics.init_population(rng.uniform(0.0, 50.0, size=n))
    pb = potentials.phi_bar(pop)
    # all of ii (kept as bytes: every index is below n), then jj block by block
    ii = [rng.integers(0, n, size=m).astype(np.uint8) for m in _blocks(200_000)]
    d = (pop.values[i] - pop.values[rng.integers(0, n, size=len(i))] for i in ii)
    count, mean, sd = _moments(x * x / (2.0 * pb) for x in d)
    se = sd / math.sqrt(count)
    gap = abs(mean - 1.0 / n)
    return "delta-mean", gap <= 5.0 * se, f"|mean-1/n| = {gap:.2e} vs 5SE = {5*se:.2e}"


def _config(**fields) -> harness.ExperimentConfig:
    """A sequential config with Gaussian(1) noise and the Real rule; ``fields`` give the rest."""
    return harness.ExperimentConfig(scheduler="sequential", noise=noise.Gaussian(1.0),
                                    rule=dynamics.Real(), **fields)


def _check_decomposition() -> tuple[str, bool, str]:
    cfg = _config(n=100, init=harness.UniformInit(0.0, 100.0**2), steps=1000,
                  master_seed=VERIFY_SEED + 50, record_every=1000,
                  decomposition_intervals=tuple((k * 100, (k + 1) * 100) for k in range(10)))
    violations = 0
    for run in range(20):
        trace = harness.run_single(cfg, run)
        violations += sum(1 for rec in trace.decompositions if not rec.bound_holds)
    return "decomposition-bound", violations == 0, f"violations = {violations}/200"


def _check_replay() -> tuple[str, bool, str]:
    rng_cases = [
        (noise.Gaussian(1.0), dynamics.Real()),
        (noise.DiscreteGeometric(0.8), dynamics.DiscreteRounding()),
        (noise.DiscreteGeometric(0.8), dynamics.Cutoff(1.0, 10.0, rounding=True)),
    ]
    for k, (model, rule) in enumerate(rng_cases):
        rng = make_rng(VERIFY_SEED, 60 + k)
        start = np.full(50, 5.0) if not isinstance(rule, dynamics.Real) else rng.uniform(0, 10, 50)
        pop = dynamics.init_population(start)
        ref = pop.copy()
        events = []
        for _ in range(400):
            events.append(dynamics.sequential_step(pop, model, rule, rng))
        for ev in events:
            dynamics.replay_event(ref, ev, rule)
        if not np.array_equal(pop.values, ref.values):
            return "replay-bitexact", False, f"mismatch for {type(rule).__name__}"
    return "replay-bitexact", True, "3 rule/model combinations"


def _check_determinism() -> tuple[str, bool, str]:
    cfg = _config(n=50, init=harness.UniformInit(0.0, 10.0), steps=2000,
                  master_seed=VERIFY_SEED + 70, record_every=500, runs=2)
    a, b = ([(t.snapshots, t.decompositions, t.final_population.tobytes())
             for t in harness.run_experiment(cfg)] for _ in range(2))
    return "determinism", a == b, "two ensembles, snapshot-identical"


def _check_drift() -> tuple[str, bool, str]:
    cfg = _config(n=100, init=harness.ConstantInit(0.0), steps=2000,
                  master_seed=VERIFY_SEED + 80, record_every=2000, runs=200)
    report = harness.monte_carlo_drift(cfg, runs=200, delta=0.1)
    # smoke tolerance: +-25% on 200 runs; the calibrated check runs 1000
    var_ok = abs(report.empirical_variance - report.theory_variance) <= 0.25 * report.theory_variance
    se = math.sqrt(0.1 * 0.9 / 200)
    upper_ok = report.exceed_fraction_upper <= report.delta + 3.0 * se
    ok = var_ok and upper_ok
    return (
        "drift-law",
        ok,
        f"var {report.empirical_variance:.4f} vs {report.theory_variance:.4f}, "
        f"upper exceed {report.exceed_fraction_upper:.3f}",
    )


def _check_sprime_lln() -> tuple[str, bool, str]:
    cfg = _config(n=100, init=harness.UniformInit(0.0, 10.0), steps=10_000,
                  master_seed=VERIFY_SEED + 90, record_every=10_000,
                  decomposition_intervals=((0, 10_000),))
    mom = noise.moments(cfg.noise)
    trace = harness.run_single(cfg, 0)
    acc = trace.decompositions[0].accumulator
    rate = acc.s_prime / acc.length
    # per-step mean is (1 - 1/n) E[N']/4 because self-pairs exchange nothing
    expected = (1.0 - 1.0 / cfg.n) * mom.e_nprime / 4.0
    se = math.sqrt(mom.var_nprime / 16.0 / acc.length)
    gap = abs(rate - expected)
    return "sprime-lln", gap <= 5.0 * se, f"|rate-E| = {gap:.4f} vs 5SE = {5*se:.4f}"


ALL_CHECKS = (
    _check_noise_zero_mean,
    _check_discrete_pmf,
    _check_quantile_roundtrip,
    _check_identity_suite,
    _check_onestep_exact,
    _check_delta_mean,
    _check_decomposition,
    _check_replay,
    _check_determinism,
    _check_drift,
    _check_sprime_lln,
)


def run_verification(printer=print) -> bool:
    """Run every check; print one line each; True iff all passed."""
    all_ok = True
    for check in ALL_CHECKS:
        name, ok, detail = check()
        printer(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and bool(ok)
    return all_ok
