"""Potentials, the one-step identity, and the interval decomposition."""

import math

import numpy as np
import pytest

from gossipavg import (
    Cutoff,
    DecompositionAccumulator,
    DiscreteGeometric,
    DiscreteRounding,
    Gaussian,
    Interaction,
    ModelMismatchError,
    ParameterError,
    Real,
    StepEvent,
    accumulate_decomposition,
    check_decomposition_bound,
    delta_fraction,
    init_population,
    make_rng,
    moments,
    one_step_delta,
    phi,
    phi_bar,
    sequential_step,
    snapshot,
    tss,
)
from gossipavg import dynamics


def test_tss_examples():
    assert tss(init_population([1.0, 3.0])) == 2.0
    pop = init_population([1.0, 3.0])
    pop.values = np.array([2.0, 4.0])  # initial average stays 2
    assert tss(pop) == 4.0
    assert tss(init_population([7.0] * 5)) == 0.0


def test_phi_bar_examples():
    assert phi_bar(init_population([2.0, 4.0])) == 2.0
    assert phi_bar(init_population([5.0] * 4)) == 0.0
    assert phi_bar(init_population([0.0, 0.0, 3.0])) == 6.0


def test_phi_examples():
    assert phi(init_population([0.0, 2.0])) == 8.0


def test_phi_matches_pairwise_oracle():
    rng = make_rng(40)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        pop = init_population(rng.uniform(-50, 50, n))
        v = pop.values
        oracle = float(np.sum((v[:, None] - v[None, :]) ** 2))
        assert phi(pop) == pytest.approx(oracle, rel=1e-9)


def test_snapshot_identities():
    rng = make_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        pop = init_population(rng.uniform(-1e3, 1e3, n))
        pop.values = pop.values + rng.normal(0, 10, n)  # drift off the initial average
        s = snapshot(pop)
        assert s.phi == pytest.approx(2 * n * s.phi_bar, rel=1e-9)
        assert s.tss == pytest.approx(s.phi_bar + n * s.drift**2, rel=1e-9)


def test_snapshot_at_step_zero():
    pop = init_population([1.0, 2.0, 6.0])
    s = snapshot(pop)
    assert s.step == 0
    assert s.drift == 0.0
    assert s.tss == s.phi_bar


def test_one_step_delta_hand_example():
    # x = (0,0,3), pair holds values (0,3), no noise: potential 6 -> 1.5
    assert one_step_delta(0.0, 3.0, 0.0, 0.0, 1.0, 3) == -4.5


def test_one_step_delta_noop():
    assert one_step_delta(5.0, 5.0, 0.0, 0.0, 2.0, 7) == 0.0


def test_one_step_delta_matches_recomputation():
    rng = make_rng(42)
    worst = 0.0
    for _ in range(20_000):
        n = int(rng.integers(2, 33))
        values = rng.uniform(-100, 100, n)
        i, j = rng.choice(n, 2, replace=False)
        n_i, n_j = rng.normal(0, 3, 2)
        mean = float(values.mean())
        before = float(np.sum((values - mean) ** 2))
        predicted = one_step_delta(values[i], values[j], n_i, n_j, mean, n)
        s = values[i] + values[j]
        values[i] = (s + n_j) / 2
        values[j] = (s + n_i) / 2
        after = float(np.sum((values - values.mean()) ** 2))
        scale = max(before, after, 1.0)
        worst = max(worst, abs(predicted - (after - before)) / scale)
    assert worst <= 1e-9


def test_delta_fraction_flat_population():
    pop = init_population([2.0] * 10)
    assert delta_fraction(pop, 0, 1) == pytest.approx(0.1)


def test_delta_fraction_two_agents():
    pop = init_population([0.0, 2.0])
    assert delta_fraction(pop, 0, 1) == 1.0


def test_delta_fraction_bounds_and_mean():
    rng = make_rng(43)
    n = 100
    pop = init_population(rng.uniform(0, 50, n))
    pb = phi_bar(pop)
    ii = rng.integers(0, n, 10**6)
    jj = rng.integers(0, n, 10**6)
    d = pop.values[ii] - pop.values[jj]
    deltas = d * d / (2 * pb)
    assert deltas.min() >= 0.0
    assert deltas.max() <= 1.0
    se = float(np.std(deltas)) / math.sqrt(len(deltas))
    assert abs(float(np.mean(deltas)) - 1.0 / n) <= 5 * se


def test_pair_mid_distance_facts():
    """E[Z] = 0 and E[Z^2] <= phi_bar/n for Z = (x_i+x_j)/2 - mean."""
    rng = make_rng(44)
    n = 100
    pop = init_population(rng.uniform(-20, 20, n))
    pb = phi_bar(pop)
    mean = pop.running_average()
    ii = rng.integers(0, n, 10**6)
    jj = rng.integers(0, n, 10**6)
    z = (pop.values[ii] + pop.values[jj]) / 2 - mean
    se = float(np.std(z)) / math.sqrt(len(z))
    assert abs(float(np.mean(z))) <= 5 * se
    assert float(np.mean(z * z)) <= pb / n * (1 + 5e-3)


def test_accumulate_zero_noise_step():
    pop = init_population([0.0, 0.0, 3.0])
    acc = DecompositionAccumulator(t0=0, t1=0)
    event = StepEvent([Interaction(0, 2, 0.0, 0.0, 0, 0)])
    acc = accumulate_decomposition(acc, event, pop)
    assert acc.s_prime == 0.0
    assert acc.s_star == 0.0
    assert acc.s_minus == pytest.approx(delta_fraction(pop, 0, 2))
    assert acc.t1 == 1


def test_accumulate_rejects_synchronous_events():
    pop = init_population([1.0, 2.0, 3.0, 4.0])
    event = StepEvent(
        [Interaction(0, 1, 0.0, 0.0, 0, 0), Interaction(2, 3, 0.0, 0.0, 0, 0)]
    )
    with pytest.raises(ModelMismatchError):
        accumulate_decomposition(DecompositionAccumulator(0, 0), event, pop)


def test_accumulate_matches_run():
    """Event-by-event accumulation over a live run; sums track the step data."""
    rng = make_rng(45)
    model = Gaussian(1.0)
    pop = init_population(rng.uniform(0, 20, 50))
    acc = DecompositionAccumulator(t0=0, t1=0)
    pb0 = phi_bar(pop)
    steps = 400
    for _ in range(steps):
        pre = pop.copy()
        event = sequential_step(pop, model, Real(), rng)
        acc = accumulate_decomposition(acc, event, pre)
    assert acc.t1 == steps
    assert acc.s_prime >= 0.0
    assert acc.s_minus <= steps
    assert check_decomposition_bound(acc, pb0, phi_bar(pop))


def test_sprime_law_of_large_numbers():
    rng = make_rng(46)
    model = Gaussian(1.0)
    mom = moments(model)
    n = 100
    pop = init_population(rng.uniform(0, 10, n))
    acc = DecompositionAccumulator(t0=0, t1=0)
    steps = 10_000
    for _ in range(steps):
        pre = pop.copy()
        event = sequential_step(pop, model, Real(), rng)
        acc = accumulate_decomposition(acc, event, pre)
    # self-pairs exchange nothing, hence the (1 - 1/n) factor
    expected = (1 - 1 / n) * mom.e_nprime / 4
    se = math.sqrt(mom.var_nprime / 16 / steps)
    assert abs(acc.s_prime / steps - expected) <= 5 * se


def test_check_bound_zero_noise_equality():
    # one noiseless step: exact change is -delta * phi_bar, bound is tight
    pop = init_population([0.0, 1.0, 5.0])
    pb0 = phi_bar(pop)
    pre = pop.copy()
    event = StepEvent([Interaction(0, 2, 0.0, 0.0, 0, 0)])
    acc = accumulate_decomposition(DecompositionAccumulator(0, 0), event, pre)
    from gossipavg import replay_event

    replay_event(pop, event, Real())
    assert check_decomposition_bound(acc, pb0, phi_bar(pop))
    delta = acc.s_minus
    assert phi_bar(pop) == pytest.approx((1 - delta) * pb0, rel=1e-9)


def test_check_bound_zero_start():
    acc = DecompositionAccumulator(t0=0, t1=10, s_prime=2.0, s_star=0.3, s_minus=1.0)
    assert check_decomposition_bound(acc, 0.0, 2.2)
    assert not check_decomposition_bound(acc, 0.0, 2.5)


def test_check_bound_rejects_empty_interval():
    with pytest.raises(ParameterError):
        check_decomposition_bound(DecompositionAccumulator(5, 5), 1.0, 1.0)


def test_zero_length_interval_sums():
    acc = DecompositionAccumulator(t0=3, t1=3)
    assert (acc.s_prime, acc.s_star, acc.s_minus) == (0.0, 0.0, 0.0)
    assert acc.length == 0


def test_one_step_delta_is_the_trackers_phi_bar_change():
    """Bit for bit the change the engines' phi_bar tracker applies, compiled
    and reference loop alike.  Integer values and noises keep each exchange
    exact, so the tracker's effective offsets are the noises themselves; the
    values are small next to the noises, so that the rounding of the
    (n_i + n_j)^2 / (4n) term is not lost in the larger terms."""
    rng = make_rng(48)
    flags = dynamics._rule_flags(Real())

    def pair_chunk(values, pairs, noise, coins, flags, decomp, state, offsets):
        dynamics._kernel.pair_chunk(values, pairs, noise, coins, 2, flags, decomp, state, offsets)

    runs = [dynamics._pairs_reference]
    if dynamics._kernel is not None:
        runs.append(pair_chunk)
    roundings_differ = 0
    for _ in range(2000):
        n = int(rng.integers(2, 200))
        values = rng.integers(-3, 4, n).astype(float)
        i, j = (int(k) for k in rng.choice(n, 2, replace=False))
        n_i, n_j = (float(v) for v in rng.integers(-50, 51, 2))
        mean = float(values.mean())
        expected = one_step_delta(values[i], values[j], n_i, n_j, mean, n)
        pairs, noise = np.array([i, j]), np.array([n_i, n_j])
        for run in runs:
            state = np.array([mean, 0.0, 0.0, 0.0, 0.0])
            run(values.copy(), pairs, noise, None, flags, True, state, None)
            assert state[1].hex() == float(expected).hex()
        k = (n_i + n_j) ** 2
        roundings_differ += k / (4.0 * n) != k * (0.25 / n)
    assert roundings_differ > 0  # the cases where the tracker's rounding of k/(4n) matters


#: (s_prime, s_star, s_minus) after 300 accumulated steps, as float.hex.
ACCUMULATED_SUMS = {
    "real": ("0x1.38c8dcade71d2p+7", "0x1.0590361de4be9p+3", "0x1.fa9fefff78a0dp+2"),
    "discrete_rounding": ("0x1.1800000000000p+7", "-0x1.b3f6dbecfc140p+1",
                          "0x1.0acd38252c7b8p+3"),
    "cutoff": ("0x1.38c8dcade71d2p+7", "0x1.cb932f3f06a67p+2", "0x1.fa08223c9d860p+2"),
    "cutoff_rounding": ("0x1.b100000000000p+6", "-0x1.9333333333348p+1",
                        "0x1.16ecbc36acec2p+3"),
}


@pytest.mark.parametrize(
    "name, rule, model",
    [
        ("real", Real(), Gaussian(1.0)),
        ("discrete_rounding", DiscreteRounding(), DiscreteGeometric(0.8)),
        ("cutoff", Cutoff(1.0, 10.0), Gaussian(1.0)),
        ("cutoff_rounding", Cutoff(1.0, 10.0, rounding=True), DiscreteGeometric(0.8)),
    ],
)
def test_accumulate_decomposition_keeps_its_sums(name, rule, model):
    """The sums are unchanged bit for bit from when accumulate_decomposition
    had its own arithmetic; the cutoff-with-rounding run starts flat, so it
    takes the 1/n branch of S^-."""
    rng = make_rng(47)
    flat = name == "cutoff_rounding"
    pop = init_population(np.full(40, 10.0) if flat else rng.uniform(1.0, 10.0, 40))
    acc = DecompositionAccumulator(0, 0)
    for _ in range(300):
        pre = pop.copy()
        acc = accumulate_decomposition(acc, sequential_step(pop, model, rule, rng), pre)
    assert acc.t1 == 300
    assert (acc.s_prime.hex(), acc.s_star.hex(), acc.s_minus.hex()) == ACCUMULATED_SUMS[name]
