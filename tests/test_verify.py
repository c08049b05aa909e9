"""The ``gossipavg verify`` checks: the batched one-step check, the kernel
entry that draws its cases, the samples streamed in blocks and the memory
they leave, and the results."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipavg import (DiscreteGeometric, Gaussian, Zero, dynamics, harness, make_rng,
                       one_step_delta, sample_batch, verify)

needs_kernel = pytest.mark.skipif(dynamics._kernel is None, reason="no compiled kernel")


def _scalar_onestep_errors(rng, cases, spread, sigma):
    """One case at a time, as the check was first written: the oracle."""
    errors, sizes = [], set()
    for _ in range(cases):
        n = int(rng.integers(2, 33))
        values = rng.uniform(-spread, spread, size=n)
        i, j = rng.choice(n, size=2, replace=False)
        n_i, n_j = rng.normal(0.0, sigma, size=2)
        mean = float(values.mean())
        before = float(np.sum((values - mean) ** 2))
        predicted = one_step_delta(values[i], values[j], n_i, n_j, mean, n)
        s = values[i] + values[j]
        values[i] = (s + n_j) / 2.0
        values[j] = (s + n_i) / 2.0
        after = float(np.sum((values - float(values.mean())) ** 2))
        errors.append(float(abs(predicted - (after - before)) / max(before, after, 1.0)))
        sizes.add(n)
    return errors, sizes


@pytest.mark.parametrize("seed, spread, sigma", [(5, 100.0, 2.0), (6, 1e3, 5.0)])
def test_batched_onestep_errors_equal_the_scalar_loop(monkeypatch, seed, spread, sigma):
    """Bit for bit, case by case, across partial and full blocks, with the
    kernel's draws and with numpy's: grouping the cases by n must not change
    a single sum."""
    cases = 3500
    assert verify._ONESTEP_BLOCK < cases < 2 * verify._ONESTEP_BLOCK
    expected, sizes = _scalar_onestep_errors(make_rng(seed), cases, spread, sigma)
    assert sizes == set(range(2, 33))
    for kernel in (dynamics._kernel, None):
        monkeypatch.setattr(dynamics, "_kernel", kernel)
        got = verify._onestep_errors(make_rng(seed), cases, spread, sigma)
        assert [float(e).hex() for e in got] == [e.hex() for e in expected]


def _numpy_cases(rng, cases, spread, sigma):
    """Each case's four numpy calls, one after another: the entry's oracle."""
    ns, values, pairs, noise = [], [], [], []
    for _ in range(cases):
        n = int(rng.integers(2, 33))
        ns.append(n)
        values.extend(rng.uniform(-spread, spread, size=n).tolist())
        pairs.extend(rng.choice(n, size=2, replace=False).tolist())
        noise.extend(rng.normal(0.0, sigma, size=2).tolist())
    return ns, np.array(values).tobytes(), pairs, np.array(noise).tobytes()


def _filled(fill, rng, cases, spread, sigma):
    """What ``fill`` (the kernel entry or its Python form) writes for ``cases``."""
    ns, pairs = np.full(cases, -1, np.int64), np.full(2 * cases, -1, np.int64)
    values, noise = np.full(32 * cases, np.nan), np.full(2 * cases, np.nan)
    fill(rng, cases, spread, sigma, ns, values, pairs, noise)
    return ns.tolist(), values[:ns.sum()].tobytes(), pairs.tolist(), noise.tobytes()


def _kernel_fill(rng, *args):
    dynamics._kernel.onestep_cases(rng.bit_generator.capsule, *args)


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       spread=st.floats(0.0, 1e300) | st.sampled_from([0.0, 5e-324, 8.98e307]),
       sigma=st.floats(0.0, 1e300) | st.sampled_from([0.0, 1.0]),
       cases=st.sampled_from([0, 1, 777, 2 * verify._ONESTEP_BLOCK + 777]))
def test_kernel_onestep_cases_are_numpys_calls(seed, spread, sigma, cases):
    """``onestep_cases`` and its Python form ``_onestep_cases`` write the
    values of rng.integers(2, 33), uniform(-spread, spread, n),
    choice(n, 2, replace=False) and normal(0, sigma, 2), case after case,
    bit for bit, and leave the generator where those calls leave it."""
    rng = make_rng(seed)
    expected = _numpy_cases(rng, cases, spread, sigma)
    for fill in (_kernel_fill, verify._onestep_cases):
        other = make_rng(seed)
        assert _filled(fill, other, cases, spread, sigma) == expected
        assert other.bit_generator.state == rng.bit_generator.state
    if cases >= 777:  # n = 2 draws no index for Floyd's first pick
        assert {2, 32} <= set(expected[0])


@needs_kernel
def test_kernel_onestep_cases_checks_its_arguments_before_it_draws():
    """A short, mistyped or read-only buffer, a negative count, a spread
    whose range numpy's uniform refuses and a negative sigma, which its
    normal refuses, each raise before the first draw."""
    rng = make_rng(0)
    before = rng.bit_generator.state
    cases = 3
    ns, pairs = np.zeros(cases, np.int64), np.zeros(2 * cases, np.int64)
    values, noise = np.zeros(32 * cases), np.zeros(2 * cases)
    frozen = np.zeros(32 * cases)
    frozen.flags.writeable = False
    for args in [
        (cases, 1.0, 1.0, ns[:-1], values, pairs, noise),
        (cases, 1.0, 1.0, ns, values[:-1], pairs, noise),  # room for 32 values a case
        (cases, 1.0, 1.0, ns, values, pairs[:-1], noise),
        (cases, 1.0, 1.0, ns, values, pairs, noise[:-1]),
        (cases, 1.0, 1.0, ns.astype(np.int32), values, pairs, noise),
        (cases, 1.0, 1.0, ns, values.astype(np.float32), pairs, noise),
        (cases, 1.0, 1.0, ns, values, pairs.astype(np.int32), noise),
        (cases, 1.0, 1.0, ns, values, pairs, noise.astype(np.float32)),
        (cases, 1.0, 1.0, ns, frozen, pairs, noise),
        (cases, 1.0, 1.0, ns, values, pairs, frozen[:2 * cases]),
        (-1, 1.0, 1.0, ns, values, pairs, noise),
        (cases, -1.0, 1.0, ns, values, pairs, noise),
        (cases, 1.0, -1.0, ns, values, pairs, noise),
    ]:
        with pytest.raises((TypeError, ValueError)):
            dynamics._kernel.onestep_cases(rng.bit_generator.capsule, *args)
    for spread in (math.inf, -math.inf, math.nan, 1e308):
        with pytest.raises(OverflowError):
            make_rng(0).uniform(-spread, spread)
        with pytest.raises(OverflowError):
            dynamics._kernel.onestep_cases(rng.bit_generator.capsule, cases, spread, 1.0, ns,
                                           values, pairs, noise)
    with pytest.raises(TypeError):
        dynamics._kernel.onestep_cases(rng.bit_generator.capsule, cases, 1.0, 1.0, ns, values,
                                       pairs)
    assert rng.bit_generator.state == before


def test_onestep_check_result_is_golden():
    name, ok, detail = verify._check_onestep_exact()
    assert (name, ok, detail) == ("one-step-exactness", True, "max rel err = 8.33e-15")
    assert type(ok) is bool


def test_run_verification_returns_a_python_bool(monkeypatch):
    """Checks may report numpy booleans; the suite's result is a plain bool."""
    lines = []
    passing = lambda: ("numpy-true", np.True_, "")
    failing = lambda: ("numpy-false", np.False_, "")
    monkeypatch.setattr(verify, "ALL_CHECKS", (passing, passing))
    assert verify.run_verification(lines.append) is True
    monkeypatch.setattr(verify, "ALL_CHECKS", (passing, failing))
    assert verify.run_verification(lines.append) is False
    assert lines == ["ok   numpy-true: ", "ok   numpy-true: ",
                     "ok   numpy-true: ", "FAIL numpy-false: "]


#: What ``gossipavg verify`` prints, line by line; a moved digit fails here.
VERIFY_LINES = [
    "ok   noise-zero-mean: max |mean|/5SE = 0.239",
    "ok   discrete-pmf: max |emp-pmf|/5SE = 0.570",
    "ok   quantile-roundtrip: max CDF gap = 1.87e-10, monotone = True",
    "ok   potential-identities: max rel err = 0.00e+00",
    "ok   one-step-exactness: max rel err = 8.33e-15",
    "ok   delta-mean: |mean-1/n| = 8.40e-06 vs 5SE = 1.29e-04",
    "ok   decomposition-bound: violations = 0/200",
    "ok   replay-bitexact: 3 rule/model combinations",
    "ok   determinism: two ensembles, snapshot-identical",
    "ok   drift-law: var 0.1029 vs 0.1000, upper exceed 0.045",
    "ok   sprime-lln: |rate-E| = 0.0001 vs 5SE = 0.0250",
]


def test_verification_output_is_golden():
    lines = []
    assert verify.run_verification(lines.append) is True
    assert lines == VERIFY_LINES


def test_determinism_check_compares_whole_ensembles(monkeypatch):
    """A second ensemble whose run 1 lost its last snapshot is not identical."""
    run_experiment, calls = harness.run_experiment, []

    def second_call_drops_a_snapshot(*args, **kwargs):
        traces = run_experiment(*args, **kwargs)
        calls.append(len(traces))
        if len(calls) == 2:
            traces[1].snapshots.pop()
        return traces

    monkeypatch.setattr(harness, "run_experiment", second_call_drops_a_snapshot)
    assert verify._check_determinism()[:2] == ("determinism", False)
    assert calls == [2, 2]


MEMORY_PROBE = """
import gossipavg.verify, numpy.random
def high_water_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = high_water_kib()
ok = gossipavg.verify.run_verification(lambda line: None)
print(ok, high_water_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_verification_holds_no_whole_sample():
    """The suite streams its Monte Carlo samples in blocks, so its memory
    high-water mark stays near what the imports left; held whole, its samples
    of 200 000 values and their temporaries took about 9 MB more.  The
    mark is Linux's VmHWM, the process's own: a child's ``ru_maxrss`` starts
    at the high-water mark of the process that spawned it, here the test
    runner's, which hides the growth."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", MEMORY_PROBE], env=env, capture_output=True,
                          text=True, check=True)
    ok, grown_kib = done.stdout.split()
    assert ok == "True"
    assert int(grown_kib) <= 4 * 1024


def _odd_blocks(total):
    """Block sizes from 1 to 16383 values, most of them odd, that add up to ``total``."""
    sizes, pattern = [], itertools.cycle((1, 777, 2, 4095, 16383, 3))
    while total > 0:
        sizes.append(min(next(pattern), total))
        total -= sizes[-1]
    return sizes


@pytest.mark.parametrize("draw", [
    lambda rng, m: sample_batch(Gaussian(1.0), rng, m),
    lambda rng, m: sample_batch(DiscreteGeometric(0.8), rng, m),
    lambda rng, m: sample_batch(Zero(), rng, m),
    lambda rng, m: rng.integers(0, 100, size=m),
], ids=["gaussian", "discrete", "zero", "integers"])
def test_draws_do_not_depend_on_how_they_are_split(draw):
    """What lets verify draw its samples in blocks: 200 000 values drawn in
    blocks, the suite's or odd ones, are the bytes of one call and leave the
    generator in the same state."""
    whole_rng = make_rng(verify.VERIFY_SEED, 7)
    whole = draw(whole_rng, 200_000)
    for sizes in (verify._blocks(200_000), _odd_blocks(200_000)):
        assert sum(sizes) == 200_000 and len(set(sizes)) > 1
        rng = make_rng(verify.VERIFY_SEED, 7)
        parts = [draw(rng, m) for m in sizes]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert rng.bit_generator.state == whole_rng.bit_generator.state


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_block_moments_match_numpy_on_the_whole_sample(offset):
    """``_moments`` adds in another order than np.mean and np.std over the
    whole sample, so the two may differ by rounding only: 1e-12 relative,
    about 4500 ulps.  At an offset of 1e4, plain per-block sums of x and x^2
    miss the standard deviation by about 1e-8 and fail here."""
    x = make_rng(3).normal(offset, 1.0, 200_000)
    for sizes in (verify._blocks(200_000), _odd_blocks(200_000)):
        count, mean, sd = verify._moments(np.split(x, np.cumsum(sizes)[:-1]))
        assert count == 200_000
        assert mean == pytest.approx(float(np.mean(x)), rel=1e-12, abs=1e-12)
        assert sd == pytest.approx(float(np.std(x)), rel=1e-12)
