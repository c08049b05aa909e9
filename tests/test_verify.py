"""The ``gossipavg verify`` checks: the batched one-step check, the kernel
entry that draws its cases, and the results."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipavg import dynamics, make_rng, one_step_delta, verify

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
