"""The ``gossipavg verify`` checks: the batched one-step check and the results."""

import numpy as np
import pytest

from gossipavg import make_rng, one_step_delta, verify


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
def test_batched_onestep_errors_equal_the_scalar_loop(seed, spread, sigma):
    """Bit for bit, case by case, across partial and full blocks: grouping the
    cases by n must not change a single sum."""
    cases = 3500
    expected, sizes = _scalar_onestep_errors(make_rng(seed), cases, spread, sigma)
    assert sizes == set(range(2, 33))
    got = verify._onestep_errors(make_rng(seed), cases, spread, sigma)
    assert [float(e).hex() for e in got] == [e.hex() for e in expected]


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
