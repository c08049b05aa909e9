"""Command-line interface end to end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gossipavg import dynamics, harness
from gossipavg.errors import NumericalDriftError
from gossipavg.cli import build_parser, main

BASE_CONFIG = {
    "n": 40,
    "init": {"kind": "uniform", "lo": 0.0, "hi": 10.0},
    "scheduler": "sequential",
    "noise": {"kind": "gaussian", "sigma2": 1.0},
    "rule": {"kind": "real"},
    "steps": 1000,
    "master_seed": 5,
    "record_every": 250,
    "decomposition_intervals": [[0, 100]],
    "runs": 2,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def test_run_writes_outputs(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", "1"]) == 0
    assert (out / "trace_run0000.csv").exists()
    assert (out / "trace_run0001.csv").exists()
    assert (out / "decomposition_run0000.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metadata"]["master_seed"] == 5
    assert len(summary["runs"]) == 2


def test_run_twice_byte_identical(tmp_path, config_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(config_path), "--out", str(out1), "--jobs", "1"])
    main(["run", "--config", str(config_path), "--out", str(out2), "--jobs", "1"])
    for name in ("trace_run0000.csv", "trace_run0001.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_output(tmp_path, config_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(config_path), "--out", str(out1), "--jobs", "1"])
    main(["run", "--config", str(config_path), "--out", str(out2), "--seed", "6", "--jobs", "1"])
    assert (out1 / "trace_run0000.csv").read_bytes() != (out2 / "trace_run0000.csv").read_bytes()
    assert json.loads((out2 / "summary.json").read_text())["metadata"]["master_seed"] == 6


def test_set_override(tmp_path, config_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "run", "--config", str(config_path), "--out", str(out),
                "--set", "steps=500", "--set", "noise.sigma2=4.0",
                "--set", "decomposition_intervals=[]", "--jobs", "1",
            ]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metadata"]["config"]["steps"] == 500
    assert summary["metadata"]["config"]["noise"]["sigma2"] == 4.0


def test_set_unknown_path_is_an_error(tmp_path, config_path):
    assert (
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "x"),
              "--set", "bogus.path=1"])
        == 2
    )


def test_bad_config_value_exits_2(tmp_path, config_path):
    assert (
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "x"),
              "--set", "steps=-5"])
        == 2
    )


@pytest.mark.parametrize("command", ["run", "histogram"])
@pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                          (".", "Is a directory")])
def test_unreadable_config_exits_2_naming_the_argument(tmp_path, capsys, command, name, reason):
    path = tmp_path / name
    assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --config: cannot read {path}: {reason}\n"


def test_unknown_flag_exits_2(config_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_absent_seed_is_drawn_printed_and_recorded(tmp_path, capsys):
    config = dict(BASE_CONFIG)
    del config["master_seed"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    printed = capsys.readouterr().out
    assert "master_seed not given; chose" in printed
    chosen = int(printed.split("chose")[1].split()[0])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metadata"]["master_seed"] == chosen


def test_bounds_zero_noise(capsys):
    assert main(["bounds", "--noise", "zero", "--n", "100", "--t", "1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b_prime"] == 0.0
    assert payload["z"] == 1.0
    assert payload["convergence_time"] is None


def test_bounds_gaussian_keys(capsys):
    assert (
        main(
            ["bounds", "--noise", "gaussian:1.0", "--n", "1000", "--t", "10000",
             "--delta", "0.1", "--phi0", "1e6", "--gamma", "0.5"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    for key in ("b_prime", "z", "b_star", "s_minus_tail", "convergence_time", "smooth"):
        assert key in payload


def test_histogram_command(tmp_path, config_path):
    out = tmp_path / "hist"
    assert main(["histogram", "--config", str(config_path), "--out", str(out),
                 "--bins", "20", "--set", "n=400", "--set", "steps=4000",
                 "--set", "record_every=4000", "--set", "decomposition_intervals=[]",
                 "--jobs", "1"]) == 0
    lines = (out / "histogram.csv").read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 400


def test_histogram_runs_only_the_run_it_reads(tmp_path, config_path, monkeypatch):
    """histogram.csv is run 0's, so the config's other runs are never made."""
    calls = []
    run_single = harness.run_single

    def spy(config, run_index):
        calls.append(run_index)
        return run_single(config, run_index)

    monkeypatch.setattr(harness, "run_single", spy)
    assert main(["histogram", "--config", str(config_path), "--out", str(tmp_path / "hist"),
                 "--bins", "20", "--set", "runs=3", "--jobs", "1"]) == 0
    assert calls == [0]


def test_histogram_refuses_a_single_bin_before_any_step(tmp_path, config_path, capsys,
                                                        monkeypatch):
    for name in ("run_single", "run_experiment"):
        monkeypatch.setattr(harness, name, lambda *a, **k: pytest.fail("the run began"))
    out = tmp_path / "x"
    assert main(["histogram", "--config", str(config_path), "--out", str(out), "--bins", "1",
                 "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --bins: ") and err.count("\n") == 1
    assert not out.exists()


def test_replicate_fig_a_small(tmp_path):
    out = tmp_path / "figa"
    assert main(["replicate-fig-a", "--n", "2000", "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "histogram.csv").exists()
    fit = json.loads((out / "fit.json").read_text())
    assert fit["slope"] < 0


def test_replicate_fig_a_without_enough_tail_data_writes_no_fit(tmp_path, capsys):
    out = tmp_path / "figa"
    assert main(["replicate-fig-a", "--n", "10", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["histogram.csv", "summary.json", "trace.csv"]
    assert capsys.readouterr().out.startswith("no tail fit: ")


@pytest.mark.parametrize(
    "args,named",
    [
        (["--n", "0"], "n must"),
        (["--n", "-5"], "n must"),
        (["--noise", "gaussian:abc"], "--noise: "),
        (["--noise", "discrete:x"], "--noise: "),
        (["--phi0", "inf"], "phi0 must"),
        (["--phi0", "nan"], "phi0 must"),
        (["--c", "nan"], "c must"),
        (["--c", "-1"], "c must"),
        (["--c", "inf"], "c must"),
        (["--n", "1" + "0" * 400], "--n: "),
        (["--n", "-1" + "0" * 400], "--n: "),
        (["--t", "1" + "0" * 400], "--t: "),
        (["--noise", "gaussian:1e308"], "--noise: gaussian variance 1e+308 "),
        (["--noise", "gaussian:1e307", "--t", "1000000"], "--noise: gaussian variance 1e+307 "),
        (["--noise", "gaussian:1e160"], "--noise: variance 1e+160 is too large: "),
        (["--noise", "discrete:1e-20"], "--noise: discrete p = 1e-20 is too small: "),
        (["--noise", "discrete:1e-5"], "--noise: discrete p = 1e-05 is too small: "),
        (["--noise", "discrete:0.8", "--t", "1000000000000"],
         "--noise: discrete p = 0.8 at t = 1000000000000: the N' quantile lies in the tail "
         "of mass 1e-12 "),
    ],
)
def test_bounds_malformed_number_exits_2_naming_the_argument(capsys, args, named):
    assert main(["bounds", "--n", "100", "--t", "1000", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}")


@pytest.mark.parametrize("noise", [
    {"kind": "gaussian", "sigma2": 1e200},  # the bounds' z squares past the float range
    {"kind": "gaussian", "sigma2": 1e307},  # and so do the potentials' sums of squares
    {"kind": "discrete_geometric", "p": 1e-5},  # the N' table would take terabytes
])
def test_run_refuses_a_noise_scale_the_bounds_cannot_take_before_any_step(
        tmp_path, config_path, capsys, monkeypatch, noise):
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: pytest.fail("the run began"))
    out = tmp_path / "x"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", "1",
                 "--set", f"noise={json.dumps(noise)}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: noise: ") and err.count("\n") == 1
    assert not out.exists()


def test_run_refuses_a_time_the_discrete_pmf_cannot_resolve_before_any_step(
        tmp_path, config_path, capsys, monkeypatch):
    """At p = 0.8 the tabulated pmf of N' ends at tail mass 1e-12, short of
    the quantile that the bounds need at t = 10^12."""
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: pytest.fail("the run began"))
    out = tmp_path / "x"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", "1",
                 "--set", 'noise={"kind": "discrete_geometric", "p": 0.8}',
                 "--set", "steps=1000000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: noise: discrete p = 0.8 at t = 1000000000000: the N' quantile lies in the "
        "tail of mass 1e-12 beyond the tabulated pmf\n")
    assert not out.exists()


def test_bounds_small_noise_warning_is_one_line(capsys):
    assert main(["bounds", "--noise", "zero", "--n", "100", "--t", "1000"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["standing_assumption_ok"] is False
    assert captured.err == ("warning: n E[N^2] = 0 < 1; "
                            "the bounds assume unit noise scale\n")


def test_run_small_noise_warning_is_one_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, "noise": {"kind": "zero"}, "runs": 1}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ("warning: n E[N^2] = 0 < 1; "
                                       "the bounds assume unit noise scale\n")
    assert (out / "summary.json").exists()


def test_verify_passes():
    assert main(["verify"]) == 0


def test_cli_import_leaves_pool_and_build_modules_unloaded():
    """Only `--jobs > 1`, a kernel build, `verify` and reading a trace CSV
    need these; the other commands do not pay for importing them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, gossipavg.cli; print(sorted(m for m in ('concurrent.futures', "
             "'multiprocessing', 'subprocess', 'gossipavg.verify', 'csv') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def _env_without_blas_threads(**extra) -> dict:
    """This environment with `src` on the path and OPENBLAS_NUM_THREADS
    removed (importing gossipavg here has set it), plus ``extra``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(extra)
    return env


def test_package_import_loads_blas_with_one_thread_unless_the_caller_chose():
    """OpenBLAS starts a spinning worker per extra core when numpy loads
    unless the variable is set first; a value the caller set is kept."""
    probe = ("import os, gossipavg.cli; task = '/proc/self/task'; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
             "len(os.listdir(task)) if os.path.isdir(task) else 'absent')")
    done = subprocess.run([sys.executable, "-c", probe], env=_env_without_blas_threads(),
                          capture_output=True, text=True, check=True)
    value, threads = done.stdout.split()
    assert value == "1"
    if threads != "absent":
        assert threads == "1"
    done = subprocess.run([sys.executable, "-c", probe],
                          env=_env_without_blas_threads(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split()[0] == "2"


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Above 10^4 values a threaded `np.dot` splits the snapshot's `tss`
    across threads, and the sum then depends on the host's core count."""
    config = dict(BASE_CONFIG, n=20000, init={"kind": "uniform", "lo": 0.0, "hi": 100.0},
                  steps=40000, record_every=20000, master_seed=3, runs=1,
                  decomposition_intervals=[])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "gossipavg.cli", "run", "--config", str(path),
                        "--out", str(out), "--jobs", "1"],
                       env=_env_without_blas_threads(**extra), capture_output=True, check=True)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == ["summary.json", "trace_run0000.csv"]
    assert outputs[0] == outputs[1]


def test_jobs_defaults_to_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert build_parser().parse_args(["run", "--config", "c.json"]).jobs == 1


@pytest.mark.parametrize(
    "override,field",
    [
        ("init.hi=inf", "init"),
        ("noise.sigma2=inf", "noise"),
        ("noise=gaussian", "noise"),
        ("init=[0, 10]", "init"),
        ("rule=real", "rule"),
        ("n=2.5", "n"),
        ("steps=200.7", "steps"),
        ("runs=1.5", "runs"),
        ("runs=true", "runs"),
        ("master_seed=1.5", "master_seed"),
        ('rule={"kind": "cutoff", "vmin": 0, "vmax": 10, "rounding": "false"}', "rule"),
        ('rule={"kind": "cutoff", "vmin": 0, "vmax": 10, "round": true}', "rule"),
        ("n=abc", "n"),
        ('noise.sigma2="abc"', "noise"),
        ("init.lo=abc", "init"),
        ("decomposition_intervals=[[0]]", "decomposition_intervals"),
        ("master_seed=abc", "master_seed"),
        ("n=1e400", "n"),
        ("steps=1e400", "steps"),
    ],
)
def test_malformed_config_exits_2_naming_the_field(tmp_path, config_path, capsys, override,
                                                    field):
    out = tmp_path / "x"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", "1",
                 "--set", override]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_integer_beyond_the_float_range_exits_2(tmp_path, config_path, capsys):
    """n = 10^400 is a JSON integer no float holds; the init check names it."""
    out = tmp_path / "x"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", "1",
                 "--set", "n=1" + "0" * 400]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: init: ") and "n=1" + "0" * 400 in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "config.json", "--set", f"n={2**63}"],
    ["histogram", "--config", "config.json", "--set", f"n={2**63}"],
    ["replicate-fig-a", "--n", str(10**20)],
])
def test_n_beyond_numpys_array_range_exits_2(tmp_path, monkeypatch, capsys, argv):
    """numpy refuses arrays of these lengths before allocating them; the
    config check refuses them first, naming n."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main([*argv, "--out", "out", "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_replicate_fig_a_refusing_its_n_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "figa"
    assert main(["replicate-fig-a", "--n", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: n: ")
    assert not out.exists()


def test_json_that_python_cannot_read_exits_2(tmp_path, config_path, capsys):
    """A config file that is not JSON or not an object, and an integer longer
    than Python converts, are config errors, not tracebacks."""
    out = tmp_path / "x"
    broken = tmp_path / "broken.json"
    for text in ('{"n": 40,', "[1, 2]"):
        broken.write_text(text)
        assert main(["run", "--config", str(broken), "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: --config: ")
    assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", "1",
                 "--set", "n=1" + "0" * 5000]) == 2
    assert capsys.readouterr().err.startswith("error: n: expected an integer")
    assert not out.exists()


def test_run_byte_identical_without_kernel(tmp_path, config_path, monkeypatch):
    """The compiled kernel and the Python reference loop and fsum write the same bytes."""
    variants = (
        [],
        ["--set", 'rule={"kind": "cutoff", "vmin": 0, "vmax": 10, "rounding": true}',
         "--set", 'noise={"kind": "discrete_geometric", "p": 0.8}'],
        ["--set", "scheduler=synchronous", "--set", "decomposition_intervals=[]",
         "--set", "n=41", "--set", "steps=60", "--set", "record_every=7"],
        # n > 4096: the mean tracker is resynced every round
        ["--set", "scheduler=synchronous", "--set", "decomposition_intervals=[]",
         "--set", "n=4100", "--set", "steps=6", "--set", "record_every=4"],
    )
    outputs = []
    for kernel in (dynamics._kernel, None):
        monkeypatch.setattr(dynamics, "_kernel", kernel)
        files = {}
        for k, extra in enumerate(variants):
            out = tmp_path / f"{kernel is None}-{k}"
            assert main(["run", "--config", str(config_path), "--out", str(out),
                         "--jobs", "1", *extra]) == 0
            files.update({(k, p.name): p.read_bytes() for p in out.iterdir()})
        outputs.append(files)
    assert len(outputs[0]) == 16
    assert outputs[0] == outputs[1]


def test_init_whose_squares_overflow_exits_2(tmp_path, config_path, capsys):
    """n = 100 values up to 1e300 have a finite sum but infinite potentials."""
    out = tmp_path / "x"
    argv = ["run", "--config", str(config_path), "--out", str(out), "--jobs", "1",
            "--set", "n=100", "--set", "init.lo=0"]
    assert main([*argv, "--set", "init.hi=1e300"]) == 2
    assert capsys.readouterr().err.startswith("error: init: ")
    assert not out.exists()
    assert main([*argv, "--set", "init.hi=1e150"]) == 0
    assert "inf" not in (out / "trace_run0000.csv").read_text()


def test_tracker_drift_exits_2_with_one_line(tmp_path, capsys):
    """Values near 1e12 that differ by at most 10 leave the potential tracker
    too few digits: the error keeps the tracker, the step and both values."""
    config = dict(BASE_CONFIG, n=100, init={"kind": "uniform", "lo": 1e12, "hi": 1e12 + 10},
                  steps=5000, record_every=5000, decomposition_intervals=[[0, 5000]], runs=1)
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out), "--seed", "1",
                 "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: potential tracker drifted: 38.23122319355599 vs "
                   "38.24231190979481 at step 5000\n")
    assert not out.exists()


def test_tracker_drift_in_a_pool_worker_exits_2_with_one_line(tmp_path, capsys):
    """The drift of run 0 comes back from the pool as the same one line, and
    no summary.json is written (CSVs of other runs may be)."""
    config = dict(BASE_CONFIG, n=100, init={"kind": "uniform", "lo": 1e12, "hi": 1e12 + 10},
                  steps=5000, record_every=5000, decomposition_intervals=[[0, 5000]], runs=2)
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert main(["run", "--config", str(path), "--out", str(out), "--seed", "1",
                 "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: potential tracker drifted: 38.23122319355599 vs "
                   "38.24231190979481 at step 5000\n")
    assert not (out / "summary.json").exists()


def test_run_jobs_1_and_2_write_the_same_bytes(tmp_path, config_path):
    """Pool workers write the CSVs of the runs they make; with more runs than
    workers, handed out several at a time, the files are those of one process."""
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", jobs,
                     "--set", "runs=17", "--set", "steps=400", "--set", "record_every=100"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 2 * 17 + 1
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["histogram", "replicate-fig-a", "replicate-fig-b"])
def test_one_run_commands_say_jobs_is_ignored(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert "accepted and ignored: this command makes one run" in capsys.readouterr().out


#: Small ``run`` configs (BASE_CONFIG with these fields replaced): both
#: schedulers; Real, DiscreteRounding and Cutoff with rounding; Gaussian and
#: Zero noise only, since DiscreteGeometric draws go through numpy's SIMD
#: ``log1p``; sequential runs past the 1024-step resync, with a decomposition
#: window across one, and synchronous runs past the ``4096 // n`` round resync.
GOLDEN_CONFIGS = {
    "seq-real-gaussian": {"steps": 3000, "record_every": 1500,
                          "decomposition_intervals": [[0, 3000]]},
    "seq-rounding-gaussian": {"rule": {"kind": "discrete_rounding"},
                              "noise": {"kind": "gaussian", "sigma2": 2.0}, "steps": 2500,
                              "record_every": 2500, "decomposition_intervals": [[0, 1500]]},
    "seq-cutoff-zero": {"rule": {"kind": "cutoff", "vmin": 1.0, "vmax": 9.0, "rounding": True},
                        "noise": {"kind": "zero"}, "steps": 1500, "record_every": 1500,
                        "decomposition_intervals": [[200, 1400]]},
    "sync-real-gaussian": {"scheduler": "synchronous", "n": 41, "steps": 250,
                           "record_every": 30, "decomposition_intervals": []},
    "sync-cutoff-gaussian": {"scheduler": "synchronous", "n": 40, "steps": 240,
                             "record_every": 40, "decomposition_intervals": [],
                             "rule": {"kind": "cutoff", "vmin": 1.0, "vmax": 9.0,
                                      "rounding": True},
                             "noise": {"kind": "gaussian", "sigma2": 4.0}},
    "sync-rounding-zero": {"scheduler": "synchronous", "n": 4100, "steps": 6,
                           "record_every": 2, "decomposition_intervals": [],
                           "rule": {"kind": "discrete_rounding"}, "noise": {"kind": "zero"}},
}

#: sha256 over the sorted (file name, bytes) of each config's output directory.
GOLDEN_DIGESTS = {
    "seq-cutoff-zero":
        "45f9fde4d6a29b2c471e27480e2330829a288a73dfb63c2171bd8366fe548a32",
    "seq-real-gaussian":
        "58b1df7e78730f75cbf8aa1bb280a0eff344668c0abd1f145377ed057ba8f617",
    "seq-rounding-gaussian":
        "d999cd052223644ec8f58bba5e28d338daaa0b699cd6c9eb466e4eb7e5fe2826",
    "sync-cutoff-gaussian":
        "e92b9eaed713ccdc6caafcddf6b51b8584ac3f9ba8f6a0ba894d062ed9ff9a4d",
    "sync-real-gaussian":
        "f48594626684d89eff85f8fb7f4182f4c6461ab1bf36357bc5fe4943a7057654",
    "sync-rounding-zero":
        "2481476086dbc2bbdb02fdddccb25ec025d46a698a6dc4d63bb4ac3ea57123ce",
}


@pytest.mark.parametrize("name,compiled,jobs", [
    *(pytest.param(name, True, "1", id=name) for name in sorted(GOLDEN_CONFIGS)),
    *(pytest.param(name, False, "1", id=f"{name}-python") for name in sorted(GOLDEN_CONFIGS)),
    *(pytest.param(name, True, "2", id=f"{name}-jobs2") for name in sorted(GOLDEN_CONFIGS)),
])
def test_run_outputs_keep_their_bytes(tmp_path, monkeypatch, name, compiled, jobs):
    """``run`` writes the same trace, decomposition and summary bytes as when
    these digests were recorded, with the compiled kernel and with the Python
    loop and sums, and with the CSVs written by pool workers: a refactor of
    the engines, the bounds or the output path that claims "same bytes out"
    is held to it here."""
    if not compiled:
        monkeypatch.setattr(dynamics, "_kernel", None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, **GOLDEN_CONFIGS[name]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 0
    assert _dir_digest(out) == GOLDEN_DIGESTS.get(name)


#: The one-run commands' argv (``histogram`` on BASE_CONFIG at runs=3), each
#: writing into ``out`` below the working directory.
ONE_RUN_ARGV = {
    "replicate-fig-a": ["replicate-fig-a", "--n", "2000"],
    "replicate-fig-b": ["replicate-fig-b"],
    "histogram": ["histogram", "--config", "config.json", "--bins", "40", "--set", "runs=3"],
}

#: sha256 over the sorted (file name, bytes) of each command's output
#: directory, then its stdout.
ONE_RUN_DIGESTS = {
    "histogram":
        "5ead52a033c39232424bf6df2bb2631ccfb3e263e18ef0626dee10e0199f19b7",
    "replicate-fig-a":
        "dd096da576c98942ad0d3a3f075d00aaeb8d444efc48c9790e3ec6cd8037f39a",
    "replicate-fig-b":
        "e21f7a5bd3ada692723fb539bdda2170ec16cc92d5a5a068f238b24cd2481408",
}


@pytest.mark.parametrize("command", sorted(ONE_RUN_ARGV))
def test_one_run_commands_keep_their_bytes(tmp_path, monkeypatch, capsys, command):
    """``replicate-fig-a``, ``replicate-fig-b`` and ``histogram`` write and
    print the same bytes as when these digests were recorded."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main([*ONE_RUN_ARGV[command], "--out", "out"]) == 0
    assert _dir_digest(tmp_path / "out", capsys.readouterr().out) == ONE_RUN_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(ONE_RUN_ARGV))
def test_one_run_command_whose_run_fails_leaves_no_out_dir(tmp_path, monkeypatch, capsys,
                                                           command):
    def drifted(config, run_index):
        raise NumericalDriftError("potential tracker drifted: 1.0 vs 2.0 at step 3")

    monkeypatch.setattr(harness, "run_single", drifted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main([*ONE_RUN_ARGV[command], "--out", "out"]) == 2
    assert capsys.readouterr().err == "error: potential tracker drifted: 1.0 vs 2.0 at step 3\n"
    assert not (tmp_path / "out").exists()


def _dir_digest(out: Path, stdout: str = "") -> str:
    """sha256 over the sorted (file name, bytes) of ``out``, then ``stdout``."""
    digest = hashlib.sha256()
    for p in sorted(out.iterdir()):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    digest.update(stdout.encode())
    return digest.hexdigest()


#: Every command that takes ``--jobs``, each writing into ``out`` below the working directory.
JOBS_ARGV = {"run": ["run", "--config", "config.json"], **ONE_RUN_ARGV}


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(JOBS_ARGV))
def test_jobs_below_1_exits_2_before_any_step(tmp_path, monkeypatch, capsys, command, jobs):
    monkeypatch.setattr(harness, "run_single", lambda *a, **k: pytest.fail("the run began"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main([*JOBS_ARGV[command], "--out", "out", "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: --jobs: must be >= 1, got {jobs}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "config.json", "--seed", str(2**64)],
    ["run", "--config", "config.json", "--set", "master_seed=-1"],
    ["histogram", "--config", "config.json", "--seed", str(2**64)],
    ["replicate-fig-a", "--seed", str(2**64)],
    ["replicate-fig-b", "--seed", "-1"],
])
def test_master_seed_outside_64_bits_exits_2_before_any_step(tmp_path, monkeypatch, capsys,
                                                             argv):
    """Seeds 2^64 and -1 would alias seeds 0 and 2^64 - 1; they are refused."""
    monkeypatch.setattr(harness, "run_single", lambda *a, **k: pytest.fail("the run began"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main([*argv, "--out", "out", "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: master_seed: must be in [0, 2^64), got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bins", [np.iinfo(np.intp).max // 8, 2**62, 10**30])
def test_histogram_refuses_more_bins_than_numpy_holds_before_any_step(tmp_path, config_path,
                                                                      capsys, monkeypatch, bins):
    """bins + 1 float64 edges must fit a numpy array; the refusal allocates nothing."""
    monkeypatch.setattr(harness, "run_single", lambda *a, **k: pytest.fail("the run began"))
    out = tmp_path / "x"
    assert main(["histogram", "--config", str(config_path), "--out", str(out),
                 "--bins", str(bins), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --bins: {bins} bins ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,where", [
    ("run", "run_single"),
    ("histogram", "run_single"),
    ("histogram", "tail_histogram"),
    ("replicate-fig-a", "run_single"),
    ("replicate-fig-b", "run_single"),
])
def test_an_array_larger_than_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys,
                                                           command, where):
    """numpy's MemoryError, stood in for here, is one ``error: ...`` line and
    exit 2, and ``--out`` is not created: the histogram is made before it."""
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr(harness, where, too_big)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main([*JOBS_ARGV[command], "--out", "out", "--jobs", "1"]) == 2
    assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 7.28 TiB for "
                                       "an array with shape (1000000000000,) and data type "
                                       "float64\n")
    assert not (tmp_path / "out").exists()
