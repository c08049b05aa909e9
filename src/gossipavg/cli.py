"""Command-line front end.

Subcommands: ``run`` (execute a config), ``replicate-fig-a`` /
``replicate-fig-b`` (built-in experiment presets), ``histogram``
(distance-distribution study of a config), ``bounds`` (closed-form bound
values as JSON), ``verify`` (invariant and Monte Carlo smoke suite).

Exit codes: 0 success; 1 verification failure or an output i/o error; 2
argument/config errors, an array larger than memory (``MemoryError``), and a
tracker that drifted from its exact recomputation (``NumericalDriftError``:
the config asks for more precision than float64 has, as with values far
from zero and close together).

The console script and ``python -m gossipavg.cli`` run ``console_main``,
which ends the process without the interpreter's teardown; ``main`` returns
its exit code to a caller in Python.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from . import __version__, bounds, harness
from .errors import (ConfigError, InsufficientDataError, NumericalDriftError, ParameterError,
                     QuantileRangeError)
from .noise import DiscreteGeometric, Gaussian, Zero


def _parse_set(pairs: list[str]) -> list[tuple[list[str], object]]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer of more digits than Python reads
            value = raw
        out.append((key.split("."), value))
    return out


def _apply_overrides(config_dict: dict, overrides: list[str]) -> dict:
    for path, value in _parse_set(overrides):
        node = config_dict
        for part in path[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"--set: unknown config path {'.'.join(path)!r}")
            node = node[part]
        leaf = path[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"--set: unknown config path {'.'.join(path)!r}")
        node[leaf] = value
    return config_dict


def _resolve_config(args) -> harness.ExperimentConfig:
    try:
        with open(args.config) as fh:
            config_dict = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {args.config}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"--config: {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(config_dict, dict):
        raise ConfigError(f"--config: {args.config} must hold a JSON object")
    if args.seed is not None:
        config_dict["master_seed"] = args.seed
    elif "master_seed" not in config_dict:
        import secrets  # only a run without a seed needs it

        chosen = secrets.randbits(63)
        config_dict["master_seed"] = chosen
        print(f"master_seed not given; chose {chosen}")
    config_dict = _apply_overrides(config_dict, args.set or [])
    return harness.config_from_json_dict(config_dict)


def _noise_from_arg(spec: str):
    kind, _, param = spec.partition(":")
    if kind == "zero":
        return Zero()
    if kind not in ("gaussian", "discrete"):
        raise ConfigError(f"--noise: expected gaussian[:sigma2], discrete[:p] or zero, got {spec!r}")
    try:
        value = float(param or (1.0 if kind == "gaussian" else 0.8))
    except ValueError:
        raise ConfigError(f"--noise: {kind}: expected a number, got {param!r}") from None
    return Gaussian(value) if kind == "gaussian" else DiscreteGeometric(value)


def _evaluate_bounds(where: str, *args, **kwargs) -> dict:
    """``bounds.evaluate_all``, printing each warning it gives as one
    ``warning: ...`` line on stderr; a noise whose quantiles pass the float
    range is a ``ConfigError`` of the argument ``where``."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            values = bounds.evaluate_all(*args, **kwargs)
        except QuantileRangeError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return values


#: Failure budget of the bounds in ``run``'s summary.json.
_RUN_DELTA = 0.1


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    bound_values = _evaluate_bounds("noise", config.noise, config.n, config.steps, _RUN_DELTA,
                                    harness.initial_phi_bar(config))
    out_dir = Path(args.out)
    entries = harness.run_experiment(config, jobs=args.jobs,
                                     per_run=functools.partial(harness.run_and_emit, out_dir))
    summary = out_dir / "summary.json"
    harness.emit_json(entries, summary, config, bound_values)
    final = entries[0]["final"]
    print(f"runs: {len(entries)}  final phi_bar (run 0): {final['phi_bar']:.6g}  "
          f"final drift (run 0): {final['drift']:.6g}")
    print(f"summary: {summary}")
    return 0


def _run_preset(config: harness.ExperimentConfig, out_dir: Path) -> harness.TraceRecord:
    """Run a preset's one run, then write its trace.csv and summary.json into
    ``out_dir``, created only once the run has succeeded."""
    trace = harness.run_experiment(config)[0]
    out_dir.mkdir(parents=True, exist_ok=True)
    harness.emit_csv(trace, out_dir / "trace.csv")
    harness.emit_json([harness.run_entry(trace)], out_dir / "summary.json", config)
    return trace


def _cmd_replicate_fig_a(args) -> int:
    out_dir = Path(args.out)
    seed = args.seed if args.seed is not None else harness.FIG_A_SEED
    trace = _run_preset(harness.fig_a_config(n=args.n, master_seed=seed), out_dir)
    _emit_distance_tail(harness.tail_histogram(trace.final_population, harness.FIG_A_BINS),
                        out_dir)
    return 0


def _cmd_replicate_fig_b(args) -> int:
    seed = args.seed if args.seed is not None else harness.FIG_B_SEED
    trace = _run_preset(harness.fig_b_config(master_seed=seed), Path(args.out))
    final = trace.snapshots[-1]
    print(f"running average: start {trace.snapshots[0].running_avg:.4g} "
          f"-> final {final.running_avg:.4g}")
    return 0


def _emit_distance_tail(hist: harness.Histogram, out_dir: Path) -> None:
    """Write histogram.csv of a run's final absolute distances (``tail_histogram``)
    and, where the tail has the data for ``survival_fit``, fit.json; print the
    fit or why there is none."""
    harness._write_csv(out_dir / "histogram.csv", ("bin_left", "bin_right", "count"),
                       "%.17g,%.17g,%d", zip(hist.bin_edges, hist.bin_edges[1:], hist.counts),
                       eol="\n")
    try:
        slope, r2 = harness.survival_fit(hist)
    except InsufficientDataError as exc:
        print(f"no tail fit: {exc}")
        return
    print(f"distance-tail fit: slope = {slope:.4g}, r^2 = {r2:.4f}")
    with open(out_dir / "fit.json", "w") as fh:
        json.dump({"slope": slope, "r_squared": r2}, fh, indent=2)
        fh.write("\n")


def _cmd_histogram(args) -> int:
    if args.bins < 2:
        raise ConfigError(f"--bins: must be >= 2, got {args.bins}")
    if args.bins >= harness.MAX_ARRAY_VALUES:  # bins + 1 edges, in one float64 array
        raise ConfigError(f"--bins: {args.bins} bins take more edges than a numpy array can "
                          f"hold (at most {harness.MAX_ARRAY_VALUES - 1} bins)")
    config = _resolve_config(args)
    trace = harness.run_single(config, 0)  # the only run the histogram reads
    hist = harness.tail_histogram(trace.final_population, args.bins)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit_distance_tail(hist, out_dir)
    print(f"histogram: {out_dir / 'histogram.csv'}")
    return 0


def _cmd_bounds(args) -> int:
    model = _noise_from_arg(args.noise)
    for name in ("n", "t"):
        value = getattr(args, name)
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"--{name}: an integer of {len(str(abs(value)))} digits is "
                              "beyond the float range") from None
    values = _evaluate_bounds("--noise", model, args.n, args.t, args.delta, args.phi0,
                              gamma=args.gamma, c=args.c)
    print(json.dumps(values, indent=2))
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # only this command needs it

    ok = verify.run_verification()
    print("verification PASSED" if ok else "verification FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipavg",
        description="Noisy-gossip averaging simulator and bound verifier",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True, one_run=False):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config JSON")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config field (dotted path, repeatable)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--jobs", type=int, default=harness.usable_cpus(),
                       help="accepted and ignored: this command makes one run" if one_run
                       else "parallel runs (default: available cores)")

    p_run = sub.add_parser("run", help="run an experiment config, emit CSV + JSON")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_fa = sub.add_parser("replicate-fig-a", help="distance-distribution experiment")
    add_common(p_fa, config_required=False, one_run=True)
    p_fa.add_argument("--n", type=int, default=10**4, help="population size (default 10^4)")
    p_fa.set_defaults(func=_cmd_replicate_fig_a)

    p_fb = sub.add_parser("replicate-fig-b", help="bounded-range drift experiment")
    add_common(p_fb, config_required=False, one_run=True)
    p_fb.set_defaults(func=_cmd_replicate_fig_b)

    p_hist = sub.add_parser("histogram", help="run a config and fit the distance tail")
    add_common(p_hist, one_run=True)
    p_hist.add_argument("--bins", type=int, default=60, help="histogram bins (default 60)")
    p_hist.set_defaults(func=_cmd_histogram)

    p_bounds = sub.add_parser("bounds", help="print closed-form bound values as JSON")
    p_bounds.add_argument("--noise", default="gaussian:1.0",
                          help="gaussian[:sigma2] | discrete[:p] | zero")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--t", type=int, required=True)
    p_bounds.add_argument("--delta", type=float, default=0.1)
    p_bounds.add_argument("--phi0", type=float, default=0.0)
    p_bounds.add_argument("--gamma", type=float, default=None)
    p_bounds.add_argument("--c", type=float, default=bounds.DEFAULT_TIME_CONSTANT)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the invariant/Monte Carlo suite")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
        return args.func(args)
    except (ConfigError, ParameterError, NumericalDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy raises it for an array larger than the memory it can get
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    """Run ``main()``, flush stdout and stderr and end the process with
    ``os._exit``: a command is a short process, and tearing numpy's modules
    down after it took 21-28 ms on a 2-core Xeon.  A flush that fails is
    main's ``i/o error`` line and exit 1.  An exception or ``SystemExit``
    leaving main (argparse's errors, ``--help``, ``--version``) takes the
    interpreter's usual exit."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 1
    try:
        sys.stderr.flush()
    except OSError:  # nowhere left to report it
        pass
    os._exit(code)


if __name__ == "__main__":
    console_main()
