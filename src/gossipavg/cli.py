"""Command-line front end.

Subcommands: ``run`` (execute a config), ``replicate-fig-a`` /
``replicate-fig-b`` (built-in experiment presets), ``histogram``
(distance-distribution study of a config), ``bounds`` (closed-form bound
values as JSON), ``verify`` (invariant and Monte Carlo smoke suite).

Exit codes: 0 success; 1 verification failure or an output i/o error; 2
argument/config errors, and a tracker that drifted from its exact
recomputation (``NumericalDriftError``: the config asks for more precision
than float64 has, as with values far from zero and close together).
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
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
    with open(args.config) as fh:
        try:
            config_dict = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"--config: {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(config_dict, dict):
        raise ConfigError(f"--config: {args.config} must hold a JSON object")
    if args.seed is not None:
        config_dict["master_seed"] = args.seed
    elif "master_seed" not in config_dict:
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


def _evaluate_bounds(*args, **kwargs) -> dict:
    """``bounds.evaluate_all``, printing each warning it gives as one
    ``warning: ...`` line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        values = bounds.evaluate_all(*args, **kwargs)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return values


#: Failure budget of the bounds in ``run``'s summary.json.
_RUN_DELTA = 0.1


def _emit_run_outputs(traces, config, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        harness.emit_csv(trace, out_dir / f"trace_run{trace.run_index:04d}.csv")
        if trace.decompositions:
            harness.emit_decomposition_csv(
                trace, out_dir / f"decomposition_run{trace.run_index:04d}.csv"
            )
    phi0 = traces[0].snapshots[0].phi_bar
    bound_values = _evaluate_bounds(config.noise, config.n, config.steps, _RUN_DELTA, phi0)
    summary_path = out_dir / "summary.json"
    harness.emit_json(traces, summary_path, config, bound_values)
    return summary_path


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    # The summary's bounds cannot be computed for too large a noise scale;
    # find that out before the run, not after it.  Whether they can does not
    # depend on phi0.
    try:
        bounds.z_value(bounds.bound_inputs(config.noise, config.n, config.steps, _RUN_DELTA,
                                           0.0, quantile_divisor=4))
    except QuantileRangeError as exc:
        raise ConfigError(f"noise: {exc}") from None
    traces = harness.run_experiment(config, jobs=args.jobs)
    summary = _emit_run_outputs(traces, config, Path(args.out))
    final = traces[0].snapshots[-1]
    print(f"runs: {len(traces)}  final phi_bar (run 0): {final.phi_bar:.6g}  "
          f"final drift (run 0): {final.drift:.6g}")
    print(f"summary: {summary}")
    return 0


def _cmd_replicate_fig_a(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else harness.FIG_A_SEED
    config = harness.fig_a_config(n=args.n, master_seed=seed)
    trace = harness.run_experiment(config)[0]
    harness.emit_csv(trace, out_dir / "trace.csv")
    harness.emit_json([trace], out_dir / "summary.json", config)
    _emit_distance_tail(trace, harness.FIG_A_BINS, out_dir)
    return 0


def _cmd_replicate_fig_b(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else harness.FIG_B_SEED
    trace = harness.replicate_fig_b(master_seed=seed)
    config = harness.fig_b_config(master_seed=seed)
    harness.emit_csv(trace, out_dir / "trace.csv")
    harness.emit_json([trace], out_dir / "summary.json", config)
    final = trace.snapshots[-1]
    print(f"running average: start {trace.snapshots[0].running_avg:.4g} "
          f"-> final {final.running_avg:.4g}")
    return 0


def _emit_distance_tail(trace: harness.TraceRecord, bins: int, out_dir: Path) -> None:
    """Write histogram.csv of the final absolute distances and, where the tail
    has the data for ``survival_fit``, fit.json; print the fit or why there is none."""
    hist = harness.tail_histogram(trace.final_population, bins)
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
    config = _resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = harness.run_single(config, 0)  # the only run the histogram reads
    _emit_distance_tail(trace, args.bins, out_dir)
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
    try:
        values = _evaluate_bounds(
            model, args.n, args.t, args.delta, args.phi0, gamma=args.gamma, c=args.c
        )
    except QuantileRangeError as exc:
        raise ConfigError(f"--noise: {exc}") from None
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

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config JSON")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config field (dotted path, repeatable)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel runs (default: available cores)")

    p_run = sub.add_parser("run", help="run an experiment config, emit CSV + JSON")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_fa = sub.add_parser("replicate-fig-a", help="distance-distribution experiment")
    add_common(p_fa, config_required=False)
    p_fa.add_argument("--n", type=int, default=10**4, help="population size (default 10^4)")
    p_fa.set_defaults(func=_cmd_replicate_fig_a)

    p_fb = sub.add_parser("replicate-fig-b", help="bounded-range drift experiment")
    add_common(p_fb, config_required=False)
    p_fb.set_defaults(func=_cmd_replicate_fig_b)

    p_hist = sub.add_parser("histogram", help="run a config and fit the distance tail")
    add_common(p_hist)
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
        return args.func(args)
    except (ConfigError, ParameterError, NumericalDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
