"""Run one ``gossipavg`` command in this process with a span at each layer boundary.

    python3 perfbench/tracer.py SPAN_DIR ARGV...

The hooks wrap public entry points of the package modules from outside
(module and class attributes, plus a proxy around each run's random
generator); nothing under ``src/`` changes, and outputs stay byte-identical
to an untraced run.  A span is ``[name, parent index, start, end, n, x]``:
``n`` counts the work the call did (steps, values, bytes) and ``x`` holds
one extra count (self-pairs drawn, a failed check, an exception).  Each
process keeps its spans in memory and appends them to
``SPAN_DIR/spans-<pid>.pkl`` whenever its outermost span closes, so forked
pool workers report one batch per run and the CLI process one batch at exit.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import sys
import time
import types
from pathlib import Path

perf = time.perf_counter

ADVANCE = ("dynamics.SequentialEngine.advance", "dynamics.SynchronousEngine.advance")


class Recorder:
    """Spans of the current process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.missing: list[str] = []
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1], perf(), 0.0, 0, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, n: int = 0, x: int = 0) -> None:
        rec = self.spans[idx]
        rec[3] = perf()
        rec[4] = n
        rec[5] = x
        self.stack.pop()
        if len(self.stack) == 1:
            self.flush()

    def parent(self) -> str:
        top = self.stack[-1]
        return self.spans[top][0] if top >= 0 else ""

    def flush(self) -> None:
        with open(self.out_dir / f"spans-{os.getpid()}.pkl", "ab") as fh:
            pickle.dump({"spans": self.spans, "missing": self.missing}, fh)
        self.reset()


def traced(rec: Recorder, name: str, fn, count=None):
    """Wrap ``fn`` in a span; ``count(args, kwargs)`` gives its work count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        n = count(args, kwargs) if count is not None else 1
        idx = rec.begin(name)
        failed = 1
        try:
            out = fn(*args, **kwargs)
            failed = 0
            return out
        finally:
            rec.end(idx, n, failed)

    return wrapper


class TracedGenerator:
    """A numpy Generator whose draws are timed when an engine makes them.

    Every call goes to the wrapped generator in the same order, so the
    stream, and every output, is unchanged.
    """

    def __init__(self, rng, rec: Recorder):
        self._rng = rng
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def _draw(self, name, fn, args, kwargs):
        rec = self._rec
        parent = rec.parent()
        if parent not in ADVANCE:
            return fn(*args, **kwargs)
        idx = rec.begin(name)
        out = fn(*args, **kwargs)
        rec.end(idx, out.size)
        if name == "draw.integers" and parent == ADVANCE[0]:
            # pairs are drawn as (i, j) back to back; i == j wastes a step.
            # Counting is tracer work, kept out of the draw and kernel times.
            count_idx = rec.begin("trace.count")
            selfpairs = int((out[0::2] == out[1::2]).sum())
            rec.end(count_idx)
            rec.spans[idx][5] = selfpairs
        return out

    def integers(self, *args, **kwargs):
        return self._draw("draw.integers", self._rng.integers, args, kwargs)

    def random(self, *args, **kwargs):
        return self._draw("draw.random", self._rng.random, args, kwargs)

    def permutation(self, *args, **kwargs):
        return self._draw("draw.permutation", self._rng.permutation, args, kwargs)


def _size(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["size"])


def install(rec: Recorder) -> None:
    """Put the hooks on the gossipavg modules (imported here)."""
    from gossipavg import bounds, cli, dynamics, harness, noise, potentials, seeding, verify

    def patch(owner, attr, name=None, count=None, wrap=None):
        """Replace ``owner.attr`` by ``wrap(it)``, or by a span named ``name``."""
        fn = getattr(owner, attr, None)
        if fn is None:
            rec.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, wrap(fn) if wrap else traced(rec, name, fn, count))

    # cli: parser construction, argument parsing, config load/validate, main
    def parser_hook(build_parser):
        @functools.wraps(build_parser)
        def wrapper():
            idx = rec.begin("cli.build_parser")
            parser = build_parser()
            rec.end(idx)
            parser.parse_args = traced(rec, "cli.parse_args", parser.parse_args)
            return parser

        return wrapper

    patch(cli, "build_parser", wrap=parser_hook)
    patch(harness, "config_from_json_dict", "harness.config_from_json_dict")
    patch(cli, "main", "cli.main")

    # seeding: one PCG64 stream per run, wrapped so engine draws are timed
    def rng_hook(make_rng):
        @functools.wraps(make_rng)
        def wrapper(*args, **kwargs):
            idx = rec.begin("seeding.make_rng")
            rng = make_rng(*args, **kwargs)
            rec.end(idx)
            return TracedGenerator(rng, rec)

        return wrapper

    for module in (seeding, harness, verify):
        patch(module, "make_rng", wrap=rng_hook)

    # noise: channel samples, wherever drawn
    for module in (noise, dynamics):
        patch(module, "sample_batch", "noise.sample_batch", _size)
    patch(noise, "m_quantile", "noise.m_quantile")
    patch(bounds, "m_quantile", "noise.m_quantile")
    patch(bounds, "evaluate_all", "bounds.evaluate_all")

    # dynamics: engine loops, tracker refreshes, the fsum resyncs, step APIs
    patch(dynamics.SequentialEngine, "advance", ADVANCE[0],
          lambda a, k: max(int(a[1]), 0))
    patch(dynamics.SynchronousEngine, "advance", ADVANCE[1],
          lambda a, k: max(int(a[1]), 0) * (a[0].n // 2))
    patch(dynamics.SequentialEngine, "refresh", "dynamics.refresh")
    patch(dynamics.SynchronousEngine, "refresh", "dynamics.refresh")
    for attr in ("sequential_step", "synchronous_step", "replay_event"):
        patch(dynamics, attr, f"dynamics.{attr}")
    fsum = math.fsum

    def traced_fsum(values):
        idx = rec.begin("dynamics.fsum")
        is_list = hasattr(values, "__len__")
        if not is_list:
            values = list(values)
        out = fsum(values)
        rec.end(idx, len(values), int(is_list))
        return out

    math_proxy = types.ModuleType("math")
    math_proxy.__dict__.update(vars(math))
    math_proxy.fsum = traced_fsum
    dynamics.math = math_proxy

    # potentials: every public function, and the decomposition bound check
    for attr in ("tss", "phi_bar", "phi", "snapshot", "one_step_delta", "delta_fraction",
                 "accumulate_decomposition", "check_decomposition_bound"):
        patch(potentials, attr, f"potentials.{attr}")
    patch(harness, "check_decomposition_bound", "potentials.check_decomposition_bound")

    # harness: runs, pool, snapshots, the unread final histogram, writers
    patch(harness, "run_experiment", "harness.run_experiment",
          lambda a, k: (k.get("jobs", a[1] if len(a) > 1 else 1)
                        if a[0].runs > 1 else 1))
    patch(harness, "run_single", "harness.run_single")
    patch(harness, "_snapshot_from_engine", "harness.snapshot")
    patch(harness, "distance_histogram", "harness.distance_histogram")
    def writer_hook(name):
        def wrap(writer):
            @functools.wraps(writer)
            def wrapper(*args, **kwargs):
                idx = rec.begin(name)
                out = writer(*args, **kwargs)
                rec.end(idx, os.path.getsize(args[1]))
                return out

            return wrapper

        return wrap

    for attr in ("emit_csv", "emit_decomposition_csv", "emit_json"):
        patch(harness, attr, wrap=writer_hook(f"harness.{attr}"))

    # verify: one span per check, renamed after the check reports its name
    def traced_check(check):
        @functools.wraps(check)
        def wrapper():
            idx = rec.begin("verify.check")
            name, ok, detail = check()
            rec.spans[idx][0] = f"verify.{name}"
            rec.end(idx, 1, int(not ok))
            return name, ok, detail

        return wrapper

    patch(verify, "ALL_CHECKS", wrap=lambda checks: tuple(traced_check(c) for c in checks))


def main(argv: list) -> int:
    span_dir = Path(argv[0])
    rec = Recorder(span_dir)
    install(rec)
    from gossipavg import cli

    return cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
