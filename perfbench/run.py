"""Benchmark of the ``gossipavg`` command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

Run from anywhere; the checkout is the parent of this directory and the
package is taken from its ``src/``.  Each execution is the real CLI in a
fresh child process.  ``--trace 0`` repeats the workload for S seconds and
reports the end-to-end metrics, medians over the executions.  ``--trace 1``
alternates untraced executions with executions under ``tracer.py`` and
reports the per-layer metrics.  Every execution is checked: exit code 0
and an output digest equal to the one recorded in ``digests.json`` for this
seed, or, for a seed with none, equal across the run's executions and with
every trace row obeying the potential identities.  Times are scaled by a
reference loop timed next to each execution (see ``REFERENCE_S``).  The
last line of standard output is the JSON result; metric names and units
come from ``BENCHMARK.json``.  ``--record`` rewrites ``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import PREDICTIONS, analyse
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
MIN_EXECUTIONS = 3
# Start no execution after this many seconds, so a run under heavy load
# still ends well inside the three minutes it is allowed.
LAST_START_S = 110.0
EXECUTION_TIMEOUT_S = 150.0
IDENTITY_RTOL = 1e-9
# wall_s, cpu_s and interactions_per_s are in reference seconds: each
# execution's times are scaled by REFERENCE_S over the mean time of the
# reference loop run just before and just after it.  On a shared host the
# speed drifts by tens of percent within minutes; a loop of the same kind of
# work, timed next to each execution, follows that drift.  setup_s is mostly
# imports and stays unscaled.
REFERENCE_S = 0.2
RECORD_SEEDS = range(0, 32)


@dataclass
class Execution:
    pid: int
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(cmd: list, cwd: Path) -> Execution:
    """Run ``cmd`` to completion; time it from spawn to exit.

    CPU time and peak resident set come from ``wait4``, so they include
    every descendant the child reaped (the pool workers of ``--jobs``).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(cwd / "stdout", "w+b") as out, open(cwd / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(EXECUTION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Execution(proc.pid, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0, out.read(), err.read())


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        for part in (f.relative_to(path).as_posix().encode(), f.read_bytes()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def identity_problem(out: Path, n: int, seed: int) -> str | None:
    """First broken potential identity or metadata field in ``out``, if any."""
    try:
        return _identity_problem(out, n, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _identity_problem(out: Path, n: int, seed: int) -> str | None:
    summary = json.loads((out / "summary.json").read_text())
    if summary["metadata"]["master_seed"] != seed:
        return f"summary.json master_seed {summary['metadata']['master_seed']} != {seed}"
    traces = sorted(out.glob("trace_run*.csv"))
    if len(traces) != len(summary["runs"]):
        return f"{len(traces)} trace files for {len(summary['runs'])} runs"
    for path in traces:
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        for line in rows[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            for lhs, rhs, what in (
                (row["phi"], 2.0 * n * row["phi_bar"], "phi == 2 n phi_bar"),
                (row["tss"], row["phi_bar"] + n * row["drift"] ** 2, "tss == phi_bar + n drift^2"),
            ):
                if abs(lhs - rhs) > IDENTITY_RTOL * max(abs(lhs), abs(rhs), 1e-300):
                    return f"{path.name} step {row['step']:.0f}: {what} broken ({lhs!r} vs {rhs!r})"
    return None


class Judge:
    """Decides whether one execution's output is correct.

    ``expected`` is the recorded digest for this seed, or None; then the
    first execution must pass the identity checks and becomes the reference.
    """

    def __init__(self, wl: Workload, seed: int, expected: str | None):
        self.wl = wl
        self.seed = seed
        self.expected = expected

    def digest(self, ex: Execution, out: Path) -> str:
        if self.wl.writes_files:
            return digest_dir(out)
        return hashlib.sha256(ex.stdout).hexdigest()

    def problem(self, ex: Execution, out: Path) -> str | None:
        if ex.rc != 0:
            return f"exit code {ex.rc}: {ex.stderr.decode(errors='replace')[-500:]}"
        digest = self.digest(ex, out)
        if self.expected is None:
            if self.wl.writes_files:
                problem = identity_problem(out, self.wl.config["n"], self.seed)
            elif not ex.stdout.rstrip().endswith(b"verification PASSED"):
                problem = "verify did not pass"
            else:
                problem = None
            if problem:
                return problem
            self.expected = digest
            return None
        return None if digest == self.expected else f"output digest {digest[:16]} != {self.expected[:16]}"


def altered_copy_detected(judge: Judge, ex: Execution, out: Path, work: Path) -> str:
    """Flip one byte of a copy of a judged-good output; the judge must refuse it."""
    pick = random.Random(judge.seed)
    if judge.wl.writes_files:
        copy = work / "altered"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        target = pick.choice(sorted(p for p in copy.rglob("*") if p.is_file()))
        data = bytearray(target.read_bytes())
        offset = pick.randrange(len(data))
        data[offset] ^= 0x01
        target.write_bytes(bytes(data))
        where = f"{target.name}:{offset}"
        problem = judge.problem(ex, copy)
        shutil.rmtree(copy)
    else:
        data = bytearray(ex.stdout)
        offset = pick.randrange(len(data))
        data[offset] ^= 0x01
        where = f"stdout:{offset}"
        problem = judge.problem(Execution(0, 0, 0.0, 0.0, 0.0, bytes(data), b""), out)
    if problem is None:
        raise SystemExit(f"self-check: a byte altered at {where} was not detected")
    return where


def machine_facts(facts: dict) -> dict:
    """Hardware and software the figures were taken on (Linux /proc and /sys)."""
    caches = {}
    model = platform.processor()
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
        model = next((line.split(":", 1)[1].strip() for line in
                      Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        **fingerprint(facts),
        "digest_policy": "digests.json holds outputs of this code at fixed seeds; a deliberate "
                         "change of the random stream needs a separate benchmark change that "
                         "records new digests",
    }


def fingerprint(facts: dict) -> dict:
    """What the recorded digests depend on besides the code."""
    return {k: facts[k] for k in ("python", "numpy", "numpy_simd", "generator")}


def recorded_digest(wl: Workload, seed: int, facts: dict) -> str | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    if table["fingerprint"] != fingerprint(facts):
        print("note: recorded digests are for another platform "
              f"({table['fingerprint']}); checking identities and repeatability instead")
        return None
    key = "*" if not wl.writes_files else str(seed)
    return table["digests"].get(wl.name, {}).get(key)


def reference_loop() -> float:
    """Fixed work like the sequential engine's: numpy draws, then pair averaging.

    It stays the same whatever the package does, so its time measures only
    the speed of the host.
    """
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(7))
    n = 1000
    values = rng.uniform(0.0, 100.0, n).tolist()
    for _ in range(500):
        pairs = rng.integers(0, n, size=2048).tolist()
        noise = rng.normal(0.0, 1.0, size=2048).tolist()
        for k in range(0, 2048, 2):
            i = pairs[k]
            j = pairs[k + 1]
            if i != j:
                total = values[i] + values[j]
                values[i] = (total + noise[k + 1]) * 0.5
                values[j] = (total + noise[k]) * 0.5
    return time.perf_counter() - start


class Session:
    """Work directory and child runs of one benchmark invocation."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        wl.write_config(self.work)
        self.argv = wl.argv(seed)
        self.out = self.work / "out"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def probe(self) -> tuple[Execution, dict]:
        ex = spawn([sys.executable, str(HERE / "setup_probe.py"), *self.argv], self.work)
        if ex.rc != 0:
            raise SystemExit(f"set-up probe failed: {ex.stderr.decode(errors='replace')}")
        facts = json.loads(ex.stdout.decode().splitlines()[-1])
        package = Path(facts["package"]).resolve()
        if ROOT / "src" not in package.parents:
            raise SystemExit(f"gossipavg was imported from {package}, not from {ROOT / 'src'}")
        return ex, facts

    def execute(self, traced: bool = False) -> Execution:
        shutil.rmtree(self.out, ignore_errors=True)
        if traced:
            spans = self.work / "spans"
            shutil.rmtree(spans, ignore_errors=True)
            spans.mkdir()
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *self.argv]
        else:
            cmd = [sys.executable, "-m", "gossipavg.cli", *self.argv]
        return spawn(cmd, self.work)


def measure(session: Session, judge: Judge, seconds: float, trace: bool) -> dict:
    """Execute until ``seconds`` have passed; return the result fields."""
    start = time.perf_counter()
    plain, traced, setups, layer_runs = [], [], [], []
    references = [] if trace else [reference_loop()]
    failed = 0
    checked = None

    def judged(ex: Execution, label: str) -> None:
        nonlocal failed, checked
        problem = judge.problem(ex, session.out)
        failed += problem is not None
        if problem is None and checked is None:
            checked = altered_copy_detected(judge, ex, session.out, session.work)
        print(f"{label}: wall {ex.wall:.4f} s  cpu {ex.cpu:.4f} s  rss {ex.rss_mb:.1f} MB  "
              + ("ok" if problem is None else f"FAILED: {problem}"), flush=True)

    while True:
        ex = session.execute()
        plain.append(ex)
        judged(ex, f"execution {len(plain)}")
        if trace:
            ex = session.execute(traced=True)
            traced.append(ex)
            judged(ex, f"traced execution {len(traced)}")
            metrics, layers = analyse(session.work / "spans", main_pid=ex.pid)
            metrics["trace.uncovered_s"] = ex.wall - metrics.pop("cli.main_s")
            layer_runs.append((metrics, layers, ex.wall))
        else:
            setups.append(session.probe()[0].wall)
            references.append(reference_loop())
        elapsed = time.perf_counter() - start
        if elapsed > LAST_START_S or (elapsed >= seconds and len(plain) >= MIN_EXECUTIONS):
            break

    attempted = len(plain) + len(traced)
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"self-check: a copy with byte {checked} flipped was judged failed, so one such "
          f"execution would raise fail_frac to {(failed + 1) / (attempted + 1):.4f}"
          if checked else "self-check: not run, no execution passed")
    walls = [e.wall for e in plain]
    result = {"attempted": attempted, "failed": failed, "self_checked": checked is not None}
    if not trace:
        scale = [2.0 * REFERENCE_S / (a + b) for a, b in zip(references, references[1:])]
        print(f"host speed: reference loop median {statistics.median(references):.6f} s "
              f"(n={len(references)}); wall_s and cpu_s below are in reference seconds")
        print(f"raw medians: wall {statistics.median(walls):.6g} s  "
              f"cpu {statistics.median(e.cpu for e in plain):.6g} s  "
              f"setup {statistics.median(setups):.6g} s")
        samples = {
            "wall_s": [w * f for w, f in zip(walls, scale)],
            "interactions_per_s": [session.wl.interactions / (w * f) for w, f in zip(walls, scale)],
            "cpu_s": [e.cpu * f for e, f in zip(plain, scale)],
            "setup_s": setups,
            "peak_rss_mb": [e.rss_mb for e in plain],
        }
        for name, values in samples.items():
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"{name}: median {statistics.median(values):.6g} (n={len(values)}, "
                  f"min {min(values):.6g}, quartiles {q[0]:.6g} {q[2]:.6g}, max {max(values):.6g})")
        result["metrics"] = {name: statistics.median(values) for name, values in samples.items()}
        return result
    names = set().union(*(m for m, _, _ in layer_runs))
    metrics = {k: statistics.median(m.get(k, 0.0) for m, _, _ in layer_runs) for k in sorted(names)}
    metrics["trace_overhead_s"] = statistics.median(e.wall for e in traced) - statistics.median(walls)
    result["metrics"] = metrics
    result["layers"] = {k: tuple(statistics.median(l[k][i] for _, l, _ in layer_runs) for i in (0, 1))
                        for k in layer_runs[0][1]}
    result["traced_wall_s"] = statistics.median(w for _, _, w in layer_runs)
    if metrics["dynamics.interactions"] != session.wl.interactions:
        result["trace_problem"] = (f"traced {metrics['dynamics.interactions']} interactions, "
                                   f"expected {session.wl.interactions}: spans were lost")
    return result


def print_trace_report(result: dict) -> None:
    wall = result["traced_wall_s"]
    print(f"self time by layer, as a share of the traced wall time {wall:.4f} s:")
    print(f"  {'layer':<11} {'CLI process':>20} {'pool workers':>20}")
    for layer, (main, workers) in result["layers"].items():
        print(f"  {layer:<11} {main:10.4f} s {100 * main / wall:6.1f}%"
              f" {workers:10.4f} s {100 * workers / wall:6.1f}%")
    print("layer metrics (median over traced executions) and what each should move:")
    for name, value in result["metrics"].items():
        key = "verify.<check>_s" if name.startswith("verify.") and name.endswith("_s") else name
        print(f"  {name:<36} {value:<22.10g} {PREDICTIONS.get(key, '')}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record output digests at each workload's default seed and seeds "
                        f"{RECORD_SEEDS.start}..{RECORD_SEEDS.stop - 1} into digests.json")
    args = p.parse_args(argv)
    if not args.record and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    return args


def record(names: list) -> int:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"digests": {}}
    for name in names:
        wl = WORKLOADS[name]
        seeds = [wl.default_seed] if not wl.writes_files else \
            sorted({wl.default_seed, *RECORD_SEEDS})
        digests = {}
        for seed in seeds:
            session = Session(wl, seed)
            try:
                _, facts = session.probe()
                fp = fingerprint(facts)
                if table.get("fingerprint", fp) != fp:
                    table = {"digests": {}}
                table["fingerprint"] = fp
                judge = Judge(wl, seed, None)
                ex = session.execute()
                problem = judge.problem(ex, session.out)
                if problem:
                    raise SystemExit(f"{name} seed {seed}: {problem}")
                digests["*" if not wl.writes_files else str(seed)] = judge.expected
                print(f"{name} seed {seed}: {judge.expected}", flush=True)
            finally:
                session.close()
        table["digests"][name] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gossipavg" / "cli.py").is_file():
        print(f"error: no gossipavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record([args.workload] if args.workload else sorted(WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    session = Session(wl, args.seed)
    try:
        _, facts = session.probe()  # also compiles the bytecode before timing
        print("machine: " + json.dumps(machine_facts(facts)))
        expected = recorded_digest(wl, args.seed, facts)
        print(f"workload {wl.name} seed {args.seed}: {' '.join(session.argv)}")
        print(f"reference digest: {'recorded' if expected else 'none recorded; first execution'}")
        result = measure(session, Judge(wl, args.seed, expected), args.seconds, bool(args.trace))
    finally:
        session.close()
    if args.trace:
        print_trace_report(result)
    problem = result.get("trace_problem")
    if problem:
        print(f"trace: {problem}")
    metrics = result["metrics"]
    print(json.dumps({
        "correct": result["failed"] == 0 and result["self_checked"] and problem is None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
