"""Per-layer metrics from the spans ``tracer.py`` writes.

Layers are the package modules: cli, seeding, noise, dynamics, potentials,
bounds, harness and verify.  ``PREDICTIONS`` records, for each layer
metric, which end-to-end metric it should move and on which workload.  The
shares quoted are of the traced wall time at the default seeds on a 2-core
Xeon (Python 3.11, numpy 2.4); ``README.md`` has the table.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from pathlib import Path

from tracer import ADVANCE

PREDICTIONS = {
    "cli.parse_s": "setup_s on every workload",
    "seeding.make_rng_s": "wall_s on ensemble (one stream per run)",
    "seeding.streams": "count; one per run",
    "noise.sample_s": "wall_s on fig-b (discrete inverse CDF, 6%); no change predicted on sync-trace",
    "noise.samples": "count",
    "noise.samples_per_s": "wall_s on fig-b",
    "dynamics.kernel_s": "wall_s on fig-b (75%), ensemble (56% of worker time), "
                         "sync-trace (46%); not verify (11%)",
    "dynamics.interactions": "count; equals the workload's interactions",
    "dynamics.kernel_interactions_per_s": "interactions_per_s on fig-b",
    "dynamics.selfpair_frac": "wasted draws on fig-b and ensemble (1/n)",
    "dynamics.draw_s": "wall_s on fig-b (4%) and ensemble (8% of worker time)",
    "dynamics.draw_values": "count",
    "dynamics.draw_calls": "count",
    "dynamics.chunk_mean": "1024-step resync cap on fig-b, 100-step snapshot cap on ensemble",
    "dynamics.resync_s": "wall_s on sync-trace (3%, each resync is followed by a refresh); "
                         "fig-b 1%, no change predicted",
    "dynamics.resyncs": "count",
    "dynamics.fsum_s": "wall_s on sync-trace (26%): every math.fsum of the engines",
    "dynamics.refresh_s": "wall_s on sync-trace (25%) and ensemble (13% of worker time)",
    "dynamics.refresh_calls": "count",
    "dynamics.fsum_values": "count; values summed by math.fsum",
    "dynamics.drift_errors": "count; 0 unless a tracker drifts",
    "harness.snapshot_s": "wall_s on sync-trace (7%) and ensemble (7% of worker time)",
    "harness.snapshots": "count",
    "harness.emit_s": "wall_s on ensemble (10%, in the CLI process)",
    "harness.emit_bytes": "count",
    "harness.emit_files": "count",
    "harness.final_summary_s": "wall_s on ensemble (3% of worker time; a histogram nobody reads)",
    "harness.run_setup_s": "wall_s on ensemble (2% of worker time)",
    "harness.runs": "count",
    "harness.parallel_efficiency": "wall_s against cpu_s on ensemble (0.94)",
    "bounds.evaluate_s": "wall_s of the run workloads (once per command, <0.1%)",
    "bounds.evaluate_calls": "count",
    "bounds.quantile_s": "wall_s on verify",
    "bounds.quantile_calls": "count",
    "potentials.bound_check_s": "wall_s on verify and ensemble (<0.1%)",
    "potentials.bound_checks": "count",
    "potentials.calls": "count",
    "verify.checks": "count",
    "verify.checks_failed": "count; 0 on this code",
    "verify.<check>_s": "wall_s on verify (one-step-exactness 60%, drift-law 16%)",
    "trace_overhead_s": "none: traced minus untraced wall_s",
    "trace.uncovered_s": "none: traced wall time no span covers (start-up, exit)",
    "trace.spans": "none: spans recorded",
    "trace.missing_hooks": "none: hooks whose target no longer exists",
}

LAYERS = ("cli", "seeding", "noise", "dynamics", "potentials", "bounds", "harness", "verify")


def load_spans(span_dir: Path) -> tuple[list, set]:
    """All span batches written under ``span_dir`` as (pid, spans) pairs."""
    batches, missing = [], set()
    for path in sorted(span_dir.glob("spans-*.pkl")):
        pid = int(path.stem.split("-")[1])
        with open(path, "rb") as fh:
            while True:
                try:
                    batch = pickle.load(fh)
                except EOFError:
                    break
                batches.append((pid, batch["spans"]))
                missing.update(batch["missing"])
    return batches, missing


def _layer(name: str) -> str:
    return "dynamics" if name.startswith("draw.") else name.split(".", 1)[0]


def analyse(span_dir: Path, main_pid: int) -> tuple[dict, dict]:
    """(metrics, layer self times) of one traced execution.

    Self times are (CLI process, pool workers) pairs; in the CLI process the
    harness row includes the time ``run_experiment`` waits for the pool.
    """
    batches, missing = load_spans(span_dir)
    tot = defaultdict(float)
    cnt = defaultdict(int)
    sum_n = defaultdict(int)
    sum_x = defaultdict(int)
    self_main = defaultdict(float)
    self_workers = defaultdict(float)
    kernel_s = resync_s = final_s = setup_s = quantile_s = 0.0
    resyncs = 0
    main_wall = 0.0
    pooled = []  # [start, end, jobs, busy] of run_experiment in the CLI process
    worker_runs = []  # (start, end) of run_single in pool workers
    nspans = 0
    for pid, spans in batches:
        nspans += len(spans)
        child = [0.0] * len(spans)
        first_advance = {}
        experiments = []  # (start, end, jobs, index) in this batch
        in_process = defaultdict(float)  # run_single time under each run_experiment
        for k, (name, parent, t0, t1, n, x) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                if name in ADVANCE and parent not in first_advance:
                    first_advance[parent] = t0
        for k, (name, parent, t0, t1, n, x) in enumerate(spans):
            dur = t1 - t0
            pname = spans[parent][0] if parent >= 0 else ""
            tot[name] += dur
            cnt[name] += 1
            sum_n[name] += n
            sum_x[name] += x
            (self_main if pid == main_pid else self_workers)[_layer(name)] += dur - child[k]
            if name in ADVANCE:
                kernel_s += dur - child[k]
            elif name == "dynamics.fsum" and pname in ADVANCE:
                resync_s += dur
                resyncs += x
            elif name == "harness.distance_histogram" and pname == "harness.run_single":
                final_s += dur
            elif name == "noise.m_quantile" and pname != "noise.m_quantile":
                quantile_s += dur
            elif name == "harness.run_single":
                setup_s += first_advance.get(k, t1) - t0
                if pid != main_pid:
                    worker_runs.append((t0, t1))
                elif pname == "harness.run_experiment":
                    in_process[parent] += dur
            elif name == "harness.run_experiment" and pid == main_pid:
                experiments.append((t0, t1, n, k))
            elif name == "cli.main":
                main_wall += dur
        pooled.extend([t0, t1, jobs, in_process[k]] for t0, t1, jobs, k in experiments)
    for t0, t1 in worker_runs:
        for rec in pooled:
            if rec[0] <= t0 and t1 <= rec[1]:
                rec[3] += t1 - t0
    capacity = sum((t1 - t0) * jobs for t0, t1, jobs, _ in pooled)
    busy = sum(b for *_, b in pooled)

    interactions = sum(sum_n[a] for a in ADVANCE)
    batches_drawn = cnt["draw.integers"] + cnt["draw.permutation"]
    draws = ("draw.integers", "draw.random", "draw.permutation")
    emits = ("harness.emit_csv", "harness.emit_decomposition_csv", "harness.emit_json")
    potentials = [k for k in cnt if k.startswith("potentials.")]
    checks = sorted(k for k in cnt if k.startswith("verify."))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.parse_s": tot["cli.build_parser"] + tot["cli.parse_args"]
        + tot["harness.config_from_json_dict"],
        "seeding.make_rng_s": tot["seeding.make_rng"],
        "seeding.streams": cnt["seeding.make_rng"],
        "noise.sample_s": tot["noise.sample_batch"],
        "noise.samples": sum_n["noise.sample_batch"],
        "noise.samples_per_s": ratio(sum_n["noise.sample_batch"], tot["noise.sample_batch"]),
        "dynamics.kernel_s": kernel_s,
        "dynamics.interactions": interactions,
        "dynamics.kernel_interactions_per_s": ratio(interactions, kernel_s),
        "dynamics.selfpair_frac": ratio(sum_x["draw.integers"], sum_n[ADVANCE[0]]),
        "dynamics.draw_s": sum(tot[d] for d in draws),
        "dynamics.draw_values": sum(sum_n[d] for d in draws),
        "dynamics.draw_calls": sum(cnt[d] for d in draws),
        "dynamics.chunk_mean": ratio(interactions, batches_drawn),
        "dynamics.resync_s": resync_s,
        "dynamics.fsum_s": tot["dynamics.fsum"],
        "dynamics.resyncs": resyncs,
        "dynamics.refresh_s": tot["dynamics.refresh"],
        "dynamics.refresh_calls": cnt["dynamics.refresh"],
        "dynamics.fsum_values": sum_n["dynamics.fsum"],
        "dynamics.drift_errors": sum_x["dynamics.refresh"],
        "harness.snapshot_s": tot["harness.snapshot"],
        "harness.snapshots": cnt["harness.snapshot"],
        "harness.emit_s": sum(tot[e] for e in emits),
        "harness.emit_bytes": sum(sum_n[e] for e in emits),
        "harness.emit_files": sum(cnt[e] for e in emits),
        "harness.final_summary_s": final_s,
        "harness.run_setup_s": setup_s,
        "harness.runs": cnt["harness.run_single"],
        "harness.parallel_efficiency": ratio(busy, capacity),
        "bounds.evaluate_s": tot["bounds.evaluate_all"],
        "bounds.evaluate_calls": cnt["bounds.evaluate_all"],
        "bounds.quantile_s": quantile_s,
        "bounds.quantile_calls": cnt["noise.m_quantile"],
        "potentials.bound_check_s": tot["potentials.check_decomposition_bound"],
        "potentials.bound_checks": cnt["potentials.check_decomposition_bound"],
        "potentials.calls": sum(cnt[k] for k in potentials),
        "verify.checks": len(checks),
        "verify.checks_failed": sum(sum_x[k] for k in checks),
        "trace.spans": nspans,
        "trace.missing_hooks": len(missing),
        "cli.main_s": main_wall,
    }
    for k in checks:
        m[f"{k}_s"] = tot[k]
    layers = {layer: (self_main.get(layer, 0.0), self_workers.get(layer, 0.0))
              for layer in (*LAYERS, "trace")}
    return m, layers
