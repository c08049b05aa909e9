"""The benchmark's workloads: each is one ``gossipavg`` command line.

Run workloads write their config JSON into the work directory and pass the
workload seed to the CLI as ``--seed``.  Sizes are scaled from the paper's
runs so that one execution takes about two seconds on a 2-core Xeon; the
shape of each run (population, rule, noise, scheduler, snapshot pattern)
is kept, and ``README.md`` says why each workload is here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Interactions the engines perform in one ``gossipavg verify``; the suite
# runs at a fixed internal seed, so the count is a constant.  The traced run
# recounts it from the engine spans and fails if it differs.
VERIFY_INTERACTIONS = 438_000


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    config: Optional[dict] = None  # None: the workload takes no config
    jobs: int = 1
    command: tuple = ("run",)
    interactions_fixed: int = 0

    def argv(self, seed: int) -> list:
        """CLI arguments for one execution, run in the work directory."""
        if self.config is None:
            return list(self.command)
        return [*self.command, "--config", self.config_name, "--out", "out",
                "--seed", str(seed), "--jobs", str(self.jobs)]

    @property
    def config_name(self) -> str:
        return f"{self.name}.json"

    def write_config(self, work: Path) -> None:
        if self.config is not None:
            (work / self.config_name).write_text(json.dumps(self.config, indent=2) + "\n")

    @property
    def interactions(self) -> int:
        """Pair interactions one execution simulates."""
        cfg = self.config
        if cfg is None:
            return self.interactions_fixed
        if cfg["scheduler"] == "synchronous":
            return cfg["runs"] * cfg["steps"] * (cfg["n"] // 2)
        return cfg["runs"] * cfg["steps"]

    @property
    def writes_files(self) -> bool:
        return self.config is not None


WORKLOADS = {
    w.name: w
    for w in (
        # replicate-fig-b's preset (n=1000, Cutoff[1,10] with rounding,
        # DiscreteGeometric(0.8), constant start at 10, 11 snapshots) at
        # 2*10^6 instead of 10^7 sequential steps.
        Workload(
            name="fig-b",
            default_seed=12345,
            config={
                "n": 1000,
                "init": {"kind": "constant", "v": 10.0},
                "scheduler": "sequential",
                "noise": {"kind": "discrete_geometric", "p": 0.8},
                "rule": {"kind": "cutoff", "vmin": 1.0, "vmax": 10.0, "rounding": True},
                "steps": 2_000_000,
                "record_every": 200_000,
                "runs": 1,
            },
        ),
        # Shaped like acceptance test c08 with a snapshot every 100 steps:
        # many short runs through the process pool.
        Workload(
            name="ensemble",
            default_seed=108,
            jobs=2,
            config={
                "n": 100,
                "init": {"kind": "uniform", "lo": 0.0, "hi": 100.0},
                "scheduler": "sequential",
                "noise": {"kind": "gaussian", "sigma2": 1.0},
                "rule": {"kind": "real"},
                "steps": 10_000,
                "record_every": 100,
                "decomposition_intervals": [[0, 10_000]],
                "runs": 200,
            },
        ),
        # Synchronous rounds at n=10^4 with a snapshot every round.
        Workload(
            name="sync-trace",
            default_seed=1,
            config={
                "n": 10_000,
                "init": {"kind": "uniform", "lo": 0.0, "hi": 100.0},
                "scheduler": "synchronous",
                "noise": {"kind": "gaussian", "sigma2": 1.0},
                "rule": {"kind": "real"},
                "steps": 400,
                "record_every": 1,
                "runs": 1,
            },
        ),
        # The invariant and Monte Carlo suite; its seed is internal.
        Workload(
            name="verify",
            default_seed=0,
            command=("verify",),
            interactions_fixed=VERIFY_INTERACTIONS,
        ),
    )
}
