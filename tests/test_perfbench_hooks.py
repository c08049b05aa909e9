"""The benchmark tracer (perfbench/tracer.py) still finds every name it hooks."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Installs the hooks, prints the names it could not find, then advances
#: each engine once: 5 steps at n = 7, and 3 rounds of 3 pairs each; then
#: makes one run of each scheduler at n = 9 through ``harness.run_single``,
#: 700 sequential steps with two windows and 30 synchronous rounds, with
#: the kernel (where it was built) and again with the Python loop.
INSTALL = """
import json, pathlib, sys, tracer
rec = tracer.Recorder(pathlib.Path(sys.argv[1]))
tracer.install(rec)
print(json.dumps(rec.missing))
from gossipavg import Gaussian, Real, dynamics, harness, init_population, make_rng
from gossipavg.dynamics import SequentialEngine, SynchronousEngine
pop = init_population([float(v) for v in range(7)])
SequentialEngine(pop, Gaussian(1.0), Real(), make_rng(1)).advance(5)
SynchronousEngine(pop, Gaussian(1.0), Real(), make_rng(2)).advance(3)
for kernel in (dynamics._kernel, None):
    dynamics._kernel = kernel
    for scheduler, steps, windows in [("sequential", 700, ((0, 250), (250, 630))),
                                      ("synchronous", 30, ())]:
        harness.run_single(harness.ExperimentConfig(
            n=9, init=harness.UniformInit(0.0, 10.0), scheduler=scheduler,
            noise=Gaussian(1.0), rule=Real(), steps=steps, master_seed=3, record_every=40,
            decomposition_intervals=windows), 0)
"""


def _spans(span_dir: Path) -> list:
    """Every span the traced process flushed into ``span_dir``, in order."""
    spans = []
    for path in sorted(span_dir.glob("spans-*.pkl")):
        with open(path, "rb") as fh:
            while True:
                try:
                    spans += pickle.load(fh)["spans"]
                except EOFError:
                    break
    return spans


def test_tracer_hooks_all_exist(tmp_path):
    """A hook whose target is gone would leave its benchmark layer empty
    without an error; dropping or renaming such a name fails here instead.
    Both engines inherit one ``advance``: each must still report under its
    own name and count (steps, or rounds times pairs), which a hook on the
    shared base class would merge into one layer.  A run's whole boundary
    loop enters through ``advance`` once, with the run's steps, so the
    tracer counts each of its interactions exactly once, with the kernel's
    ``run`` or with the Python loop."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", INSTALL, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
    advances = [(name, n) for name, _, _, _, n, _ in _spans(tmp_path)
                if name.endswith(".advance")]
    assert advances == [("dynamics.SequentialEngine.advance", 5),
                        ("dynamics.SynchronousEngine.advance", 3 * (7 // 2)),
                        *[("dynamics.SequentialEngine.advance", 700),
                          ("dynamics.SynchronousEngine.advance", 30 * (9 // 2))] * 2]
