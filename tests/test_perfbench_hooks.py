"""The benchmark tracer (perfbench/tracer.py) still finds every name it hooks."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Installs the hooks, prints the names it could not find, then advances
#: each engine once: 5 steps at n = 7, and 3 rounds of 3 pairs each.
INSTALL = """
import json, pathlib, sys, tracer
rec = tracer.Recorder(pathlib.Path(sys.argv[1]))
tracer.install(rec)
print(json.dumps(rec.missing))
from gossipavg import Gaussian, Real, init_population, make_rng
from gossipavg.dynamics import SequentialEngine, SynchronousEngine
pop = init_population([float(v) for v in range(7)])
SequentialEngine(pop, Gaussian(1.0), Real(), make_rng(1)).advance(5)
SynchronousEngine(pop, Gaussian(1.0), Real(), make_rng(2)).advance(3)
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
    shared base class would merge into one layer."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", INSTALL, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
    advances = [(name, n) for name, _, _, _, n, _ in _spans(tmp_path)
                if name.endswith(".advance")]
    assert advances == [("dynamics.SequentialEngine.advance", 5),
                        ("dynamics.SynchronousEngine.advance", 3 * (7 // 2))]
