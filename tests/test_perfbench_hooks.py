"""The benchmark tracer (perfbench/tracer.py) still finds every name it hooks."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import json, pathlib, sys, tracer
rec = tracer.Recorder(pathlib.Path(sys.argv[1]))
tracer.install(rec)
print(json.dumps(rec.missing))
"""


def test_tracer_hooks_all_exist(tmp_path):
    """A hook whose target is gone would leave its benchmark layer empty
    without an error; dropping or renaming such a name fails here instead."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", INSTALL, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
