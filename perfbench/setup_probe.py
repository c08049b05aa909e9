"""The set-up every ``gossipavg`` command pays, then exit without running it.

    python3 perfbench/setup_probe.py ARGV...

Imports ``gossipavg.cli``, parses ARGV with the CLI's own parser and, for
commands that take a config, loads and validates it with the workload
seed applied, as ``gossipavg run`` does before its first step.  Prints one
JSON line of facts about the interpreter and package it ran.
"""

from __future__ import annotations

import json
import platform
import sys


def main(argv: list) -> int:
    from gossipavg import cli, harness, seeding

    args = cli.build_parser().parse_args(argv)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if args.seed is not None:
            config["master_seed"] = args.seed
        harness.config_from_json_dict(config)

    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    print(json.dumps({
        "package": cli.__file__,
        "generator": seeding.GENERATOR_NAME,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
