"""A fresh interpreter's set-up time, printed as JSON.

    python3 bench/setup_probe.py <package src dir> <config.json> ...

``setup_s`` is the time to import the package, parse the configs with
``cli.load_config`` and build ``quadrature(300)``, from this file's first
statement. ``numpy_import_s`` is the part of it spent importing numpy,
which the package cannot change; ``run.py`` uses it as the clock for
set-up time.
"""
import time

T0 = time.perf_counter()
import numpy  # noqa: E402,F401

NUMPY_IMPORT_S = time.perf_counter() - T0

import json  # noqa: E402
import sys  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from noma_relay_secrecy import cli, quadrature

    for path in sys.argv[2:]:
        cli.load_config(path)
    quadrature(300)
    setup = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup, "numpy_import_s": NUMPY_IMPORT_S}))
