"""Set-up probe: one fresh interpreter that imports wignerq and generates a
workload's inputs, then prints when it was ready for the first operation.

    python3 bench/probe.py <workload> <seed>

``ready`` is a ``time.perf_counter`` reading (the system-wide monotonic
clock), so the runner can subtract the moment it started this process.
"""

import json
import sys
import time

before = len(sys.modules)
t0 = time.perf_counter()
import wignerq  # noqa: E402,F401

import_s = time.perf_counter() - t0
modules_loaded = len(sys.modules) - before

import inputs  # noqa: E402

inputs.make(sys.argv[1], int(sys.argv[2]))
ready = time.perf_counter()
print(json.dumps({"ready": ready, "import_s": import_s, "modules_loaded": modules_loaded}))
