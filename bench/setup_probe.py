"""One fresh start of a workload: import posetkit.cli, build the workload's
inputs, print the two timings as JSON and exit.

run.py starts this several times with ``-I -X pycache_prefix=...`` and
times each start from launch to the printed line; see ``SetupStarts``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import posetkit.cli  # noqa: E402,F401

IMPORTED = time.perf_counter()

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), "--short" in sys.argv[3:])
workload.setup()
print(json.dumps({"import_s": IMPORTED - START,
                  "inputs_s": time.perf_counter() - IMPORTED}), flush=True)
workload.close()
