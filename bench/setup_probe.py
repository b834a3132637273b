"""Set-up probe: import ultragraph in a fresh process and run one session.

Usage: python3 bench/setup_probe.py SRC_DIR WORKLOAD INPUT_FILE

Prints one JSON line with ``cpu_s``, the CPU time from the start of
``import ultragraph`` to the end of one session: what ultragraph costs on
every call before its first answer appears. ``run.py`` scales it like a
session's time and reports the median over probes as ``setup_s``. The
interpreter and numpy are loaded before the clock starts: their start-up
is the host's, and it drifted by a third over minutes without following
the calibration kernel. The input is the workload's small one
(``workloads.build_small``), so import and first-call costs outweigh the
session's own work.
"""

import json
import sys
from time import thread_time

import numpy  # noqa: F401  (loaded before the clock, see above)

from session import run_session
from workloads import OPS

if __name__ == "__main__":
    src, workload, path = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = thread_time()
    import ultragraph.cli
    import ultragraph.io

    run_session(ultragraph.cli, ultragraph.io, path, OPS[workload])
    print(json.dumps({"cpu_s": thread_time() - t0}))
