"""One set-up sample: import entmono and warm every operation kind of a workload.

    python3 perfbench/setup_probe.py verdicts

``run.py`` times this script as a fresh process, which inherits its BLAS
thread settings; it prints nothing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import entmono  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]][1]()
