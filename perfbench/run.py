#!/usr/bin/env python3
"""ufda benchmark: gen -> pretrain -> adapt -> eval through the library, in one
process, on one workload.

    python3 perfbench/run.py --workload toy-opda-glcpp --seed 1 --seconds 50 --trace 0

--trace 0 makes passes through the workload's scenarios, as many as fit in
--seconds and at least the workload's ``passes``, and prints the end-to-end
metrics.  --trace 1 runs the first scenario once untraced and once with
every module call wrapped (see tracing.py) and prints the per-module
metrics.  Both check every output.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A copy with the run record (and, traced, every span) goes to perfbench/out/.
Run from the repository root; the library is imported from its src/.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


if __name__ == "__main__":
    # The engine is serial; pin BLAS to one thread before NumPy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ufda" / "__init__.py").is_file():
        sys.exit(f"error: no ufda sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS

    sys.exit(bench.main(WORKLOADS))
