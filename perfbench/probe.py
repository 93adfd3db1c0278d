"""Time set-up in a fresh process: import qfeedback and make a workload's inputs.

    python3 perfbench/probe.py <workload> <seed>

Prints ``{"setup_s": seconds}``.  ``run.py`` starts five of these a run for
its ``setup_s`` metric; numpy is first imported inside the timed part.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

start = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), ROOT / ".perfbench_out" / "tmp")
print(json.dumps({"setup_s": time.perf_counter() - start}))
