"""The benchmark's own smoke test, run as a subprocess.

``bench/smoke.py`` runs every workload at small sizes, untraced and traced.
The tracer patches ``linalg.rref``, ``inverse``, ``nullspace``, ``solve``,
``rank``, ``mat_mul`` and ``mat_vec`` by name, and the Gram workload and
microbenchmark read ``gram_matrix()`` as dense rows, so a change to those
names or formats that the package's own tests miss fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
