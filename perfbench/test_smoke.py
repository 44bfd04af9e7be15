"""The benchmark's own test: ``python -m pytest perfbench``.

Smoke mode runs every workload at tiny sizes, untraced and traced, and
fails on a failed check or on a metric whose name or unit differs from
``BENCHMARK.json``.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_reports_every_metric():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
