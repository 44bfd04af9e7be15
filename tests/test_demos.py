"""Every demo runs to completion in a child process and leaves no temporary files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import typovec

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DATA = Path(__file__).resolve().parent / "data"

# each demo's last printed line starts with this
LAST_LINES = {
    "01_autodiff_and_adam.py": "final training accuracy: 1.0",
    "02_subword_bpe.py": "encode/decode round trip: True",
    "03_toy_translation_model.py": "last  cell state",
    "04_language_vectors.py": "object-before-verb flags:",
    "05_typology_baseline.py": "chance rate for S_ADPOSITION_AFTER_NOUN:",
    "06_full_pipeline.py": "  vocab.tsv",
}

# demos whose whole stdout is pinned: no training, so no BLAS-dependent digits
GOLDEN = {"05_typology_baseline.py": DATA / "demo05_stdout.golden.txt"}


@pytest.mark.parametrize("name", sorted(LAST_LINES))
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(typovec.__file__).resolve().parents[1]),
           "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1].startswith(LAST_LINES[name])
    if name in GOLDEN:
        assert proc.stdout == GOLDEN[name].read_text(encoding="utf-8")
    assert not list(tmp_path.iterdir())
