"""What importing the package pulls in."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_leaves_fractions_unloaded():
    # exact rational arithmetic belongs to the test oracles only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cycloring; assert 'fractions' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_matrix_suite_leaves_numpy_random_unloaded():
    # the matrix suite draws nothing, so verify never builds its generator
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cycloring\n"
         "assert 'numpy.random' not in sys.modules\n"
         "from cycloring.verify import run_verify\n"
         "assert run_verify(1024, 'matrix').all_passed\n"
         "assert 'numpy.random' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
