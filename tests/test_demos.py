"""The quick demos run to completion against the current library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each of these runs in well under a second; the bubble and scaling demos
# are slower and stay out of the tier-1 suite
QUICK_DEMOS = ["column_mesh_partitioning", "lobatto_operators", "order_sweep",
               "perf_tables", "storage_layouts"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
