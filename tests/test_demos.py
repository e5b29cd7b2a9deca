"""The narrated demos run to completion against this checkout's sources.

Each runs in under 2 s on 2 vCPUs (Python 3.11.7): demo 02 takes 1.5-1.7 s
and demo 04 0.9-1.0 s, about 0.65 s of it in h_max(7, 3, 3).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", [
    "01_teaching_dimensions.py",
    "02_no_clash_teachers.py",
    "03_tournament_classes.py",
    "04_johnson_extremal.py",
    "05_bounds_gallery.py",
    "06_probabilistic_experiments.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
