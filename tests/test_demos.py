"""The narrative scripts under demos/ run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    demos = {
        "single_pass_rates.py": [],
        "link_budget_curves.py": [],
        "dual_link_allocation.py": [],
        "validation_bands.py": ["--seeds", "3"],
    }
    for script, extra in demos.items():
        out = tmp_path / script
        done = subprocess.run(
            [sys.executable, str(ROOT / "demos" / script), "--out", str(out), *extra],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, (script, done.stderr)
        assert any(out.iterdir()), script
