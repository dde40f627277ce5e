"""Set-up probe: import numpy and satqlink, load a spec, propagate its first pass.

Prints ``ready`` once done; ``run.py`` times it from process start to that
line.  Usage: ``python3 perfbench/setup_probe.py <repo root> <spec.json>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

import numpy  # noqa: E402,F401
from satqlink.experiment import load_experiment  # noqa: E402
from satqlink.passes import propagate_pass  # noqa: E402

exp = load_experiment(sys.argv[2])
propagate_pass(exp.satellite, exp.stations[0], exp.epoch, exp.duration_s, exp.step_s, exp.optics)
print("ready", flush=True)
