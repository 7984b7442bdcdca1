"""The package runs on numpy alone: training never loads scipy."""

import os
import subprocess
import sys
from pathlib import Path

import twinreg

_SCRIPT = """
import sys
import twinreg
from twinreg import data

sinc = data.generate(data.sinc_spec(seed=0)).train
twinreg.train_hierarchy(sinc, twinreg.HierarchyConfig(max_layers=3))
pow23 = data.generate(data.power_two_thirds_spec(seed=0)).train
twinreg.train(pow23, twinreg.TsvrParams(1.0, 1.0, 0.1, 0.1))
print(sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy.")))
"""


def test_training_loads_no_scipy():
    src = str(Path(twinreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
