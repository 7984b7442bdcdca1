"""The package's export list names only what the package defines."""

import os
import subprocess
import sys
from pathlib import Path

import twinreg


def test_every_exported_name_resolves():
    missing = [name for name in twinreg.__all__ if not hasattr(twinreg, name)]
    assert missing == []
    assert len(set(twinreg.__all__)) == len(twinreg.__all__)


def test_star_import_in_a_fresh_interpreter():
    src = str(Path(twinreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "from twinreg import *\n"
        "import twinreg\n"
        "missing = [n for n in twinreg.__all__ if n not in globals()]\n"
        "print(missing)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
