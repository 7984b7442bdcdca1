"""twinreg benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh interpreter (worker.py) with any inherited
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS removed, so the BLAS
library's own default is what gets measured, and with ``src`` on the import
path.  Two more fresh interpreters only time the imports, for ``setup_s``.
Prints the worker's report; its last line is the JSON result.  Exits non-zero
without a result when the worker fails or the twinreg sources are missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 6
DEADLINE_S = 170.0  # the whole run, probes included


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "twinreg" / "__init__.py").is_file():
        print(f"perfbench: no twinreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    try:
        probes = []
        for _ in range(IMPORT_PROBES):
            probe = subprocess.run(
                [sys.executable, str(WORKER), "--probe-import"], env=env, cwd=ROOT,
                capture_output=True, text=True, timeout=DEADLINE_S,
            )
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                return probe.returncode
            probes.append(probe.stdout.strip())
        command = [
            sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--import-samples", ",".join(probes),
        ]
        # subprocess.run kills and reaps the worker when the deadline passes.
        worker = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {DEADLINE_S:g} s",
              file=sys.stderr)
        return 3
    if worker.returncode != 0:
        sys.stderr.write(worker.stdout)
        return worker.returncode
    sys.stdout.write(worker.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
