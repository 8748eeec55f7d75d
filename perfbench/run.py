"""Benchmark of the jdisk disk solver, chain search and rescaling pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload disk_n129 --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a fresh process, and prints
each one's output in turn.  ``--setup-only`` times one cold set-up of the
workload and prints it as JSON; a timed run starts such processes to time
set-ups in fresh processes.

The program under test is imported from ``src/`` of that checkout and
nowhere else.  BLAS and OpenMP are pinned to one thread before numpy is
imported.  ``--trace 0`` prints the end-to-end metrics of a timed run.
``--trace 1`` prints the per-layer metrics of a traced run, which runs a
fixed number of ops so that its counts repeat for a seed (``--seconds``
bounds only the timed loop) and writes its span log to ``.bench_trace/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the environment, the per-op check failures and the diagnostic
figures.  Workload definitions, the layer predictions and the reference
kernel are described in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import jdisk from this checkout's ``src`` or exit with code 2."""
    src = CHECKOUT / "src"
    if not (src / "jdisk" / "__init__.py").is_file():
        fail(f"no jdisk package under {src}")
    sys.path.insert(0, str(src))
    import jdisk
    if Path(jdisk.__file__).resolve().parent != (src / "jdisk").resolve():
        fail(f"jdisk was imported from {jdisk.__file__}, not {src}")
    return jdisk


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold set-up and print it as JSON")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    jdisk = import_program()
    import numpy
    import scipy

    import harness
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    wl = WORKLOADS[args.workload]()
    if args.setup_only:
        setup = harness.cold_setup(wl, harness.warm_kernel(wl))
        del setup["state"]
        print(json.dumps(setup))
        return 0
    if args.trace:
        from spans import SeamCoverage, SeamMissing
        try:
            metrics, report = harness.traced_run(wl, args.seed, wl.traced_ops,
                                                 CHECKOUT / ".bench_trace")
        except (SeamMissing, SeamCoverage) as exc:
            fail(f"traced run aborted: {exc}")
    else:
        setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                     "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        metrics, report = harness.timed_run(wl, args.seed, args.seconds, setup_cmd)

    env = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "jdisk": jdisk.__version__,
           "threads": {var: os.environ.get(var) for var in THREAD_VARS}}
    print(json.dumps({"env": env, "report": report}))
    result = {"correct": report["failed"] == 0,
              "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Run every workload one after another, each in a fresh process."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
