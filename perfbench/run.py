"""Benchmark of the quanvrob experiment grid: time to a correct grid, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {fit,whitebox,transfer} --seed N --seconds S --trace {0,1}

The workloads are described in ``workloads.py``.  A run makes its digits from
``--seed``, sets up several times (``setup_s`` is the median), passes the
correctness gate in ``gate.py``, then runs timed rounds for ``--seconds``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it records the environment.  A traced run
also writes its spans to ``.bench_out/``.  The exit code is 0 only when
every check passed.

This file is the launcher: it pins the BLAS thread count to ``nproc`` before
numpy is imported, so the load comes from one process with a known number of
threads, and it imports ``quanvrob`` from ``src/`` of the same checkout only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_blas_threads() -> int:
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a git checkout."""
    head_file = ROOT / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report is not a stable API
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def import_library() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import quanvrob
    except ImportError as exc:
        print(f"cannot import quanvrob from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    where = Path(quanvrob.__file__).resolve()
    if ROOT / "src" not in where.parents:
        print(f"quanvrob was imported from {where}, not from this checkout", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "whitebox", "transfer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    if not import_library():
        return 2
    from workloads import execute

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in run["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    if run["tracer"] is not None:
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        run["tracer"].dump(trace_file)
        print(json.dumps({"trace_file": str(trace_file.relative_to(ROOT))}))
    print(json.dumps({"env": environment(args.seed, nproc), "details": run.get("details")}))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
