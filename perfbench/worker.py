"""One workload pass in a fresh process; prints one JSON line.

Started by run.py with the BLAS thread variables already set.  ``setup_s``
runs from the parent's clock reading just before the process was started to
a ready library: the interpreter, ``import scarkit`` and the lazy exports the
workload's modules resolve at import.  Usage:

    worker.py --workload NAME --seed N --scale full|small --trace 0|1
              --started MONOTONIC_SECONDS [--spans PATH]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
# a workload is the jobs of these modules under workloads/, in this order
WORKLOADS = {"scar-pipeline": ("scar_spectrum", "quench_dynamics"),
             "sector-L18": ("sector_l18",)}
WORKDIR = CHECKOUT / ".perfbench_out"


def versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '')} {blas.get('version', '')}"}


def peak_rss_kib() -> int:
    """This process's own peak RSS.  VmHWM counts only the memory mapped since
    exec; ru_maxrss, the fallback off Linux, also keeps the peak of the parent
    the process was forked from."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--spans", help="write the pass's spans here as JSON")
    args = ap.parse_args(argv)

    # scarkit comes from this checkout's sources, never from site-packages
    sys.path.insert(0, str(CHECKOUT / "src"))
    import scarkit
    if Path(scarkit.__file__).resolve().parent != CHECKOUT / "src" / "scarkit":
        raise SystemExit(f"scarkit imported from {scarkit.__file__}, "
                         f"not from {CHECKOUT / 'src'}")
    modules = [importlib.import_module(f"workloads.{name}")
               for name in WORKLOADS[args.workload]]
    setup_s = time.monotonic() - args.started

    from spans import Tracer, layer_metrics
    from workloads.common import run_jobs
    tracer = Tracer(bool(args.trace))
    WORKDIR.mkdir(exist_ok=True)
    job_list = [job for module in modules
                for job in module.jobs(tracer, args.seed, args.scale,
                                       module.REFERENCE[args.scale], str(WORKDIR))]
    t0 = time.perf_counter()
    results = run_jobs(tracer, job_list)
    wall_s = time.perf_counter() - t0
    peak_kib = peak_rss_kib()
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_kib / 1024.0,
           "traced": bool(args.trace), "versions": versions(), "jobs": results}
    if args.trace:
        out["layers"] = layer_metrics(tracer)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump([{"id": i, **asdict(span)}
                           for i, span in enumerate(tracer.spans)], fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
