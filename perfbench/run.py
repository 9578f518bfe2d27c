"""scarkit benchmark: one workload, fresh processes, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh single process (worker.py), one at
a time, with the BLAS thread variables set to the number of usable cores
whatever the caller's environment says.  A run makes at least one pass and
starts another while the next is expected to end within ``--seconds``.
Every pass gives one ``setup_s`` sample, so set-up is timed as often as the
workload and spread over the whole run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, each
the median over the run's passes; ``wall_s`` and ``setup_s`` are scaled to
the reference host speed by the calibration timed before every pass (see
calibrate.py), and the raw medians are printed above the result line.  With
``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer figures of the traced passes (medians) and the tracing overhead,
traced minus untraced raw ``wall_s``.  The run record, with the
environment, every pass, every calibration and the spans, is written under
``.perfbench_out/`` at the end of the run.  ``--scale small`` runs the same
code paths at L = 8, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKDIR as OUT, WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SOURCE = CHECKOUT / "src" / "scarkit"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0          # a run must end within 180 s, whatever it is asked

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def worker_env(threads: int) -> dict:
    """The caller's environment with the BLAS pools set, never inherited."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def start_worker(args, env, traced=False, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--trace", str(int(traced))]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--started", repr(time.monotonic())]
    left = RUN_LIMIT_S - (time.monotonic() - args.t0)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker still running {RUN_LIMIT_S:.0f} s into the run, "
                         f"stopped: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_ticks() -> list[int] | None:
    """The host's aggregate CPU tick counters, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def environment(seed: int, threads: int, env: dict, versions: dict) -> dict:
    """What the figures depend on besides the code: versions, cores, threads."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (CHECKOUT / ".git").exists():
        git = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {**versions, "nproc": threads, "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "threads": {var: env[var] for var in THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def run_passes(args, env, calibrate) -> tuple[list[dict], list[float]]:
    """Passes until the next would overrun --seconds, each after a
    calibration, and one calibration after the last; in trace mode passes
    alternate untraced, traced, so both kinds get at least one."""
    passes, calibrations = [], []
    start = time.monotonic()
    while True:
        calibrations.append(calibrate())
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.json"
        t = time.monotonic()
        passes.append(start_worker(args, env, traced=traced,
                                   spans=spans if traced else None))
        passes[-1]["process_s"] = time.monotonic() - t
        elapsed = time.monotonic() - start
        expected = elapsed / len(passes)
        need_traced = args.trace and not any(p["traced"] for p in passes)
        if not need_traced and elapsed + expected > args.seconds:
            calibrations.append(calibrate())
            return passes, calibrations


def summarize(args, passes, setups, speed) -> dict:
    """The result line; `speed` is REFERENCE_S over the median calibration."""
    jobs = [job for p in passes for job in p["jobs"]]
    failed = sum(job["failed"] for job in jobs)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
    else:
        metrics = {"wall_s": wall * speed,
                   "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                   "setup_s": statistics.median(setups) * speed}
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": {n: {"value": v, "unit": unit_of(n)}
                        for n, v in metrics.items()}}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)
    args.t0 = time.monotonic()
    if not (SOURCE / "__init__.py").is_file():
        print(f"no scarkit sources under {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    os.environ.update(env)      # before numpy loads: the calibration's BLAS pool
    from calibrate import REFERENCE_S, calibrate
    OUT.mkdir(exist_ok=True)
    ticks = cpu_ticks()
    passes, calibrations = run_passes(args, env, calibrate)
    setups = [p["setup_s"] for p in passes]
    speed = REFERENCE_S / statistics.median(calibrations)
    result = summarize(args, passes, setups, speed)
    record = {"workload": args.workload, "scale": args.scale, "trace": args.trace,
              "seconds": args.seconds,
              "env": environment(args.seed, threads, env, passes[0]["versions"]),
              "steal_share": steal_share(ticks, cpu_ticks()),
              "calibration_s": calibrations, "speed_factor": speed,
              "setup_samples": setups, "passes": passes, "result": result}
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for job in (j for p in passes for j in p["jobs"] if j["failed"]):
        print(f"FAILED {job['job']}: {'; '.join(job['failures'])}", file=sys.stderr)
    print(f"env {json.dumps(record['env'])}")
    steal = record["steal_share"]
    print(f"{args.workload}: {len(passes)} passes, {result['attempted']} jobs, "
          f"failed_frac {result['failed'] / result['attempted']:.4f} (fraction), "
          f"host CPU steal {'n/a' if steal is None else f'{steal:.1%}'}")
    plain = [p for p in passes if not p["traced"]]
    print(f"raw medians: wall {statistics.median(p['wall_s'] for p in plain):.6g} s, "
          f"setup {statistics.median(setups):.6g} s; calibration "
          f"{statistics.median(calibrations):.6g} s, so times are scaled by "
          f"{speed:.4f} to the reference host")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
