"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it is a fuller report (host, sample
counts, every timing). Generated inputs, Ray's session files, the
native-kernel build and output directories live under ``.bench_cache``
in the checkout. Exit code 0 only when every checked output matched
its oracle; 2 when the package is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_cache")

# the timed run is split over this many Ray sessions, so set-up time is
# sampled this many times per run (each extra session costs ~8-12 s of
# set-up and shutdown outside the timed window)
SESSIONS = 2


def _environment() -> None:
    """Make the package importable here and in Ray workers, and keep
    every file the run writes inside the checkout."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tmp = os.path.join(CACHE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    from jobs import ray_temp_dir
    if ray_temp_dir(CACHE):
        os.environ["RAY_TMPDIR"] = ray_temp_dir(CACHE)


def _p_hi(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return None


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import inputs
    from jobs import WORKLOADS, start_ray, stop_ray
    from probe import RssSampler, calibration_s, host_record

    host = host_record()
    wl = WORKLOADS[name](inputs.ensure(CACHE, ROOT, name, seed), CACHE,
                         host["nproc"])
    setups, job_times, resumes, calibs, peaks = [], [], [], [], []
    checked = failed = raised = 0
    notes: list[str] = []
    for _ in range(SESSIONS):
        calibs.append(calibration_s())
        t0 = time.perf_counter()
        start_ray(CACHE, host["nproc"])
        try:
            wl.warm()
            setups.append(time.perf_counter() - t0)
            with RssSampler() as rss:
                end = time.perf_counter() + seconds / SESSIONS
                while True:
                    try:
                        res = wl.job()
                    except Exception as exc:  # a raised run fails
                        raised += 1
                        notes.append(f"{type(exc).__name__}: {exc}")
                    else:
                        job_times.append(res.job_s)
                        if res.resume_s is not None:
                            resumes.append(res.resume_s)
                        checked += res.checked
                        failed += res.failed
                        notes += res.notes
                    if time.perf_counter() >= end:
                        break
            peaks.append(rss.peak_kb / 1024)
        finally:
            stop_ray()
    # a raised run counts every output it would have produced as failed
    checked += raised * wl.n_outputs
    failed += raised * wl.n_outputs
    # 0 only when no job completed, and then the run is marked incorrect
    job_s = statistics.median(job_times) if job_times else 0.0
    metrics = {
        "job_s": (job_s, "s"),
        "docs_per_s": (wl.n_docs / job_s if job_times else 0.0, "docs/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    report = {
        "workload": name, "seed": seed, "host": host,
        "ray_num_cpus": host["nproc"], "sessions": SESSIONS,
        "n_jobs": len(job_times), "job_s": job_times,
        "job_s_p_hi": _p_hi(job_times),
        "setup_s": setups, "peak_rss_mb": peaks,
        "host.calib_s": statistics.median(calibs),
        "docs": wl.n_docs, "checked": checked, "failed": failed,
        "raised": raised, "error_rate": failed / max(1, checked),
        "notes": notes[:20],
    }
    if resumes:
        report["resume_s"] = statistics.median(resumes)
        report["resume_s_all"] = resumes
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["heavy_extract", "recrawl_checkpoint",
                             "text_stats"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "pgstosrt_ray", "__init__.py")):
        print(f"pgstosrt_ray is not in {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    _environment()
    from probe import adopt_orphans
    adopt_orphans()

    if args.trace:
        from traced import traced_run
        metrics, report = traced_run(args.workload, args.seed, args.seconds,
                                     CACHE, ROOT)
    else:
        metrics, report = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": report["failed"] == 0 and report["checked"] > 0,
        "attempted": report["checked"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
