"""bench.py's result line names its host: the host record and the
calibration kernel come from perfbench/probe.py, as perfbench's own
report does."""

import os
import sys


def test_bench_reports_host_and_calibration():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, root)
    try:
        import bench
    finally:
        sys.path.remove(root)
    rec = bench._host()
    assert set(rec) == {"host", "host.calib_s"}
    assert {"nproc", "cpus_allowed", "mem_total_mb"} <= set(rec["host"])
    assert rec["host"]["nproc"] >= 1 and rec["host"]["mem_total_mb"] > 0
    assert 0 < rec["host.calib_s"] < 60
