"""bench.py's result line names its host: the host record and the
calibration kernel come from perfbench/probe.py, as perfbench's own
report does; its ``layers`` table is perfbench/traced.py's operator
table."""

import os
import sys


def _bench():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, root)
    try:
        import bench
    finally:
        sys.path.remove(root)
    return bench


def test_bench_reports_host_and_calibration():
    rec = _bench()._host()
    assert set(rec) == {"host", "host.calib_s"}
    assert {"nproc", "cpus_allowed", "mem_total_mb"} <= set(rec["host"])
    assert rec["host"]["nproc"] >= 1 and rec["host"]["mem_total_mb"] > 0
    assert 0 < rec["host.calib_s"] < 60


def test_bench_layers_table(ray_session):
    """The operator table of an executed in-process Dataset: the demux
    operator's rows out are the cue rows it produced."""
    import ray.data
    from pgstosrt_ray.fixtures import build_tiny
    from pgstosrt_ray.stages.demux import demux_batch
    pages, _golden = build_tiny()
    ds = ray.data.from_arrow(pages).map_batches(demux_batch,
                                                batch_format="pyarrow")
    rows = sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))
    layers = _bench()._layers(ds)
    assert layers["op.demux.rows_out"] == rows == demux_batch(pages).num_rows
    assert layers["op.demux.tasks"] >= 1 and layers["op.demux.wall_s"] > 0
    assert layers["op.extract.rows_out"] == 0
    assert all(k.startswith("op.") for k in layers)
