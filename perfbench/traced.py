"""The traced run: spans around each layer's public functions, the
serial layer chain and the Ray Data operator table.

The serial chain runs the page layers one after another in this
process -- parquet read, ``demux_batch``, ``ExtractorEngine``, sha1
bucketing, ``assemble_bucket``, ``write_partition`` -- and doubles as
the single-threaded baseline. Spans are kept in memory and written
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs
from checks import check_answers, check_docs
from inputs import TEXT_QUERIES
from jobs import TextStats, collect_docs, start_ray, stop_ray
from probe import calibration_s, host_record

# Ray Data operator -> layer label, first match wins (fused operators
# take the label of their most expensive member)
OP_LABELS = (("_task_extract", "extract"), ("ExtractorEngine", "extract"),
             ("demux", "demux"), ("ReadParquet", "read"),
             ("SortMap", "sort_map"), ("SortReduce", "sort_reduce"),
             ("assemble_bucket", "assemble"))
OP_FIELDS = ("wall_s", "cpu_s", "udf_s", "rows_out", "bytes_out", "tasks")
# the read and the sort run no user function, so their udf_s is always 0
NO_UDF = ("read", "sort_map", "sort_reduce")


def op_fields(label: str) -> tuple[str, ...]:
    return tuple(f for f in OP_FIELDS
                 if not (f == "udf_s" and label in NO_UDF))
CHAIN_LAYERS = ("read", "demux", "extract", "shuffle", "assemble")


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """name -> self time of each of its spans, in run order. Self
        time is the span's duration minus its children's (children run
        one after another, so they never overlap)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s["name"], []).append(
                s["end"] - s["start"] - child_s[i])
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


def cue_key(row: dict) -> bytes:
    """The extract memo's identity of a cue (``ExtractorEngine`` key)."""
    h = hashlib.sha1()
    for b in row["bitmaps"]:
        h.update(hashlib.sha1(b).digest())
    h.update(row["palette_last"])
    h.update(repr((row["obj_x"], row["obj_y"], row["obj_w"],
                   row["obj_h"])).encode())
    return h.digest()


def serial_chain(tr: Tracer, corpus: str, cfg, out_dir: str
                 ) -> tuple[pa.Table, dict]:
    """One pass of the page layers in this process. Returns the docs
    and the layer counts."""
    from pgstosrt_ray.pipelines.reduce import buckets_for, input_bytes
    from pgstosrt_ray.stages.assemble import assemble_bucket
    from pgstosrt_ray.stages.demux import demux_batch
    from pgstosrt_ray.stages.extract import ExtractorEngine
    from pgstosrt_ray.state.checkpoint import (completed_partitions,
                                               partition_of, write_partition)
    pages_dir = os.path.join(corpus, "pages")
    with tr.span("chain"):
        with tr.span("read"):
            pages = pq.read_table(pages_dir,
                                  columns=["url", "warc_ts", "html"])
        with tr.span("demux"):
            bs = cfg.demux_batch_size
            cues = pa.concat_tables(
                [demux_batch(pages.slice(i, bs))
                 for i in range(0, pages.num_rows, bs)])
        with tr.span("extract"):
            engine = ExtractorEngine()
            bs = cfg.extract_batch_size
            spans = pa.concat_tables(
                [engine(cues.slice(i, bs))
                 for i in range(0, cues.num_rows, bs)])
        with tr.span("shuffle"):
            n_buckets = buckets_for(input_bytes(pages_dir),
                                    floor=cfg.assemble_buckets)
            memo: dict[str, int] = {}
            bucket = np.array(
                [memo.setdefault(u, partition_of(u, n_buckets))
                 for u in spans.column("url").to_pylist()], np.int32)
            order = np.argsort(bucket, kind="stable")
            spans_sorted = spans.take(pa.array(order))
            ids, starts, sizes = np.unique(bucket[order], return_index=True,
                                           return_counts=True)
            groups = [spans_sorted.slice(s, n)
                      for s, n in zip(starts, sizes)]
        with tr.span("assemble"):
            docs = pa.concat_tables(
                [assemble_bucket(g, skip_merge=cfg.skip_merge,
                                 force_merge_all=cfg.force_merge_all)
                 for g in groups])
        with tr.span("checkpoint.write"):
            pids = pa.array([partition_of(u, cfg.num_partitions)
                             for u in docs.column("url").to_pylist()])
            written = 0
            for pid in sorted(set(pids.to_pylist())):
                part = docs.filter(pc.equal(pids, pid))
                write_partition(out_dir, pid, part.sort_by("url"))
                written += 1
        with tr.span("checkpoint.resume_scan"):
            done = completed_partitions(out_dir)
    if len(done) != written:
        raise RuntimeError(f"resume scan saw {len(done)} of {written} "
                           "partitions")

    bitmap_bytes = sum(len(b) for row in cues.column("bitmaps").to_pylist()
                       for b in row)
    keyed = [r for r in cues.select(["bitmaps", "palette_last", "obj_x",
                                     "obj_y", "obj_w", "obj_h",
                                     "n_objects"]).to_pylist()
             if r["n_objects"] and r["bitmaps"]]
    n_cues_out = sum(docs.column("n_cues").to_pylist())
    counts = {
        "read.rows": pages.num_rows, "read.bytes": pages.nbytes,
        "demux.pages": pages.num_rows, "demux.cues": cues.num_rows,
        "demux.bitmap_bytes": bitmap_bytes,
        "extract.cues": cues.num_rows, "extract.bitmap_bytes": bitmap_bytes,
        "extract.distinct_cue_frac":
            len({cue_key(r) for r in keyed}) / max(1, len(keyed)),
        "shuffle.rows": spans.num_rows, "shuffle.bytes": spans.nbytes,
        "shuffle.buckets": len(ids),
        "shuffle.max_bucket_rows": int(sizes.max()),
        "shuffle.median_bucket_rows": float(np.median(sizes)),
        "assemble.urls": docs.num_rows,
        "assemble.cues_in": spans.num_rows, "assemble.cues_out": n_cues_out,
        "checkpoint.partitions": written,
        "checkpoint.bytes_written": sum(
            os.path.getsize(os.path.join(root, f))
            for root, _d, files in os.walk(out_dir) for f in files),
    }
    return docs, counts


def op_table(ds) -> dict[str, float]:
    """``op.<label>.<field>`` from an executed dataset's ``ds.stats()``
    tree: summed wall, CPU and UDF seconds of the operator's blocks,
    rows and bytes out, and its block count (one block per task here).
    Every label in ``OP_LABELS`` is reported, 0 when absent."""
    out = {f"op.{label}.{f}": 0.0 for _k, label in OP_LABELS
           for f in op_fields(label)}
    seen: set[int] = set()

    def walk(st) -> None:
        if st is None or id(st) in seen:
            return
        seen.add(id(st))
        for parent in st.parents or []:
            walk(parent)
        for name, blocks in (st.metadata or {}).items():
            label = next((lab for key, lab in OP_LABELS if key in name),
                         None)
            if label is None:
                continue
            p = f"op.{label}."
            for b in blocks:
                if b.exec_stats is not None:
                    out[p + "wall_s"] += b.exec_stats.wall_time_s
                    out[p + "cpu_s"] += b.exec_stats.cpu_time_s
                    if label not in NO_UDF:
                        out[p + "udf_s"] += b.exec_stats.udf_time_s or 0
                out[p + "rows_out"] += b.num_rows or 0
                out[p + "bytes_out"] += b.size_bytes or 0
            out[p + "tasks"] += len(blocks)

    walk(ds._plan.stats())
    return out


def medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {k: statistics.median(v) for k, v in samples.items() if v}


def _units() -> dict[str, str]:
    units = {
        "read.s": "s", "read.rows": "count", "read.bytes": "bytes",
        "demux.s": "s", "demux.pages": "count", "demux.cues": "count",
        "demux.bitmap_bytes": "bytes",
        "extract.s": "s", "extract.cues": "count",
        "extract.bitmap_bytes": "bytes", "extract.distinct_cue_frac": "ratio",
        "shuffle.rows": "count", "shuffle.bytes": "bytes",
        "shuffle.buckets": "count", "shuffle.max_bucket_rows": "count",
        "shuffle.median_bucket_rows": "count",
        "assemble.s": "s", "assemble.urls": "count",
        "assemble.cues_in": "count", "assemble.cues_out": "count",
        "checkpoint.write_s": "s", "checkpoint.partitions": "count",
        "checkpoint.bytes_written": "bytes",
        "checkpoint.resume_scan_s": "s", "checkpoint.resume_s": "s",
        "ray_overhead_s": "s", "host.calib_s": "s",
    }
    field_units = {"wall_s": "s", "cpu_s": "s", "udf_s": "s",
                   "rows_out": "count", "bytes_out": "bytes",
                   "tasks": "count"}
    for _key, label in OP_LABELS:
        for f in op_fields(label):
            units[f"op.{label}.{f}"] = field_units[f]
    for q in TEXT_QUERIES:
        units[f"query.{q}.s"] = "s"
    return units


PER_LAYER_UNITS = _units()


def traced_run(name: str, seed: int, seconds: float, cache: str,
               root: str) -> tuple[dict, dict]:
    """Per-layer metrics of every layer. The workload's own layers run
    on its own input; the other side runs on a small seeded control
    input (``control_pages`` or ``control_docs``), so every traced run
    reports the whole table and the other side is a no-change control."""
    from pgstosrt_ray.config import PipelineConfig
    from pgstosrt_ray.pipelines.extract import extract_corpus_docs
    from pgstosrt_ray.state.checkpoint import read_output, run_checkpointed

    host = host_record()
    page_dir = inputs.ensure(cache, root, "control_pages" if
                             name == "text_stats" else name, seed)
    docs_dir = inputs.ensure(cache, root, "text_stats" if
                             name == "text_stats" else "control_docs", seed)
    golden = inputs.read_golden(page_dir)
    cfg = PipelineConfig.sized_for(host["nproc"])
    tr = Tracer()
    checked = failed = 0
    notes: list[str] = []

    def tally(c: int, f: int, n: list[str]) -> None:
        nonlocal checked, failed
        checked += c
        failed += f
        notes.extend(n)

    def fresh() -> str:
        return os.path.join(cache, "out", uuid.uuid4().hex)

    start_ray(cache, host["nproc"])
    try:
        text = TextStats(docs_dir, cache, host["nproc"])
        collect_docs(extract_corpus_docs(os.path.join(page_dir, "warm"), cfg))
        text.warm()

        # one Ray pass, kept for its operator table
        t0 = time.perf_counter()
        ds = extract_corpus_docs(page_dir, cfg)
        docs = collect_docs(ds)
        ray_pass_s = time.perf_counter() - t0
        ops = op_table(ds)
        tally(*check_docs(docs, golden))

        # the production sink and a resume over its completed output
        out = fresh()
        try:
            first = run_checkpointed(page_dir, out, cfg)
            t0 = time.perf_counter()
            again = run_checkpointed(page_dir, out, cfg)
            resume_s = time.perf_counter() - t0
            tally(*check_docs(read_output(out), golden))
            ok = (again["written_partitions"] == 0 and
                  again["skipped_partitions"] == first["written_partitions"])
            tally(1, 0 if ok else 1, [] if ok else [f"resume wrote {again}"])
        finally:
            shutil.rmtree(out, ignore_errors=True)

        end = time.perf_counter() + seconds
        while True:
            tr.run_id += 1
            answers = text.answers(docs_dir, span=tr.span)
            tally(*check_answers({n: inputs.sorted_frame(t)
                                  for n, t in answers.items()}, text.oracles))
            out = fresh()
            try:
                docs, counts = serial_chain(tr, page_dir, cfg, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            tally(*check_docs(docs, golden))
            if time.perf_counter() >= end:
                break
    finally:
        stop_ray()
    tr.write(os.path.join(cache, "trace", f"{name}-s{seed}.json"))

    self_s = medians(tr.self_times())
    values = {f"{layer}.s": self_s[layer]
              for layer in ("read", "demux", "extract", "assemble")}
    values.update(counts)
    values.update(ops)
    values.update({
        "checkpoint.write_s": self_s["checkpoint.write"],
        "checkpoint.resume_scan_s": self_s["checkpoint.resume_scan"],
        "checkpoint.resume_s": resume_s,
        "ray_overhead_s": ray_pass_s - sum(self_s[layer]
                                           for layer in CHAIN_LAYERS),
        "host.calib_s": calibration_s(),
    })
    values.update({f"{k}.s": v for k, v in self_s.items()
                   if k.startswith("query.")})
    metrics = {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    report = {
        "workload": name, "seed": seed, "host": host,
        "ray_num_cpus": host["nproc"], "traced_passes": tr.run_id,
        "page_input": os.path.basename(page_dir),
        "docs_input": os.path.basename(docs_dir),
        "ray_pass_s": ray_pass_s, "serial_chain_s": {
            k: self_s[k] for k in CHAIN_LAYERS},
        "checked": checked, "failed": failed,
        "error_rate": failed / max(1, checked), "notes": notes[:20],
    }
    return metrics, report
