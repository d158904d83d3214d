"""The one checkpoint/resume primitive (north_rule: "resumable from
checkpoint with per-partition lineage + metrics") and the flagship
extraction that uses it.

Every checkpointed stage owns one directory:

    dir/
      _stage.json              # parameters that shape the output
      part=K/data.parquet      # the rows of unit K
      _manifest/K.json         # unit K's lineage + metrics
      _manifest/_run.json      # flagship only: run totals + stage metrics

The primitive has three parts:

- ``write_partition`` writes one unit atomically: data file (temp +
  rename), then its manifest (temp + rename). A unit is complete iff
  its manifest exists, so a crash can leave orphan data but never a
  manifest without data.
- ``stage_guard`` records the stage's parameters on first use and
  refuses a resume whose parameters differ, in either direction: a
  changed value and a key present on only one side are both clashes.
  It returns the completed units, which the caller filters out at the
  read, so finished work is never recomputed.
- ``write_units`` groups a keyed dataset by unit id and writes each
  unit from the workers (``map_groups``); its ``fail_after`` fault
  hook lives on that same path, so kill/resume tests run production
  code. A unit that received no rows gets a manifest without data
  once the stage has run, so a completed stage always has every unit
  complete.

Five families use it:

- extract (``run_checkpointed`` below): unit = assembly bucket =
  sha1(url) % n, n data-sized with ``num_partitions`` as its floor;
  each unit is assembled and written in one ``map_groups`` task (ONE
  shuffle). The guard records n, the output-shaping config and input;
- minhash, simhash, embedding (``state/dedup_checkpoint.py``):
  ``sigs/`` units are sha1(doc_id) % parts, ``pairs/`` units are salted
  (band, key) shuffle groups, ``labels/`` holds the converged labels;
- prep_corpus (``state/dedup_checkpoint.py``): unit = dedup bucket.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def partition_of(url: str, num_partitions: int) -> int:
    return int.from_bytes(hashlib.sha1(url.encode()).digest()[:8],
                          "big") % num_partitions


def partition_ids(urls, num_partitions: int) -> np.ndarray:
    """``partition_of`` for a url column, as int32: each unique url is
    hashed once, then gathered (many rows share a url)."""
    import pandas as pd
    codes, uniques = pd.factorize(urls.to_pandas())
    per_unique = np.fromiter(
        (partition_of(u, num_partitions) for u in uniques),
        dtype=np.int32, count=len(uniques))
    return per_unique[codes]


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _write_json(path: str, obj: dict) -> None:
    """Atomic JSON write: temp file in the target dir, then rename."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    with os.fdopen(fd, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _read_json(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def completed_partitions(out_dir: str) -> set[int]:
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for name in os.listdir(mdir):
        if name.endswith(".json"):
            try:
                out.add(int(name[:-5]))
            except ValueError:
                pass
    return out


def _data_path(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, f"part={part_id}", "data.parquet")


def write_partition(out_dir: str, part_id: int, table: pa.Table | None,
                    metrics: dict | None = None) -> None:
    """Atomically write one unit's data, then its manifest; ``metrics``
    are extra manifest fields (stage, timings, checksums). ``table=None``
    completes a unit that received no rows: a manifest, no data."""
    n_rows = n_bytes = 0
    if table is not None:
        data_path = _data_path(out_dir, part_id)
        os.makedirs(os.path.dirname(data_path), exist_ok=True)
        pq.write_table(table, data_path + ".tmp")
        os.replace(data_path + ".tmp", data_path)
        n_rows, n_bytes = table.num_rows, os.path.getsize(data_path)
    _write_json(os.path.join(_manifest_dir(out_dir), f"{part_id}.json"), {
        "part_id": part_id, "n_rows": n_rows, "n_bytes": n_bytes,
        "written_at": time.time(), **(metrics or {})})


def unit_files(out_dir: str) -> list[str]:
    """Data files of the completed units, in unit order (units
    completed without rows have none). Read them with
    ``partitioning=None``: the ``part=K`` directory is a layout, not a
    column."""
    files = [_data_path(out_dir, k)
             for k in sorted(completed_partitions(out_dir))]
    return [p for p in files if os.path.exists(p)]


def stage_guard(dir_path: str, params: dict) -> set[int]:
    """Admit a (re)run of the stage in ``dir_path`` only with the
    parameters that produced its completed units; returns those units.

    Unit counts are baked into the layout (a different count remaps
    ids to units and silently drops rows), and every other recorded
    parameter changes the output, so any difference fails loudly. A
    dir with completed units but no ``_stage.json`` (older layout) is
    refused too: nothing proves which parameters produced it."""
    params = json.loads(json.dumps(params))    # compare as stored
    path = os.path.join(dir_path, "_stage.json")
    have = _read_json(path)
    done = completed_partitions(dir_path)
    if have is None:
        if done:
            raise ValueError(
                f"checkpoint dir {dir_path} has completed partitions but "
                f"no _stage.json manifest (written by an older layout); "
                f"cannot verify it used the requested parameters "
                f"{params}. Start a fresh out_dir.")
        _write_json(path, params)
        return done
    absent = "<absent>"
    clash = {k: (have.get(k, absent), params.get(k, absent))
             for k in sorted(have.keys() | params.keys())
             if have.get(k, absent) != params.get(k, absent)}
    if clash:
        raise ValueError(
            f"checkpoint resume parameter mismatch under {dir_path}: "
            f"{clash} (existing vs requested). Resume with the original "
            f"parameters or start a fresh out_dir.")
    return done


def skip_done(ds, done: set[int], unit_of):
    """Resume filter: drop rows whose unit (``unit_of(batch)`` -> ids)
    is already complete."""
    if not done:
        return ds
    done_ids = np.array(sorted(done))

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~np.isin(unit_of(batch), done_ids)))

    return ds.map_batches(keep, batch_format="pyarrow")


def write_units(ds, key: str, out_dir: str, build, n_units: int,
                done: set[int], fail_after: int | None = None,
                batch_format: str = "pyarrow") -> dict:
    """Write every unit of ``ds`` (the rows sharing one ``key`` id)
    from the workers: ``build(group) -> (table, manifest fields)``,
    then ``write_partition``. Returns run metrics.

    Once every group is written, each pending unit that received no
    rows is completed without data, so ``written`` + ``skipped`` is
    ``n_units`` after any finished run.

    ``fail_after=K`` is the fault hook: the workers write only the
    first K pending unit ids, then the driver raises, leaving the dir
    as a crash after K units would."""
    t0 = time.perf_counter()
    allowed = (None if fail_after is None else
               set(sorted(set(range(n_units)) - done)[:fail_after]))

    def write_group(group):
        arrow = isinstance(group, pa.Table)
        uid = group[key][0].as_py() if arrow else int(group[key].iloc[0])
        ids, rows = [], []
        if allowed is None or uid in allowed:
            t_start = time.perf_counter()
            table, fields = build(group)
            write_partition(out_dir, uid, table, {
                **fields,
                "wall_time_s": round(time.perf_counter() - t_start, 4)})
            ids, rows = [uid], [table.num_rows]
        out = pa.table({"part_id": pa.array(ids, pa.int64()),
                        "n_rows": pa.array(rows, pa.int64())})
        return out if arrow else out.to_pandas()

    res = ds.groupby(key).map_groups(
        write_group, batch_format=batch_format).materialize()
    if fail_after is not None:
        raise RuntimeError(f"injected failure after {res.count()} units")
    for uid in set(range(n_units)) - completed_partitions(out_dir):
        write_partition(out_dir, uid, None)
    return {"written": n_units - len(done), "skipped": len(done),
            "wall_time_s": round(time.perf_counter() - t0, 3),
            "stages": stage_metrics(res)}


def stage_metrics(ds) -> list:
    """Per-stage operator metrics from an EXECUTED dataset's stats:
    rows/s plus task wall-time p50/p99 per pipeline stage (SURVEY §4's
    p99-in-the-manifest promise — the 100 TB operator's progress
    surface, analogue of the reference's per-50-items progress log,
    PgsOcr.cs:98-101). Walks the stats chain; returns [] when stats
    are unavailable (e.g. never executed)."""
    out, seen = [], set()

    def walk(st):
        if st is None or id(st) in seen:
            return
        seen.add(id(st))
        for p in (getattr(st, "parents", None) or []):
            walk(p)
        for name, blocks in (getattr(st, "metadata", None) or {}).items():
            walls = np.array([b.exec_stats.wall_time_s for b in blocks
                              if b.exec_stats is not None])
            rows = sum(b.num_rows or 0 for b in blocks)
            if not len(walls):
                continue
            out.append({
                "stage": name,
                "n_blocks": int(len(walls)),
                "rows": int(rows),
                "wall_p50_s": round(float(np.percentile(walls, 50)), 5),
                "wall_p99_s": round(float(np.percentile(walls, 99)), 5),
                "wall_max_s": round(float(walls.max()), 5),
                "wall_sum_s": round(float(walls.sum()), 5),
                "rows_per_s": (round(rows / walls.sum(), 1)
                               if walls.sum() else None),
            })

    try:
        walk(ds._plan.stats())
    except Exception:
        return []
    return out


def read_output(out_dir: str) -> pa.Table:
    """Read back all completed partitions as one table."""
    parts = [pq.read_table(p) for p in unit_files(out_dir)]
    if not parts:
        return pa.table({"url": pa.array([], pa.string()),
                         "text": pa.array([], pa.string()),
                         "n_cues": pa.array([], pa.int32())})
    return pa.concat_tables(parts)


def run_checkpointed(corpus: str, out_dir: str, cfg=None,
                     fail_after_parts: int | None = None) -> dict:
    """Run the extraction pipeline with per-unit checkpointing and ONE
    shuffle: the unit is the assembly bucket, sha1(url) % n with n =
    ``reduce.buckets_for(input bytes, floor=num_partitions)`` (n ==
    ``num_partitions`` below num_partitions x 64 MiB of pages), so
    ``write_units`` assembles and writes each unit in one
    ``map_groups`` task and the unit count is the assembly parallelism.

    The guard records n as ``num_partitions`` and admits a resume only
    with the same n, merge flags, language filters and input files
    (name + size of ``pages/*.parquet``); sizing fields (batch sizes,
    concurrency, skew blocks, extract mode) may change. Completed units
    are filtered out AT THE READ, so no demux/extract work happens for
    them; the rest are written from the workers (multi-node: out_dir
    is shared storage). ``fail_after_parts`` is ``write_units``' fault
    hook. Returns run metrics.
    """
    from ..config import DEFAULT_CONFIG
    from ..pipelines.extract import bucketed_spans
    from ..pipelines.reduce import buckets_for, input_bytes
    from ..sources.pages import read_pages
    from ..stages.assemble import assemble_bucket

    cfg = cfg or DEFAULT_CONFIG
    pages_dir = os.path.join(corpus, "pages")
    n = buckets_for(input_bytes(pages_dir), floor=cfg.num_partitions)
    done = stage_guard(out_dir, {
        "family": "extract", "num_partitions": n,
        "skip_merge": cfg.skip_merge,
        "force_merge_all": cfg.force_merge_all, "lang": cfg.lang,
        "ocr_language": cfg.ocr_language,
        "input": sorted([f, os.path.getsize(os.path.join(pages_dir, f))]
                        for f in os.listdir(pages_dir)
                        if f.endswith(".parquet"))})

    def build(group: pa.Table):
        table = assemble_bucket(group, skip_merge=cfg.skip_merge,
                                force_merge_all=cfg.force_merge_all)
        sha = hashlib.sha256()
        for url, text in zip(table.column("url").to_pylist(),
                             table.column("text").to_pylist()):
            sha.update(url.encode())
            sha.update(text.encode())
        return table, {"content_sha256": sha.hexdigest()}

    pages = skip_done(read_pages(corpus, lang=cfg.lang), done,
                      lambda b: partition_ids(b.column("url"), n))
    m = write_units(bucketed_spans(pages, cfg, n), "_bucket", out_dir,
                    build, n, done, fail_after_parts)
    run = {"written_partitions": m["written"],
           "skipped_partitions": m["skipped"],
           "wall_time_s": m["wall_time_s"]}
    _write_json(os.path.join(_manifest_dir(out_dir), "_run.json"),
                {**run, "stages": m["stages"], "written_at": time.time()})
    return run
