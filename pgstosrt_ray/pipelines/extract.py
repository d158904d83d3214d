"""The flagship extraction pipeline (SURVEY.md §3, Ray lifecycle).

    read_parquet(pages)                      [S1-S7: pruned columns,
       |                                      optional lang pushdown]
    map_batches(demux)                       [M1-M8: stateless tasks;
       |                                      with skew_block_bytes set,
       |                                      the router's byte-bounded
       |                                      cue blocks]
    map_batches(extract)                     [M9-M16: decode fused with
       |                                      OCR; "tasks" mode (default)
       |                                      = per-process warm engine,
       |                                      "actors" = O1 warm pool]
    map_batches(add_bucket)                  [_bucket = sha1(url) % B,
       |                                      B from reduce.buckets_for]
    groupby("_bucket").map_groups(assemble)  [the assembly shuffle: D2
       |                                      merge, fill, A2-A3, R1, F3]
    docs (url, text, n_cues)                 [S8 sink: run_checkpointed
                                              assembles and writes each
                                              bucket as one checkpoint
                                              unit in the same task]

``bucketed_spans`` is the first four steps; their operators depend on
the cluster (``_spans_of``). On one CPU in "tasks" mode the read is
one task (``read_pages``) and demux and extract take whole blocks, so
Ray fuses all four into ONE operator, one task per read block (bounded
by ``DataContext.target_max_block_size``), and the sort shuffle
follows. On two or more CPUs the read is its own operator, then the
skew router (or row-count demux batches), then extract + add_bucket.

Never calls ray.init(); callers own the session (driver contract).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..sources.pages import read_pages
from ..stages.assemble import assemble_bucket
from ..stages.demux import demux_batch
from ..stages.extract import ExtractorEngine


_TASK_ENGINE: dict = {}


def _task_extract(batch: pa.Table, **engine_kwargs) -> pa.Table:
    """Task-mode extract: the engine is a per-worker-process singleton
    (keyed by its construction kwargs), constructed once and reused
    across every batch the worker sees — the same warm-engine
    amortization as the actor pool, scheduled elastically (no pool
    spin-up)."""
    key = tuple(sorted(engine_kwargs.items()))
    eng = _TASK_ENGINE.get(key)
    if eng is None:
        eng = _TASK_ENGINE[key] = ExtractorEngine(**engine_kwargs)
    return eng(batch)


def _demux_router(batch: pa.Table, block_bytes: int):
    """Single-pass skew router: demux ONE page batch, then yield its
    cue rows as blocks bounded by cumulative bitmap bytes. A giant
    payload's cues spread across many blocks (each handled by its own
    downstream extract batch); a single huge cue sits alone. The input
    is read exactly once — this replaces the round-1 dual-lane design
    that scanned the corpus twice."""
    import pyarrow.compute as pc
    cues = demux_batch(batch)
    n = cues.num_rows
    if n == 0:
        yield cues
        return
    col = cues.column("bitmaps").combine_chunks()
    lens = pc.binary_length(col.flatten()).to_numpy(zero_copy_only=False)
    offs = col.offsets.to_numpy()
    cum = np.concatenate([[0], np.cumsum(lens)])
    row_bytes = cum[offs[1:] - offs[0]] - cum[offs[:-1] - offs[0]]
    start, acc = 0, 0
    for i in range(n):
        if i > start and acc + row_bytes[i] > block_bytes:
            yield cues.slice(start, i - start)
            start, acc = i, 0
        acc += row_bytes[i]
    yield cues.slice(start, n - start)


def _spans_of(pages_ds, cfg: PipelineConfig, demux_bs: int,
              extract_bs: int | None):
    from .reduce import cluster_cpus
    cpus = cluster_cpus()
    if cfg.extract_mode != "tasks":
        # the pool's minimum actors hold their CPUs for the whole run;
        # if they leave no room for a demux task nothing ever feeds
        # them and the job hangs, so refuse it before execution
        c = cfg.concurrency()
        pool = c[0] if isinstance(c, tuple) else c
        need = pool * cfg.extract_num_cpus + cfg.demux_num_cpus
        if need > cpus:
            raise ValueError(
                f"extract actor pool of {pool} actors x "
                f"{cfg.extract_num_cpus} CPUs plus {cfg.demux_num_cpus} "
                f"CPUs for demux asks for {need} CPUs, but the cluster "
                f"has {cpus}; lower extract_concurrency or use "
                f"extract_mode='tasks'")
    if cfg.extract_mode == "tasks" and cpus == 1:
        # one CPU: no second worker to take a split, so no router and
        # no re-batching. Whole-block batches let Ray fuse the read
        # (one task, read_pages), demux, extract and add_bucket into
        # ONE operator over each read block (bounded by
        # DataContext.target_max_block_size); every operator boundary
        # dropped is per-operator overhead saved
        cues = pages_ds.map_batches(demux_batch, batch_format="pyarrow",
                                    batch_size=None)
        extract_bs = None
    elif cfg.skew_block_bytes is not None:
        # byte-bounded cue blocks; extract takes one block per batch
        # (on Ray 2.49 the map output buffer merges them back).
        # demux gets a fractional-CPU resource spec so it does NOT fuse
        # with extract — fused, every block of a giant payload would
        # run serially in one task and the split would buy nothing.
        demux_fn = functools.partial(_demux_router,
                                     block_bytes=cfg.skew_block_bytes)
        cues = pages_ds.map_batches(demux_fn, batch_format="pyarrow",
                                    batch_size=demux_bs,
                                    num_cpus=cfg.demux_num_cpus)
        extract_bs = None
    elif cfg.extract_mode == "tasks":
        cues = pages_ds.map_batches(demux_batch, batch_format="pyarrow",
                                    batch_size=demux_bs)
    else:
        # actor-pool mode (O1 shape for expensive engines): demux runs
        # as SEPARATE tasks (fractional num_cpus blocks fusion into the
        # pool), so page-size skew is bounded by the small demux batch
        # and the pool consumes UNIFORM cue batches
        cues = pages_ds.map_batches(demux_batch, batch_format="pyarrow",
                                    batch_size=demux_bs,
                                    num_cpus=cfg.demux_num_cpus)
    engine_kwargs: dict = {}
    if cfg.tessdata_dir is not None:
        engine_kwargs["tessdata_dir"] = cfg.tessdata_dir
        engine_kwargs["language"] = cfg.ocr_language
    elif cfg.ocr_language is not None:
        engine_kwargs["language"] = cfg.ocr_language
    if cfg.extract_mode == "tasks":
        task_fn = (functools.partial(_task_extract, **engine_kwargs)
                   if engine_kwargs else _task_extract)
        return cues.map_batches(task_fn, batch_format="pyarrow",
                                batch_size=extract_bs)
    return cues.map_batches(
        ExtractorEngine, batch_format="pyarrow",
        batch_size=extract_bs,
        fn_constructor_kwargs=engine_kwargs,
        concurrency=cfg.concurrency(),
        num_cpus=cfg.extract_num_cpus)


def bucketed_spans(pages_ds, cfg: PipelineConfig, n_buckets: int):
    """pages Dataset -> spans tagged ``_bucket = sha1(url) % n_buckets``,
    lazily, by the operators ``_spans_of`` picks for the cluster (see
    ``PipelineConfig.skew_block_bytes`` for the skew router)."""
    spans = _spans_of(pages_ds, cfg, cfg.demux_batch_size,
                      cfg.extract_batch_size)
    # shuffle on a hash bucket, not the raw url: the sort-based shuffle
    # then moves small-int keys and per-group overhead is paid per
    # bucket (B groups) instead of per url (millions at scale); the
    # same sha1(url) keying as the checkpoint units (state/checkpoint)
    from ..state.checkpoint import partition_ids

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("_bucket", pa.array(
            partition_ids(batch.column("url"), n_buckets), pa.int32()))

    return spans.map_batches(add_bucket, batch_format="pyarrow")


def extract_docs(pages_ds, cfg: PipelineConfig = DEFAULT_CONFIG,
                 est_bytes: int | None = None):
    """pages Dataset -> docs Dataset (url, text, n_cues). Lazy."""
    from .reduce import buckets_for
    # each assembly bucket arrives as one frame => data-sized count
    # (cfg.assemble_buckets is the parallelism floor; the shuffled
    # spans are extracted TEXT, far below the page bytes upper bound)
    n_buckets = buckets_for(est_bytes, floor=cfg.assemble_buckets)
    assemble = functools.partial(assemble_bucket,
                                 skip_merge=cfg.skip_merge,
                                 force_merge_all=cfg.force_merge_all)
    return (bucketed_spans(pages_ds, cfg, n_buckets)
            .groupby("_bucket")
            .map_groups(assemble, batch_format="pyarrow"))


def extract_corpus_docs(corpus: str, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Corpus directory -> docs Dataset."""
    from .reduce import input_bytes
    return extract_docs(read_pages(corpus, lang=cfg.lang), cfg,
                        est_bytes=input_bytes(f"{corpus}/pages"))


def docs_to_table(docs_ds) -> pa.Table:
    """Materialize a (small) docs Dataset to one url-sorted Arrow table."""
    return pa.Table.from_pandas(docs_ds.to_pandas(),
                                preserve_index=False).sort_by("url")
