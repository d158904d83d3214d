"""Pages-table materialization + readers (SURVEY.md §2.1 S1-S7).

Fixture corpora are written once to a seed-keyed cache directory and
then read with ``ray.data.read_parquet`` with column pruning — the
pipeline never sees the generator. The parquet is written as multiple
row-grouped files so reads parallelize like a real partitioned corpus.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

CACHE_ROOT = os.environ.get("PGSTOSRT_FIXTURE_DIR", "/tmp/pgstosrt_fixtures")


def corpus_dir(name: str, n_urls: int, seed: int,
               heavy: bool = False, profile: str | None = None) -> str:
    profile = profile or ("heavy" if heavy else "default")
    suffix = "" if profile == "default" else f"-{profile}"
    return os.path.join(CACHE_ROOT, f"{name}-u{n_urls}-s{seed}{suffix}")


def materialize_corpus(name: str, n_urls: int, seed: int = 42,
                       files: int = 8, include_tiny: bool = True,
                       heavy: bool = False,
                       profile: str | None = None) -> str:
    """Write (pages, golden) parquet for a corpus; idempotent via a
    _SUCCESS marker. Returns the corpus directory; pages live under
    ``<dir>/pages/part-*.parquet``, golden at ``<dir>/golden.parquet``."""
    from ..fixtures import build_corpus_full
    out = corpus_dir(name, n_urls, seed, heavy, profile)
    # v2 marker: corpora cached before golden_nomerge/golden_cues (and
    # the tiny-corpus garbage url) existed regenerate in place
    marker = os.path.join(out, "_SUCCESS_v2")
    if os.path.exists(marker):
        return out
    full = build_corpus_full(n_urls, seed=seed,
                             include_tiny=include_tiny, heavy=heavy,
                             profile=profile)
    pages = full["pages"]
    pages_dir = os.path.join(out, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    for stale in os.listdir(pages_dir):
        os.unlink(os.path.join(pages_dir, stale))
    n = pages.num_rows
    files = max(1, min(files, n))
    step = (n + files - 1) // files
    for i in range(files):
        chunk = pages.slice(i * step, step)
        if chunk.num_rows:
            pq.write_table(chunk, os.path.join(pages_dir, f"part-{i:05d}.parquet"))
    pq.write_table(full["golden"], os.path.join(out, "golden.parquet"))
    pq.write_table(full["golden_nomerge"],
                   os.path.join(out, "golden_nomerge.parquet"))
    pq.write_table(full["golden_cues"],
                   os.path.join(out, "golden_cues.parquet"))
    with open(marker, "w") as f:
        f.write("ok")
    return out


def read_pages(corpus: str, *, lang: str | None = None,
               columns: list[str] | None = None):
    """``ray.data`` reader with column pruning and an optional
    row-filter pushdown on ``lang`` (the reference's track-by-language
    selection, MkvUtilities.cs:76-96, done at the read).

    On a one-CPU cluster the read is ONE task. Ray otherwise splits
    each read task's output (it aims for at least 2 x CPUs blocks, and
    for 1 MiB blocks up to 200), and a split read never fuses with the
    map after it; the flagship's one-CPU plan fuses the read into its
    page-to-span operator (``pipelines/extract._spans_of``)."""
    import pyarrow.compute as pc
    import ray.data

    from ..pipelines.reduce import cluster_cpus

    if columns is None:
        columns = ["url", "warc_ts", "html"]
    kwargs = {}
    if cluster_cpus() == 1:
        kwargs["override_num_blocks"] = 1
    if lang is not None:
        kwargs["filter"] = pc.field("lang") == lang
        if "lang" not in columns:
            columns = columns + ["lang"]
    return ray.data.read_parquet(os.path.join(corpus, "pages"),
                                 columns=columns, **kwargs)


def read_golden(corpus: str, variant: str = "") -> pa.Table:
    """variant: "" (merged docs), "nomerge", or "cues"."""
    name = f"golden_{variant}.parquet" if variant else "golden.parquet"
    return pq.read_table(os.path.join(corpus, name))
