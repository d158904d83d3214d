"""Checkpointed dedup families on the one primitive of
state/checkpoint.py (``stage_guard`` + ``write_units`` +
``write_partition``): the other long-running 100 TB jobs besides
extraction.

    out_dir/
      sigs/_stage.json, sigs/part=K/data.parquet, sigs/_manifest/K.json
          stage 1: one signature row per doc, unit = sha1(doc_id) % parts
      pairs/_stage.json, pairs/part=G/data.parquet, pairs/_manifest/G.json
          stage 2: candidate edges of salted (band, key) group G
      labels/_stage.json, labels/part=0/*.parquet, labels/_manifest/0.json
          converged cluster labels of the finish leg
      prep/_stage.json, prep/part=B/data.parquet, prep/_manifest/B.json
          prep_corpus: surviving (doc_id, split) rows of dedup bucket B

Families: minhash (checkpoint_signatures / checkpoint_pairs /
finish_dedup_keep), simhash, embedding (LSH near-dup pairs) and
prep_corpus. Each records a ``family`` key in its ``_stage.json``, so
one family never resumes onto another's units.

- Stage 1 is the corpus-sized scan: completed partitions are filtered
  out AT THE READ so their text is never re-scanned.
- Stage 2 is the query path's banded pair step (``dedupe._explode`` +
  ``dedupe._cell_pairs`` under the family's ``dedupe.Banding``): it
  shuffles tiny (band, key, doc_id[, payload]) rows, one unit per
  salted group; completed groups are filtered out before the shuffle.
  It refuses to start until stage 1 is complete (pairs from partial
  signatures would be marked done with missing candidates).
- The finish leg runs from the persisted artifacts; only its label
  propagation result is cached.

This module only persists, guards and wires stages: every signature,
explode, cell kernel, pair collapse, clustering and keeper step is the
query path's own function in pipelines/dedupe.py, so a checkpointed
run computes what the query computes by construction.
"""

from __future__ import annotations

import functools
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from ..pipelines import dedupe
from .checkpoint import (_read_json, _write_json, completed_partitions,
                         partition_ids, skip_done, stage_guard, unit_files,
                         write_units)

SIG_SCHEMA_VERSION = 1
_PREP_SCHEMA = pa.schema([("doc_id", pa.int64()), ("split", pa.string())])


def _checkpoint_sig_stage(sf_dir: str, sig_dir: str, sig_batch_fn,
                          parts: int, fail_after: int | None,
                          stage_params: dict, read_fn=None) -> dict:
    """Generic stage 1: persist a per-doc signature table partition-by-
    partition (sha1(doc_id) % parts), skipping completed partitions AT
    THE READ. ``sig_batch_fn(source_batch) -> Table`` must emit a
    ``doc_id`` column; ``read_fn(sf_dir)`` supplies the source Dataset
    (documents by default)."""
    done = stage_guard(sig_dir, {"parts": parts, **stage_params})

    def pids(batch: pa.Table):
        # the unit id is the flagship's: sha1 of the decimal doc_id
        return partition_ids(batch.column("doc_id").cast(pa.string()),
                             parts)

    def sig_with_pid(batch: pa.Table) -> pa.Table:
        t = sig_batch_fn(batch)
        return t.append_column("_pid", pa.array(pids(t), pa.int32()))

    sig_ds = skip_done((read_fn or dedupe._read_docs)(sf_dir), done, pids)\
        .map_batches(sig_with_pid, batch_format="pyarrow", batch_size=256)
    return write_units(
        sig_ds, "_pid", sig_dir,
        lambda g: (g.drop_columns(["_pid"]).sort_by("doc_id"),
                   {"stage": "signatures"}),
        parts, done, fail_after)


def checkpoint_signatures(sf_dir: str, out_dir: str, parts: int = 16,
                          fail_after: int | None = None) -> dict:
    """MinHash stage 1: persist the signature table partition-by-
    partition, skipping completed partitions at the read."""
    return _checkpoint_sig_stage(
        sf_dir, os.path.join(out_dir, "sigs"), dedupe._minhash_sig_batch,
        parts, fail_after,
        {"family": "minhash", "sig_schema_version": SIG_SCHEMA_VERSION})


def checkpoint_simhash_signatures(sf_dir: str, out_dir: str,
                                  parts: int = 16,
                                  fail_after: int | None = None) -> dict:
    """SimHash stage 1: persist (doc_id, simhash, band0..3) with the
    same partitioned atomic-manifest layout as MinHash."""
    return _checkpoint_sig_stage(
        sf_dir, os.path.join(out_dir, "sigs"), dedupe._simhash_sig_batch,
        parts, fail_after,
        {"family": "simhash",
         "sig_schema_version": SIG_SCHEMA_VERSION})


def _checkpoint_pair_stage(out_dir: str, sig_schema: pa.Schema,
                           banding: dedupe.Banding, groups: int,
                           fail_after: int | None,
                           stage_params: dict) -> dict:
    """Generic stage 2: the query path's banded pair step
    (``dedupe._explode`` + ``dedupe._cell_pairs`` for the family's
    ``banding``) persisted salted group by salted group from the
    checkpointed signature table (``sig_schema`` when no unit holds a
    row, as on an empty corpus); completed groups are filtered before
    the shuffle. Even a group with no edges writes a manifest: an
    absent manifest means "not attempted", never "attempted, no
    pairs"."""
    sig_dir = os.path.join(out_dir, "sigs")
    sig_stage = _read_json(os.path.join(sig_dir, "_stage.json")) or {}
    have = len(completed_partitions(sig_dir))
    if have != sig_stage.get("parts"):
        raise RuntimeError(
            f"checkpoint_pairs: signature stage incomplete under "
            f"{sig_dir} ({have}/{sig_stage.get('parts', 'unknown')} "
            f"partitions); run checkpoint_signatures to completion first")
    pair_dir = os.path.join(out_dir, "pairs")
    done = stage_guard(pair_dir, {"groups": groups,
                                  "sig_parts": sig_stage["parts"],
                                  **stage_params})
    buckets = skip_done(
        _read_units(sig_dir, sig_schema)[0].map_batches(
            functools.partial(dedupe._explode, banding=banding,
                              groups=groups), batch_format="pyarrow"),
        done, lambda t: t.column("grp").to_numpy())
    return write_units(
        buckets, "grp", pair_dir,
        lambda g: (pa.Table.from_pandas(dedupe._cell_pairs(g, banding),
                                        preserve_index=False),
                   {"stage": "pairs", "n_input_rows": len(g)}),
        groups, done, fail_after, batch_format="pandas")


def checkpoint_pairs(out_dir: str, groups: int = 32,
                     fail_after: int | None = None) -> dict:
    """MinHash stage 2: candidate-pair edges per salted (band, key)
    shuffle group."""
    return _checkpoint_pair_stage(
        out_dir, dedupe.SIG_SCHEMA, dedupe.MINHASH, groups, fail_after,
        {"family": "minhash"})


def checkpoint_simhash_pairs(out_dir: str, groups: int = 32,
                             max_hamming: int = 3,
                             fail_after: int | None = None) -> dict:
    """SimHash stage 2: Hamming-verified candidate edges per salted
    (band, key) group; max_hamming is part of the resume contract (a
    different threshold would permanently mark groups done with the
    wrong edge set)."""
    return _checkpoint_pair_stage(
        out_dir, dedupe.SIMHASH_SCHEMA, dedupe.simhash_banding(max_hamming),
        groups, fail_after,
        {"family": "simhash", "max_hamming": max_hamming})


def _read_units(unit_dir: str, empty: pa.Schema):
    """A stage's completed units read back as one Dataset, plus the
    shuffle bucket count their on-disk bytes call for. Units without
    rows are left out; when none has rows the Dataset is ``empty``'s
    typed zero-row table and the count is None."""
    import ray.data

    from ..pipelines.reduce import buckets_for
    files = [p for p in unit_files(unit_dir)
             if pq.ParquetFile(p).metadata.num_rows]
    if not files:
        return ray.data.from_arrow(empty.empty_table()), None
    return ray.data.read_parquet(files, partitioning=None), buckets_for(
        est_bytes=sum(os.path.getsize(p) for p in files))


def _labels_cached(labels_dir: str, params: dict, build_fn):
    """Converged cluster LABELS, cached: a resumed run reads them back
    instead of re-running the propagation rounds (at 100 TB each round
    is a join + bucketed min over the edge list — the expensive part
    of the finish leg). ``params`` go through the stage guard, so a
    different threshold / max_hamming fails loudly instead of serving
    stale labels. Labels persist DISTRIBUTED (write_parquet into a
    temp dir, atomic rename, manifest last) — the label table is
    corpus-sized, it must never collect on the driver."""
    import shutil

    import ray.data

    data_dir = os.path.join(labels_dir, "part=0")
    if stage_guard(labels_dir, params):
        return ray.data.read_parquet(data_dir, partitioning=None)
    labels = build_fn().materialize()
    tmp_dir = data_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    labels.write_parquet(tmp_dir)
    if not os.path.isdir(tmp_dir):
        # no label rows (a corpus without documents): write_parquet
        # writes no file, so the read-back gets one typed empty file
        os.makedirs(tmp_dir)
        pq.write_table(dedupe.LABELS_SCHEMA.empty_table(),
                       os.path.join(tmp_dir, "empty.parquet"))
    if os.path.isdir(data_dir):
        shutil.rmtree(data_dir)
    os.replace(tmp_dir, data_dir)
    _write_json(os.path.join(labels_dir, "_manifest", "0.json"),
                {"part_id": 0, "stage": "labels",
                 "written_at": time.time()})
    return labels


def _cluster_labels(sf_dir: str, out_dir: str, params: dict, verify):
    """Finish leg shared by MinHash and SimHash: the persisted pair
    units -> ``verify(pairs, buckets)`` (the distinct verified pairs)
    -> (doc_id, cluster_id), cached under ``labels/`` with ``params``
    as its guard. With no persisted pair every document is its own
    cluster."""
    def build():
        pairs, buckets = _read_units(os.path.join(out_dir, "pairs"),
                                     dedupe.PAIRS_SCHEMA)
        if buckets is not None:
            pairs = verify(pairs, buckets)
        return dedupe._clusters_of(pairs, sf_dir)

    return _labels_cached(os.path.join(out_dir, "labels"), params, build)


def checkpoint_embedding_signatures(sf_dir: str, out_dir: str,
                                    parts: int = 16,
                                    fail_after: int | None = None
                                    ) -> dict:
    """Embedding-LSH stage 1: persist the query path's ONE row per
    vector — (doc_id, embedding, b0..b5 hyperplane buckets) — not the
    6x-exploded cell rows (6x less checkpoint storage; the explode is
    recomputed cheaply at stage 2)."""
    return _checkpoint_sig_stage(
        sf_dir, os.path.join(out_dir, "sigs"), dedupe._embedding_sig_batch,
        parts, fail_after,
        {"family": "embedding", "tables": dedupe.EMB_TABLES,
         "sig_schema_version": SIG_SCHEMA_VERSION},
        read_fn=dedupe._read_embeddings)


def checkpoint_embedding_pairs(out_dir: str, groups: int = 32,
                               threshold: float = 0.35,
                               fail_after: int | None = None) -> dict:
    """Embedding-LSH stage 2: cosine-verified pairs per salted
    (table, bucket) cell group from the persisted signatures;
    threshold is part of the resume contract."""
    return _checkpoint_pair_stage(
        out_dir, dedupe.EMBEDDING_SIG_SCHEMA,
        dedupe.embedding_banding(threshold), groups, fail_after,
        {"family": "embedding", "threshold": threshold})


def finish_embedding_pairs(out_dir: str):
    """Finish leg: the persisted cell pairs dedup to one (doc_a,
    doc_b, max cosine) row per pair (a pair can collide in several
    tables). Cheap relative to stage 2; rebuilt each run."""
    pairs, buckets = _read_units(os.path.join(out_dir, "pairs"),
                                 dedupe.COSINE_SCHEMA)
    if buckets is None:
        return pairs
    return dedupe._collapse_pairs(pairs, buckets, dedupe.COSINE_SCHEMA,
                                  "max")


def run_checkpointed_embedding_near_dup(
        sf_dir: str, out_dir: str, threshold: float = 0.35,
        sig_parts: int = 16, pair_groups: int = 32,
        fail_after_sig_parts: int | None = None,
        fail_after_pair_groups: int | None = None):
    """End-to-end resumable embedding near-dup: returns ((doc_a,
    doc_b, cosine) Dataset, run metrics)."""
    m1 = checkpoint_embedding_signatures(
        sf_dir, out_dir, parts=sig_parts,
        fail_after=fail_after_sig_parts)
    m2 = checkpoint_embedding_pairs(
        out_dir, groups=pair_groups, threshold=threshold,
        fail_after=fail_after_pair_groups)
    return finish_embedding_pairs(out_dir), {"signatures": m1,
                                             "pairs": m2}


def run_checkpointed_prep_corpus(sf_dir: str, out_dir: str,
                                 buckets: int = 32,
                                 fail_after: int | None = None):
    """Resumable prep_corpus composition (normalize -> quality gate ->
    exact dedup -> split; pipelines/extended.q_prep_corpus): the
    checkpoint unit is the DEDUP BUCKET fp[:8] % buckets — each bucket
    is independently complete (every fingerprint lands in exactly one
    bucket, so its keeper set never depends on other buckets). On
    resume, completed buckets are filtered out BEFORE the shuffle;
    the narrow normalize/gate scan recomputes (it is what derives the
    bucket id), exactly like the pair stages recompute their explode.
    Returns ((doc_id, split) Dataset, metrics)."""
    from ..pipelines.extended import prep_keep_first, prep_stage1

    pdir = os.path.join(out_dir, "prep")
    done = stage_guard(pdir, {"family": "prep_corpus", "buckets": buckets})
    tagged = skip_done(
        dedupe._read_docs(sf_dir).map_batches(
            functools.partial(prep_stage1, B=buckets),
            batch_format="pandas"),
        done, lambda t: t.column("_b").to_numpy())
    metrics = write_units(
        tagged, "_b", pdir,
        lambda g: (pa.Table.from_pandas(prep_keep_first(g),
                                        preserve_index=False),
                   {"stage": "prep_corpus", "n_input_rows": len(g)}),
        buckets, done, fail_after, batch_format="pandas")
    return _read_units(pdir, _PREP_SCHEMA)[0], metrics


def finish_dedup_keep(sf_dir: str, out_dir: str,
                      threshold: float = 0.5):
    """MinHash finish leg from persisted artifacts: distinct candidate
    ids -> signature re-attach + Jaccard estimate -> label propagation
    -> surviving doc_ids. Returns a Dataset."""
    def verified(pairs, buckets: int):
        sigs, _ = _read_units(os.path.join(out_dir, "sigs"),
                              dedupe.SIG_SCHEMA)
        sigs = sigs.select_columns(["doc_id", "sig"]).materialize()
        return dedupe.estimate_pairs(
            dedupe._collapse_pairs(pairs, buckets), sigs, threshold)

    return dedupe._keepers(_cluster_labels(
        sf_dir, out_dir, {"family": "minhash", "threshold": threshold},
        verified), sf_dir)


def finish_simhash_clusters(sf_dir: str, out_dir: str,
                            max_hamming: int = 3):
    """SimHash finish leg from persisted artifacts: the pair files are
    already Hamming-verified edges, so the leg is one bucketed
    (doc_a, doc_b) dedup + label propagation. Returns the full
    (doc_id, cluster_id) Dataset (mirrors dedupe.simhash_dedup_clusters)."""
    return _cluster_labels(
        sf_dir, out_dir, {"family": "simhash", "max_hamming": max_hamming},
        lambda pairs, buckets: dedupe._collapse_pairs(
            pairs.select_columns(["doc_a", "doc_b"]), buckets))


def run_checkpointed_simhash(sf_dir: str, out_dir: str,
                             max_hamming: int = 3, sig_parts: int = 16,
                             pair_groups: int = 32,
                             fail_after_sig_parts: int | None = None,
                             fail_after_pair_groups: int | None = None):
    """End-to-end resumable SimHash clustering: returns
    ((doc_id, cluster_id) Dataset, run metrics). Re-running after a
    crash skips completed signature partitions and pair groups."""
    m1 = checkpoint_simhash_signatures(sf_dir, out_dir, parts=sig_parts,
                                       fail_after=fail_after_sig_parts)
    m2 = checkpoint_simhash_pairs(out_dir, groups=pair_groups,
                                  max_hamming=max_hamming,
                                  fail_after=fail_after_pair_groups)
    labels = finish_simhash_clusters(sf_dir, out_dir, max_hamming)
    return labels, {"signatures": m1, "pairs": m2}


def run_checkpointed_dedup(sf_dir: str, out_dir: str,
                           threshold: float = 0.5, sig_parts: int = 16,
                           pair_groups: int = 32,
                           fail_after_sig_parts: int | None = None,
                           fail_after_pair_groups: int | None = None):
    """End-to-end resumable MinHash dedup: returns (keepers Dataset,
    run metrics). Re-running after a crash skips completed signature
    partitions and pair groups."""
    m1 = checkpoint_signatures(sf_dir, out_dir, parts=sig_parts,
                               fail_after=fail_after_sig_parts)
    m2 = checkpoint_pairs(out_dir, groups=pair_groups,
                          fail_after=fail_after_pair_groups)
    keep = finish_dedup_keep(sf_dir, out_dir, threshold)
    return keep, {"signatures": m1, "pairs": m2}
