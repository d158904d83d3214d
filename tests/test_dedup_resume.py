"""Kill/resume for the checkpointed MinHash dedup (north_rule
resumability; round-3 VERDICT item 7): a crash mid-stage leaves atomic
manifests; the rerun skips completed signature partitions / pair
groups and the final keep-set equals the non-checkpointed pipeline."""

import os

import pytest
import ray

SF_DIR = "/root/testdata/sf0.001"


def _rows(ds) -> set[int]:
    import pyarrow as pa
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return set()
    return set(pa.concat_tables(tabs).column("doc_id").to_pylist())


@pytest.fixture()
def expected_keepers(ray_session):
    from pgstosrt_ray.pipelines.dedupe import minhash_dedup_keep
    return _rows(minhash_dedup_keep(SF_DIR))


def test_sig_crash_then_resume(ray_session, tmp_path, expected_keepers):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    out = str(tmp_path / "dedup")
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.checkpoint_signatures(SF_DIR, out, parts=8, fail_after=3)
    from pgstosrt_ray.state.checkpoint import completed_partitions
    assert len(completed_partitions(os.path.join(out, "sigs"))) == 3
    # resume: only the remaining 5 partitions are written
    m = dc.checkpoint_signatures(SF_DIR, out, parts=8)
    assert m["skipped"] == 3
    assert m["written"] == 5
    m2 = dc.checkpoint_pairs(out, groups=16)
    assert m2["written"] >= 1
    keep = _rows(dc.finish_dedup_keep(SF_DIR, out))
    assert keep == expected_keepers


def test_pair_crash_then_resume(ray_session, tmp_path, expected_keepers):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import completed_partitions
    out = str(tmp_path / "dedup")
    dc.checkpoint_signatures(SF_DIR, out, parts=8)
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.checkpoint_pairs(out, groups=16, fail_after=4)
    n_done = len(completed_partitions(os.path.join(out, "pairs")))
    assert n_done == 4
    m = dc.checkpoint_pairs(out, groups=16)
    assert m["skipped"] == 4
    keep = _rows(dc.finish_dedup_keep(SF_DIR, out))
    assert keep == expected_keepers


def test_full_run_matches_pipeline(ray_session, tmp_path, expected_keepers):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    keep_ds, metrics = dc.run_checkpointed_dedup(
        SF_DIR, str(tmp_path / "dedup"))
    assert metrics["signatures"]["written"] == 16
    assert _rows(keep_ds) == expected_keepers
    # second run is a no-op on both stages
    keep2, m2 = dc.run_checkpointed_dedup(SF_DIR, str(tmp_path / "dedup"))
    assert m2["signatures"]["written"] == 0
    assert m2["signatures"]["skipped"] == 16
    assert _rows(keep2) == expected_keepers


def test_manifests_carry_metrics(ray_session, tmp_path):
    import json
    from pgstosrt_ray.state import dedup_checkpoint as dc
    out = str(tmp_path / "dedup")
    dc.checkpoint_signatures(SF_DIR, out, parts=4)
    mdir = os.path.join(out, "sigs", "_manifest")
    manifests = [json.load(open(os.path.join(mdir, f)))
                 for f in os.listdir(mdir)]
    assert len(manifests) == 4
    for m in manifests:
        assert m["stage"] == "signatures"
        assert m["n_rows"] > 0 and m["n_bytes"] > 0
        assert "wall_time_s" in m


def test_pairs_require_completed_signatures(ray_session, tmp_path):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    with pytest.raises(RuntimeError, match="signature stage incomplete"):
        dc.checkpoint_pairs(str(tmp_path / "nothing"), groups=4)


def test_pairs_refuse_partial_signatures(ray_session, tmp_path):
    """ADVICE: pairing directly after a stage-1 crash must refuse —
    pairs from partial signatures would be permanently marked done."""
    from pgstosrt_ray.state import dedup_checkpoint as dc
    out = str(tmp_path / "dedup")
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.checkpoint_signatures(SF_DIR, out, parts=8, fail_after=3)
    with pytest.raises(RuntimeError, match="3/8 partitions"):
        dc.checkpoint_pairs(out, groups=16)


def test_resume_with_different_parts_raises(ray_session, tmp_path):
    """ADVICE: partition/group counts are baked into the on-disk
    layout; resuming with different counts would remap ids and
    silently mis-filter — it must fail loudly."""
    from pgstosrt_ray.state import dedup_checkpoint as dc
    out = str(tmp_path / "dedup")
    dc.checkpoint_signatures(SF_DIR, out, parts=8)
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.checkpoint_signatures(SF_DIR, out, parts=4)
    # another family must not resume onto MinHash signatures
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.checkpoint_simhash_signatures(SF_DIR, out, parts=8)
    dc.checkpoint_pairs(out, groups=16)
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.checkpoint_pairs(out, groups=32)


def test_legacy_dir_without_stage_manifest_refuses(ray_session,
                                                   tmp_path):
    """ADVICE r4: a checkpoint dir written before _stage.json existed
    (completed partitions, no manifest) must refuse a resume instead
    of adopting whatever parameters the resuming call passes — the
    original partition count is unknowable, so any assumption risks
    the doc_id->pid remap mis-filter."""
    from pgstosrt_ray.state import dedup_checkpoint as dc
    out = str(tmp_path / "dedup")
    dc.checkpoint_signatures(SF_DIR, out, parts=8)
    os.remove(os.path.join(out, "sigs", "_stage.json"))
    # even the ORIGINAL count is rejected: nothing proves it matches
    with pytest.raises(ValueError, match="no _stage.json"):
        dc.checkpoint_signatures(SF_DIR, out, parts=8)
    with pytest.raises(ValueError, match="no _stage.json"):
        dc.checkpoint_signatures(SF_DIR, out, parts=4)


def test_finish_leg_labels_persist(ray_session, tmp_path,
                                   expected_keepers, monkeypatch):
    """Round-3 VERDICT item 7: the converged label-propagation result
    persists; a resumed finish leg reads it instead of re-running the
    propagation rounds (asserted by poisoning label_propagation)."""
    from pgstosrt_ray.pipelines import dedupe
    from pgstosrt_ray.state import dedup_checkpoint as dc
    out = str(tmp_path / "dedup")
    dc.checkpoint_signatures(SF_DIR, out, parts=8)
    dc.checkpoint_pairs(out, groups=16)
    keep1 = _rows(dc.finish_dedup_keep(SF_DIR, out))
    assert keep1 == expected_keepers

    def boom(*a, **kw):
        raise AssertionError("label_propagation re-ran on resume")

    monkeypatch.setattr(dedupe, "label_propagation", boom)
    keep2 = _rows(dc.finish_dedup_keep(SF_DIR, out))
    assert keep2 == expected_keepers
    # a different threshold must NOT serve the cached labels
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.finish_dedup_keep(SF_DIR, out, threshold=0.9)


# --- simhash family (round-4 VERDICT #5: resume beyond minhash) -----------
@pytest.fixture()
def expected_simhash_clusters(ray_session):
    import pyarrow as pa
    from pgstosrt_ray.pipelines.dedupe import simhash_dedup_clusters
    tabs = [t for t in ray.get(
        simhash_dedup_clusters(SF_DIR).to_arrow_refs()) if t.num_rows]
    t = pa.concat_tables(tabs)
    return dict(zip(t.column("doc_id").to_pylist(),
                    t.column("cluster_id").to_pylist()))


def _labels(ds) -> dict[int, int]:
    import pyarrow as pa
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    t = pa.concat_tables(tabs)
    return dict(zip(t.column("doc_id").to_pylist(),
                    t.column("cluster_id").to_pylist()))


def test_simhash_sig_crash_then_resume(ray_session, tmp_path,
                                       expected_simhash_clusters):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import completed_partitions
    out = str(tmp_path / "sim")
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.checkpoint_simhash_signatures(SF_DIR, out, parts=8,
                                         fail_after=3)
    assert len(completed_partitions(os.path.join(out, "sigs"))) == 3
    m = dc.checkpoint_simhash_signatures(SF_DIR, out, parts=8)
    assert m["skipped"] == 3 and m["written"] == 5
    # MinHash must not resume onto SimHash signatures: its parameters
    # are a subset of SimHash's, so a one-way key check let it through
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.checkpoint_signatures(SF_DIR, out, parts=8)
    dc.checkpoint_simhash_pairs(out, groups=16)
    labels = _labels(dc.finish_simhash_clusters(SF_DIR, out))
    assert labels == expected_simhash_clusters


def test_simhash_pair_crash_then_resume(ray_session, tmp_path,
                                        expected_simhash_clusters):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import completed_partitions
    out = str(tmp_path / "sim")
    dc.checkpoint_simhash_signatures(SF_DIR, out, parts=8)
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.checkpoint_simhash_pairs(out, groups=16, fail_after=4)
    assert len(completed_partitions(os.path.join(out, "pairs"))) == 4
    m = dc.checkpoint_simhash_pairs(out, groups=16)
    assert m["skipped"] == 4
    labels = _labels(dc.finish_simhash_clusters(SF_DIR, out))
    assert labels == expected_simhash_clusters


def test_simhash_full_run_and_label_persistence(
        ray_session, tmp_path, expected_simhash_clusters, monkeypatch):
    from pgstosrt_ray.pipelines import dedupe
    from pgstosrt_ray.state import dedup_checkpoint as dc
    out = str(tmp_path / "sim")
    labels_ds, metrics = dc.run_checkpointed_simhash(SF_DIR, out)
    assert metrics["signatures"]["written"] == 16
    assert _labels(labels_ds) == expected_simhash_clusters

    def boom(*a, **kw):
        raise AssertionError("label_propagation re-ran on resume")

    monkeypatch.setattr(dedupe, "label_propagation", boom)
    again = _labels(dc.finish_simhash_clusters(SF_DIR, out))
    assert again == expected_simhash_clusters
    # a different hamming threshold must NOT serve the cached labels
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.finish_simhash_clusters(SF_DIR, out, max_hamming=1)
    # nor may stage 2 resume with a different threshold
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.checkpoint_simhash_pairs(out, groups=16, max_hamming=1)


# --- embedding-LSH family (round-5 extension of the same machinery) -------
def _pair_set(ds) -> set:
    import pyarrow as pa
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return set()
    t = pa.concat_tables(tabs)
    return set(zip(t.column("doc_a").to_pylist(),
                   t.column("doc_b").to_pylist(),
                   (round(c, 9) for c in t.column("cosine").to_pylist())))


@pytest.fixture()
def expected_embedding_pairs(ray_session):
    from pgstosrt_ray.pipelines.dedupe import embedding_near_dup_pairs
    return _pair_set(embedding_near_dup_pairs(SF_DIR))


def test_embedding_sig_crash_then_resume(ray_session, tmp_path,
                                         expected_embedding_pairs):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import completed_partitions
    out = str(tmp_path / "emb")
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.checkpoint_embedding_signatures(SF_DIR, out, parts=8,
                                           fail_after=3)
    assert len(completed_partitions(os.path.join(out, "sigs"))) == 3
    m = dc.checkpoint_embedding_signatures(SF_DIR, out, parts=8)
    assert m["skipped"] == 3 and m["written"] == 5
    dc.checkpoint_embedding_pairs(out, groups=16)
    assert _pair_set(dc.finish_embedding_pairs(out)) == \
        expected_embedding_pairs


def test_embedding_pair_crash_then_resume(ray_session, tmp_path,
                                          expected_embedding_pairs):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import completed_partitions
    out = str(tmp_path / "emb")
    dc.checkpoint_embedding_signatures(SF_DIR, out, parts=8)
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.checkpoint_embedding_pairs(out, groups=16, fail_after=4)
    assert len(completed_partitions(os.path.join(out, "pairs"))) == 4
    m = dc.checkpoint_embedding_pairs(out, groups=16)
    assert m["skipped"] == 4
    assert _pair_set(dc.finish_embedding_pairs(out)) == \
        expected_embedding_pairs
    # a different cosine threshold must not resume onto these groups
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.checkpoint_embedding_pairs(out, groups=16, threshold=0.9)


def test_embedding_full_run_matches_pipeline(ray_session, tmp_path,
                                             expected_embedding_pairs):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    pairs, metrics = dc.run_checkpointed_embedding_near_dup(
        SF_DIR, str(tmp_path / "emb"))
    assert metrics["signatures"]["written"] == 16
    assert _pair_set(pairs) == expected_embedding_pairs
    assert len(expected_embedding_pairs) > 0


# --- prep_corpus composition (round-5: the last uncovered family) ---------
def _splits(ds) -> dict[int, str]:
    import pyarrow as pa
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return {}
    t = pa.concat_tables(tabs)
    return dict(zip(t.column("doc_id").to_pylist(),
                    t.column("split").to_pylist()))


@pytest.fixture()
def expected_prep(ray_session):
    from pgstosrt_ray.pipelines.extended import q_prep_corpus
    return _splits(q_prep_corpus(SF_DIR))


def test_prep_corpus_crash_then_resume(ray_session, tmp_path,
                                       expected_prep):
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import completed_partitions
    out = str(tmp_path / "prep")
    with pytest.raises(RuntimeError, match="injected failure"):
        dc.run_checkpointed_prep_corpus(SF_DIR, out, buckets=16,
                                        fail_after=5)
    assert len(completed_partitions(os.path.join(out, "prep"))) == 5
    res, m = dc.run_checkpointed_prep_corpus(SF_DIR, out, buckets=16)
    assert m["skipped"] == 5
    assert _splits(res) == expected_prep
    assert len(expected_prep) > 0
    # rerun is a no-op (all buckets already done)
    res2, m2 = dc.run_checkpointed_prep_corpus(SF_DIR, out, buckets=16)
    assert m2["written"] == 0
    assert _splits(res2) == expected_prep
    # a different bucket count would remap fp -> bucket: fail loudly
    with pytest.raises(ValueError, match="parameter mismatch"):
        dc.run_checkpointed_prep_corpus(SF_DIR, out, buckets=8)


# --- persisted-unit edge cases ---------------------------------------------
@pytest.fixture()
def few_docs_dir(tmp_path):
    """Six documents and six embeddings, fewer than the default 16
    signature units (so most units receive no rows); doc 5 / vec 5 is
    a copy of doc 0 / vec 0, a planted near-dup for every family."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    d = tmp_path / "few"
    d.mkdir()
    for name, id_col in (("documents", "doc_id"), ("embeddings", "vec_id")):
        t = pq.read_table(f"{SF_DIR}/{name}.parquet").slice(0, 5)
        t = pa.concat_tables([t, t.slice(0, 1)])
        t = t.set_column(t.schema.get_field_index(id_col), id_col,
                         pa.array(range(6), pa.int64()))
        pq.write_table(t, str(d / f"{name}.parquet"))
    return str(d)


def test_fewer_docs_than_signature_units(ray_session, tmp_path,
                                         few_docs_dir):
    """A signature unit that receives no rows is complete once its
    stage has run, so all three families finish on a corpus with fewer
    documents than sig_parts and equal their query paths (the pair
    stage used to refuse: 'signature stage incomplete (4/16)')."""
    from pgstosrt_ray.pipelines import dedupe
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import completed_partitions
    d, out = few_docs_dir, str(tmp_path / "mh")
    keep, m = dc.run_checkpointed_dedup(d, out)
    assert m["signatures"]["written"] == 16
    assert len(completed_partitions(os.path.join(out, "sigs"))) == 16
    want = _rows(dedupe.minhash_dedup_keep(d))
    assert _rows(keep) == want and len(want) == 5
    # the rerun finds every unit complete, the empty ones included
    keep2, m2 = dc.run_checkpointed_dedup(d, out)
    assert m2["signatures"] == {**m2["signatures"], "written": 0,
                                "skipped": 16}
    assert _rows(keep2) == want

    labels, _ = dc.run_checkpointed_simhash(d, str(tmp_path / "sh"))
    want_labels = _labels(dedupe.simhash_dedup_clusters(d))
    assert _labels(labels) == want_labels
    assert want_labels[5] == want_labels[0]

    pairs, _ = dc.run_checkpointed_embedding_near_dup(
        d, str(tmp_path / "emb"))
    want_pairs = _pair_set(dedupe.embedding_near_dup_pairs(d))
    assert _pair_set(pairs) == want_pairs
    assert (0, 5) in {p[:2] for p in want_pairs}


@pytest.fixture()
def zero_docs_dir(tmp_path):
    """Typed zero-row documents and embeddings tables."""
    import pyarrow.parquet as pq
    d = tmp_path / "zero"
    d.mkdir()
    for name in ("documents", "embeddings"):
        pq.write_table(pq.read_table(f"{SF_DIR}/{name}.parquet").slice(0, 0),
                       str(d / f"{name}.parquet"))
    return str(d)


def test_zero_documents(ray_session, tmp_path, zero_docs_dir):
    """On a corpus without documents every signature unit completes
    without data; each family's checkpointed run, and its rerun over
    the completed units, then returns what its query path returns (the
    pair stage used to hand read_parquet an empty file list: 'Must
    provide at least one path.'). Every near-dup query path answers
    the empty corpus with a typed result: the columns of its answer on
    a corpus with documents (a map over zero rows keeps no schema)."""
    from pgstosrt_ray.pipelines import dedupe
    from pgstosrt_ray.state import dedup_checkpoint as dc
    d = zero_docs_dir
    for query in (dedupe.minhash_candidate_pairs,
                  dedupe.minhash_dedup_clusters, dedupe.minhash_dedup_keep,
                  dedupe.simhash_near_dup_pairs,
                  dedupe.simhash_dedup_clusters,
                  dedupe.embedding_near_dup_pairs):
        empty = query(d).schema()
        assert (empty and empty.names) == _columns(query(SF_DIR)), \
            query.__name__
    for run, query in (
            (dc.run_checkpointed_dedup, dedupe.minhash_dedup_keep),
            (dc.run_checkpointed_simhash, dedupe.simhash_dedup_clusters),
            (dc.run_checkpointed_embedding_near_dup,
             dedupe.embedding_near_dup_pairs)):
        want = query(d).take_all()
        out = str(tmp_path / run.__name__)
        for written in (16, 0):
            got, m = run(d, out)
            assert got.take_all() == want == []
            assert m["signatures"]["written"] == written


def _columns(ds) -> list:
    return list(ds.schema().names)


def test_unit_reads_keep_query_schema(ray_session, tmp_path):
    """Persisted units are read without hive partition inference, so
    a ``part=K`` directory never adds a ``part`` column: prep_corpus
    has q_prep_corpus's columns, and a resumed SimHash finish leg
    (labels read back from disk) has the first run's and the query's."""
    from pgstosrt_ray.pipelines.dedupe import simhash_dedup_clusters
    from pgstosrt_ray.pipelines.extended import q_prep_corpus
    from pgstosrt_ray.state import dedup_checkpoint as dc
    prep, _ = dc.run_checkpointed_prep_corpus(
        SF_DIR, str(tmp_path / "prep"), buckets=8)
    assert _columns(prep) == _columns(q_prep_corpus(SF_DIR))

    out = str(tmp_path / "sim")
    first, _ = dc.run_checkpointed_simhash(SF_DIR, out, sig_parts=4,
                                           pair_groups=8)
    resumed = dc.finish_simhash_clusters(SF_DIR, out)
    want = _columns(simhash_dedup_clusters(SF_DIR))
    assert _columns(first) == want
    assert _columns(resumed) == want


def test_signature_units_are_sha1_of_decimal_doc_id(ray_session, tmp_path):
    """The persisted ``sigs/part=K`` of a doc is
    int(sha1(str(doc_id))[:8 bytes], big-endian) % parts, the flagship
    url unit formula applied to the decimal id; resumes of existing
    signature directories depend on it not moving."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from pgstosrt_ray.state import dedup_checkpoint as dc
    from pgstosrt_ray.state.checkpoint import unit_files
    parts = 7
    ids = [0, 1, -1, -42, 9, 12345, 2**62, -(2**62), 2**63 - 1]
    sig_dir = str(tmp_path / "sigs")
    dc._checkpoint_sig_stage(
        "unused", sig_dir, lambda b: b.select(["doc_id"]), parts, None,
        {"family": "unit-id-pin"},
        read_fn=lambda _: ray.data.from_arrow(
            pa.table({"doc_id": pa.array(ids, pa.int64())})))
    got = {}
    for path in unit_files(sig_dir):
        unit = int(os.path.basename(os.path.dirname(path)).split("=")[1])
        for i in pq.read_table(path).column("doc_id").to_pylist():
            got[i] = unit
    want = {i: int.from_bytes(hashlib.sha1(str(i).encode()).digest()[:8],
                              "big") % parts for i in ids}
    assert got == want
