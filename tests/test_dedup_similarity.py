"""Dedup + similarity + text-analysis operator tests."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from pgstosrt_ray.functions import dedup as D
from pgstosrt_ray.functions import text as T

SF_DIR = "/root/testdata/sf0.001"


class TestKernels:
    def test_shingle_hashes_deterministic(self):
        a = D.char_shingle_hashes("hello world hello world")
        b = D.char_shingle_hashes("hello world hello world")
        assert np.array_equal(a, b)
        assert a.size > 0

    def test_minhash_similarity_tracks_jaccard(self):
        mh = D.MinHasher(num_perm=128)
        t1 = "the quick brown fox jumps over the lazy dog " * 5
        t2 = "the quick brown fox jumps over the lazy cat " * 5
        t3 = "completely different content with other words " * 5
        s1 = mh.signature(D.char_shingle_hashes(t1))
        s2 = mh.signature(D.char_shingle_hashes(t2))
        s3 = mh.signature(D.char_shingle_hashes(t3))
        near = D.MinHasher.estimate_jaccard(s1, s2)
        far = D.MinHasher.estimate_jaccard(s1, s3)
        assert near > 0.5 > far
        true_j = D.jaccard(D.char_shingle_hashes(t1), D.char_shingle_hashes(t2))
        assert abs(near - true_j) < 0.15

    def test_identical_docs_collide_in_every_band(self):
        mh = D.MinHasher()
        s = mh.signature(D.char_shingle_hashes("same text " * 20))
        assert D.lsh_band_keys(s) == D.lsh_band_keys(s.copy())

    def test_simhash_near_for_similar(self):
        h1 = D.simhash64(D.word_ngram_hashes("a b c d e f g h i j", 1))
        h2 = D.simhash64(D.word_ngram_hashes("a b c d e f g h i k", 1))
        h3 = D.simhash64(D.word_ngram_hashes("z y x w v u t s r q", 1))
        assert D.hamming64(h1, h2) < D.hamming64(h1, h3)

    def test_band_keys_matrix_matches_per_row(self):
        mh = D.MinHasher()
        sigs = np.stack([mh.signature(D.char_shingle_hashes(f"doc {i} " * 9))
                         for i in range(7)])
        mat = D.lsh_band_keys_matrix(sigs.astype(np.uint64))
        for i in range(7):
            assert mat[i].tolist() == D.lsh_band_keys(sigs[i])

    def test_popcount64(self):
        xs = np.array([0, 1, 0xFFFF, (1 << 64) - 1, 0x8000000000000001],
                      dtype=np.uint64)
        assert D.popcount64(xs).tolist() == [bin(int(x)).count("1")
                                             for x in xs]

    def test_salt_bucket_range_and_determinism(self):
        band = np.arange(16, dtype=np.int64) % 4
        key = np.arange(16, dtype=np.int64) * 12345
        g1 = D.salt_bucket(band, key, 64)
        g2 = D.salt_bucket(band, key, 64)
        assert np.array_equal(g1, g2)
        assert ((g1 >= 0) & (g1 < 64)).all()

    def test_union_find(self):
        labels = D.union_find_clusters([(1, 2), (2, 3), (5, 6)],
                                       [1, 2, 3, 4, 5, 6])
        assert labels[1] == labels[2] == labels[3] == 1
        assert labels[4] == 4
        assert labels[5] == labels[6] == 5


class TestTextKernels:
    def test_token_count_matches_duckdb(self):
        s = pd.Series(["a  b c", " x ", "", "one"])
        got = T.token_count(s).tolist()
        exp = [duckdb.sql(
            f"select length(regexp_extract_all({t!r}, '\\S+'))").fetchone()[0]
            for t in s]
        assert got == exp

    def test_md5_matches_duckdb(self):
        s = pd.Series(["abc", "", "héllo"])
        got = T.md5_fingerprint(s).tolist()
        exp = [duckdb.sql(f"select md5({t!r})").fetchone()[0] for t in s]
        assert got == exp

    def test_lang_id(self):
        s = pd.Series(["the cat and the dog in the house",
                       "el perro y el gato en la casa",
                       "der Hund und die Katze ist von den",
                       "这是一个中文句子这是一个中文句子",
                       "zzz qqq xxx"])
        assert T.lang_id(s).tolist() == ["en", "es", "de", "zh", "und"]

    def test_quality_score_range(self):
        s = pd.Series(["the quick brown fox jumps over the lazy dog " * 3,
                       "!!!???...", ""])
        q = T.quality_score(s)
        assert ((q >= 0) & (q <= 1)).all()
        assert q.iloc[0] > q.iloc[1]

    def test_rolling_fingerprint_deterministic(self):
        s = pd.Series(["some document text that is long enough", "short"])
        assert T.rolling_fingerprint(s).tolist() == \
            T.rolling_fingerprint(s).tolist()


class TestSketch:
    def test_hll_accuracy_across_scales(self):
        from pgstosrt_ray.functions import sketch as S
        from pgstosrt_ray.functions.text import sha1_u64
        for n in [100, 5_000, 200_000]:
            h = sha1_u64(pd.Series(range(n)).astype(str))
            est = S.estimate(S.registers_of(h))
            assert abs(est - n) / n < 0.05, (n, est)

    def test_hll_merge_equals_single_pass(self):
        from pgstosrt_ray.functions import sketch as S
        from pgstosrt_ray.functions.text import sha1_u64
        h = sha1_u64(pd.Series(range(10_000)).astype(str))
        whole = S.registers_of(h)
        parts = [S.registers_of(h[i::7]) for i in range(7)]
        merged = S.merge_registers([p.tobytes() for p in parts])
        assert np.array_equal(whole, merged)  # max-merge associativity

    def test_hll_query_tracks_exact(self, ray_session):
        from pgstosrt_ray.pipelines import relational as R
        exact = R.q_distinct_users_exact(SF_DIR).column("n_users")[0].as_py()
        approx = R.q_hll_distinct_users(SF_DIR) \
            .column("n_users_approx")[0].as_py()
        assert abs(approx - exact) / exact < 0.05


class TestPipelines:
    def test_minhash_finds_planted_dupes(self, ray_session, tmp_path):
        # plant near-duplicates in a small documents table
        base = "the quick brown fox jumps over the lazy dog and runs far away " * 8
        texts = [base, base.replace("dog", "cat"),
                 "completely unrelated text about ray data pipelines " * 8]
        texts += [f"filler document number {i} with distinct words {i * 7} "
                  * 10 for i in range(20)]
        df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        d = tmp_path / "sf"
        d.mkdir()
        df.to_parquet(d / "documents.parquet")
        from pgstosrt_ray.pipelines.dedupe import (minhash_candidate_pairs,
                                                   minhash_dedup_clusters)
        pairs = minhash_candidate_pairs(str(d)).to_pandas()
        assert {(0, 1)} <= set(zip(pairs.doc_a, pairs.doc_b))
        clusters = minhash_dedup_clusters(str(d)).to_pandas()
        lab = dict(zip(clusters.doc_id, clusters.cluster_id))
        assert lab[0] == lab[1]
        assert lab[2] != lab[0]
        # distributed min-label propagation == driver union-find oracle
        oracle = D.union_find_clusters(
            list(zip(pairs.doc_a, pairs.doc_b)), list(range(len(texts))))
        assert lab == oracle

    def test_embedding_near_dup_finds_planted(self, ray_session, tmp_path):
        rng = np.random.RandomState(5)
        vecs = rng.standard_normal((60, 64))
        vecs[1] = vecs[0] + rng.standard_normal(64) * 0.02  # cosine ~0.999
        vecs[7] = vecs[6] + rng.standard_normal(64) * 0.05
        df = pd.DataFrame({"vec_id": range(60),
                           "embedding": [v.tolist() for v in vecs]})
        d = tmp_path / "sf"
        d.mkdir()
        df.to_parquet(d / "embeddings.parquet")
        from pgstosrt_ray.pipelines.dedupe import embedding_near_dup_pairs
        pairs = embedding_near_dup_pairs(str(d)).to_pandas()
        found = set(zip(pairs.doc_a, pairs.doc_b))
        assert {(0, 1), (6, 7)} <= found  # LSH blocking keeps near-dups
        assert pairs.cosine.ge(0.35).all()

    def test_ann_brute_force_matches_duckdb(self, ray_session):
        from pgstosrt_ray.pipelines import similarity
        ours = similarity.brute_force_topk(SF_DIR).to_pandas()
        con = duckdb.connect()
        con.sql(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"'{SF_DIR}/embeddings.parquet'")
        theirs = con.sql(similarity.ORACLE_SQL["ann_brute_force"]).df()
        pd.testing.assert_frame_equal(
            ours.reset_index(drop=True), theirs.reset_index(drop=True),
            check_dtype=False)

    def test_lsh_topk_recall(self, ray_session):
        from pgstosrt_ray.pipelines import similarity
        exact = similarity.brute_force_topk(SF_DIR).to_pandas()
        approx = similarity.lsh_topk(SF_DIR).to_pandas()
        recall = len(set(approx.vec_id) & set(exact.vec_id)) / len(exact)
        assert recall >= 0.3  # uniform-random embeddings: recall ~ scan frac

    def test_lsh_index_reused_across_queries(self, ray_session):
        from pgstosrt_ray.pipelines import similarity
        first = similarity.lsh_topk(SF_DIR).to_pandas()
        fp = similarity._data_fingerprint(SF_DIR)
        assert (SF_DIR, 4, None, fp) in similarity._LSH_INDEX_CACHE
        again = similarity.lsh_topk(SF_DIR).to_pandas()  # cache hit path
        pd.testing.assert_frame_equal(first, again)

    def test_lsh_parquet_index_matches_in_memory(self, ray_session,
                                                 tmp_path):
        from pgstosrt_ray.pipelines import similarity
        mem = similarity.lsh_topk(SF_DIR).to_pandas()
        disk = similarity.lsh_topk(
            SF_DIR, index_dir=str(tmp_path / "lshidx")).to_pandas()
        pd.testing.assert_frame_equal(mem, disk)

    def test_ivf_topk_recall(self, ray_session):
        from pgstosrt_ray.pipelines import similarity
        exact = similarity.brute_force_topk(SF_DIR).to_pandas()
        approx = similarity.ivf_topk(SF_DIR).to_pandas()
        # cosine top-k vectors point near the query direction, and IVF
        # cells are directional => recall well above the scan fraction
        recall = len(set(approx.vec_id) & set(exact.vec_id)) / len(exact)
        assert recall >= 0.5

    def test_embedding_near_dup_symmetric_free(self, ray_session):
        from pgstosrt_ray.pipelines.dedupe import embedding_near_dup_pairs
        pairs = embedding_near_dup_pairs(SF_DIR).to_pandas()
        assert (pairs.doc_a < pairs.doc_b).all()
        assert pairs.cosine.ge(0.35).all()

    def test_media_frame_sample(self, ray_session):
        import hashlib
        import pyarrow as pa
        import ray.data
        from pgstosrt_ray import fixtures as FX
        from pgstosrt_ray.pipelines.multimodal import media_frame_sample
        payload = FX.mkv_payload([(1000 * (i + 1), 1000 * (i + 1) + 500,
                                   FX.text_ds(f"frame {i}", 0))
                                  for i in range(9)])
        pages = pa.table({
            "url": pa.array(["https://e.org/v", "https://e.org/plain"]),
            "warc_ts": pa.array([1, 2], pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array([payload, b"PG not a container"], pa.binary()),
        })
        out = media_frame_sample(ray.data.from_arrow(pages),
                                 k=4).to_pandas()
        # only the video row contributes; 4 evenly spaced of 9 frames
        assert set(out.url) == {"https://e.org/v"}
        assert sorted(out.frame_idx) == [0, 2, 5, 8]
        assert sorted(out.start_ms) == [1000, 3000, 6000, 9000]
        assert (out.n_bytes > 2).all()
        # hex sha256 text (not BLOB: DuckDB BLOB->pandas bytearray is
        # unhashable and breaks value-compare harnesses)
        assert out.frame_sha.map(len).eq(64).all()
        assert out.frame_sha.str.fullmatch("[0-9a-f]{64}").all()

    def test_media_features_stub(self, ray_session):
        from pgstosrt_ray.pipelines.multimodal import media_features
        from pgstosrt_ray.sources.pages import materialize_corpus, read_pages
        corpus = materialize_corpus("tiny", 30, seed=7)
        out = media_features(read_pages(corpus)).to_pandas()
        assert set(out.media_type) <= {"image", "video", "audio", "unknown"}
        assert (out.feature.map(len) == 8).all()
        assert out.n_bytes.gt(0).all()


def test_label_propagation_nonconvergence_raises(ray_session,
                                                 monkeypatch):
    """max_rounds=0 with real edges must raise, never return partial
    labels (ADVICE round 2). Forces the distributed-propagation path —
    the driver-side union-find below CC_BROADCAST_EDGES is exact by
    construction and has no rounds to exhaust."""
    import pytest
    from pgstosrt_ray.pipelines import dedupe, reduce
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    monkeypatch.setattr(dedupe, "CC_BROADCAST_EDGES", -1)
    with pytest.raises(RuntimeError, match="did not converge"):
        r = dedupe.minhash_dedup_clusters("/root/testdata/sf0.001",
                                          max_rounds=0)
        r.materialize()


def test_ann_brute_multi_matches_duckdb(ray_session):
    import duckdb as dk
    import pyarrow as pa
    import ray as _ray
    from pgstosrt_ray.pipelines import similarity
    con = dk.connect()
    con.sql("CREATE VIEW embeddings AS SELECT * FROM "
            f"'{SF_DIR}/embeddings.parquet'")
    r = similarity.brute_force_topk_multi(SF_DIR)
    tabs = [t for t in _ray.get(r.to_arrow_refs()) if t.num_rows]
    a = pa.concat_tables(tabs).to_pandas().sort_values(
        ["query_id", "rank"], ignore_index=True)
    b = con.sql(similarity.ORACLE_SQL["ann_brute_multi"]).to_df()\
        .sort_values(["query_id", "rank"], ignore_index=True)
    pd.testing.assert_frame_equal(a[sorted(a.columns)],
                                  b[sorted(b.columns)], check_dtype=False)
    # query 0 of the batch is the single-query vector: top-20 agree
    single = similarity.brute_force_topk(SF_DIR).to_pandas().head(20)
    q0 = a[a.query_id == 0]
    assert list(q0["vec_id"]) == list(single["vec_id"])


def test_ivf_sample_unbiased_on_clustered_input(ray_session, tmp_path):
    """IVF centroid training must sample the WHOLE table: on a
    sorted-by-cluster input where the query's cluster sits in the
    last rows, the old ``ds.limit(2048)`` draw (first blocks only)
    fits every centroid on the wrong clusters and loses recall; the
    hash(vec_id) uniform sample keeps it (round-3 verdict #6)."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pgstosrt_ray.pipelines import similarity as S

    rng = np.random.RandomState(0)
    Q, _ = np.linalg.qr(rng.standard_normal((64, 4)))
    dirs = Q.T                       # 4 orthonormal cluster directions
    q = S._load_query("")
    qn = q / np.linalg.norm(q)
    # worst case for a first-blocks sample: the query's best-matching
    # cluster is stored LAST
    dirs = dirs[np.argsort(dirs @ qn)]
    n_per = 1200
    vecs = (np.repeat(dirs, n_per, axis=0)
            + 0.05 * rng.standard_normal((4 * n_per, 64)))
    ids = np.arange(4 * n_per)
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in vecs],
                                        pa.list_(pa.float64()))}),
        os.path.join(tmp_path, "embeddings.parquet"))

    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    true_top = set(ids[np.lexsort((ids, -np.round(vn @ qn, 6)))][:50])

    got = S.ivf_topk(str(tmp_path))
    recall_new = len(set(got.column("vec_id").to_pylist()) & true_top) / 50

    # the replaced first-blocks draw, emulated with the same k-means
    samp = vn[:2048].copy()
    r2 = np.random.RandomState(11)
    cent = samp[r2.choice(len(samp), size=32, replace=False)]
    for _ in range(10):
        assign = np.argmax(samp @ cent.T, axis=1)
        for c in range(32):
            mem = samp[assign == c]
            if len(mem):
                v = mem.sum(0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)
    cell = np.argmax(vn @ cent.T, axis=1)
    mask = np.isin(cell, sorted(np.argsort(-(cent @ qn))[:12]))
    cand, s = ids[mask], np.round(vn[mask] @ qn, 6)
    old_top = set(cand[np.lexsort((cand, -s))][:50])
    recall_old = len(old_top & true_top) / 50

    assert recall_new >= 0.95          # measured 1.0 with these seeds
    assert recall_old <= 0.8           # measured 0.62: the bias is real


def test_estimate_pairs_join_path_equals_broadcast(ray_session,
                                                   monkeypatch):
    """The two signature re-attach strategies (broadcast below
    reduce.BROADCAST_BYTES, partitioned hash joins above) produce the
    SAME verified pairs — small corpora now take the broadcast path,
    so the join path needs this forced-equivalence guard to stay
    covered."""
    from pgstosrt_ray.pipelines import dedupe, reduce

    def pairs():
        t = dedupe.minhash_candidate_pairs(SF_DIR).to_pandas()
        return set(zip(t["doc_a"], t["doc_b"],
                       t["est_jaccard"].round(12)))

    via_broadcast = pairs()
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    via_joins = pairs()
    assert via_broadcast == via_joins
    assert len(via_broadcast) > 0


def test_ngram_verify_join_path_equals_broadcast(ray_session,
                                                 monkeypatch):
    """Forced-join ngram verification matches the broadcast gather."""
    from pgstosrt_ray.pipelines import dedupe, reduce

    def result():
        t = dedupe.ngram_jaccard_verify(SF_DIR).to_pandas()
        return set(zip(t["doc_a"], t["doc_b"], t["jaccard3"].round(12)))

    via_broadcast = result()
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    via_joins = result()
    assert via_broadcast == via_joins
    assert len(via_broadcast) > 0


def test_label_propagation_equals_driver_union_find(ray_session,
                                                    monkeypatch):
    """The distributed min-label propagation rounds and the driver-side
    union-find broadcast path assign identical cluster labels."""
    from pgstosrt_ray.pipelines import dedupe, reduce

    def clusters():
        t = dedupe.minhash_dedup_clusters(SF_DIR).to_pandas()
        return dict(zip(t["doc_id"], t["cluster_id"]))

    via_union_find = clusters()
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    monkeypatch.setattr(dedupe, "CC_BROADCAST_EDGES", -1)
    via_propagation = clusters()
    assert via_union_find == via_propagation
    # at least one real (non-singleton) cluster in the fixture corpus
    assert any(k != v for k, v in via_union_find.items())
