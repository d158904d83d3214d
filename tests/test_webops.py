"""Round-4 web-corpus operator conformance (pipelines/webops.py +
simhash clusters): driver-style DuckDB compare, golden compares for
the sketch/signature ops, planted-case and forced-path coverage."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pgstosrt_ray.pipelines import reduce, webops

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def _to_df(result) -> pd.DataFrame:
    import ray
    import ray.data
    if isinstance(result, ray.data.Dataset):
        tabs = [t for t in ray.get(result.to_arrow_refs()) if t.num_rows]
        t = pa.concat_tables(tabs) if tabs else pa.table({})
    else:
        t = result
    df = t.to_pandas()
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


@pytest.mark.parametrize("name", sorted(webops.ORACLE_SQL))
def test_webops_matches_oracle(ray_session, con, name):
    a = _to_df(webops.QUERIES[name](SF_DIR))
    b = _to_df(pa.Table.from_pandas(
        con.sql(webops.ORACLE_SQL[name]).to_df()))
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


# ------------------------------------------------- count-min sketch
def test_cms_overestimates_never_undercounts(ray_session, con):
    """CMS guarantee: est >= exact for every probe, exact 0 stays 0
    for the absent token (no row of the grid can undercount)."""
    est = _to_df(webops.q_cms_token_counts(SF_DIR))
    est = dict(zip(est["token"], est["est_n"]))
    total = con.sql(
        "SELECT CAST(SUM(length(regexp_extract_all(text, '\\S+'))) "
        "AS BIGINT) FROM documents").fetchone()[0]
    for tok in webops.CMS_PROBES:
        exact = con.sql(
            "SELECT COUNT(*) FROM (SELECT unnest(regexp_extract_all("
            f"text, '\\S+')) AS t FROM documents) WHERE t = '{tok}'"
        ).fetchone()[0]
        assert est[tok] >= exact, (tok, est[tok], exact)
        # e*N/W overshoot bound (loose: deterministic data, so this
        # either always holds or the sketch parameters are wrong)
        from pgstosrt_ray.functions.sketch import CMS_W
        assert est[tok] <= exact + 4 * total // CMS_W + 1, (
            tok, est[tok], exact)
    assert est["quantum"] == 0


def test_cms_merge_order_invariant():
    """int64 sum-merge is exact and associative: any blob order and
    any merge tree produce the identical grid."""
    from pgstosrt_ray.functions.sketch import cms_merge, cms_of
    rng = np.random.RandomState(5)
    grids = [cms_of(rng.randint(0, 1 << 63, size=50).astype(np.uint64),
                    rng.randint(1, 9, size=50)) for _ in range(5)]
    blobs = [g.tobytes() for g in grids]
    a = cms_merge(blobs)
    b = cms_merge(blobs[::-1])
    c = cms_merge([cms_merge(blobs[:2]).tobytes(),
                   cms_merge(blobs[2:]).tobytes()])
    assert (a == b).all() and (a == c).all()


# --------------------------------------------- duplicate-gram coverage
def test_dup_ngram_coverage_planted(ray_session, tmp_path):
    """Planted corpus: two docs share one 5-gram, a third is disjoint,
    a fourth is too short for any gram."""
    import pyarrow.parquet as pq
    shared = "alpha beta gamma delta epsilon"
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            f"{shared} zeta eta",            # grams incl. shared
            f"pre1 pre2 {shared}",           # shares exactly `shared`
            "one two three four five six",   # disjoint
            "too short",                     # zero grams
        ], pa.string()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = _to_df(webops.q_dup_ngram_coverage(str(tmp_path)))
    by_id = out.set_index("doc_id")
    # doc1: tokens=7 -> 3 grams, 1 duplicated; doc2 same shape
    assert by_id.loc[1, "n_grams"] == 3 and by_id.loc[1, "n_dup"] == 1
    assert by_id.loc[2, "n_grams"] == 3 and by_id.loc[2, "n_dup"] == 1
    assert by_id.loc[1, "dup_frac"] == pytest.approx(1 / 3)
    assert by_id.loc[3, "n_dup"] == 0 and by_id.loc[3, "n_grams"] == 2
    assert by_id.loc[4, "n_grams"] == 0 and by_id.loc[4, "dup_frac"] == 0.0


# ----------------------------------------------------- stratified sample
def test_stratified_sample_is_exact_md5_rule(ray_session):
    """Every kept row satisfies bucket(doc_id) < pct(lang), every
    dropped row violates it — the sample is a pure deterministic
    filter, so reruns are byte-stable."""
    import pyarrow.parquet as pq
    from pgstosrt_ray.functions.text import md5_bucket_of_ids
    kept = set(_to_df(webops.q_stratified_sample(SF_DIR))["doc_id"])
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "lang"]).to_pandas()
    b = md5_bucket_of_ids(docs["doc_id"].to_numpy())
    pct = docs["lang"].map(webops.STRATA_PCT).fillna(
        webops.STRATA_DEFAULT_PCT).to_numpy()
    expect = set(docs["doc_id"][b < pct])
    assert kept == expect


# --------------------------------------------------- pivot cross-checks
def test_event_type_pivot_row_sums(ray_session, con):
    """Pivot row sums equal per-user event counts (independent of the
    crosstab path)."""
    out = _to_df(webops.q_event_type_pivot(SF_DIR))
    cols = [f"n_{t}" for t in webops.EVENT_TYPES]
    totals = con.sql("SELECT user_id, COUNT(*) AS n FROM events "
                     "GROUP BY user_id").to_df()
    merged = out.merge(totals, on="user_id", validate="1:1")
    assert (merged[cols].sum(axis=1) == merged["n"]).all()


# ------------------------------------------------------ lang top tokens
def test_lang_top_tokens_shape(ray_session):
    out = _to_df(webops.q_lang_top_tokens(SF_DIR))
    per = out.groupby("lang")
    assert (per.size() <= 10).all()
    for _, g in per:
        g = g.sort_values(["n", "token"], ascending=[False, True])
        assert (g["n"].to_numpy() == np.sort(g["n"].to_numpy())[::-1]).all()


# ------------------------------------------------------ simhash clusters
def test_simhash_clusters_pairs_share_cluster(ray_session):
    """Every Hamming-<=3 pair ends up in one cluster, and cluster_id
    is the component minimum."""
    from pgstosrt_ray.pipelines import dedupe
    cl = _to_df(dedupe.simhash_dedup_clusters(SF_DIR))
    lab = dict(zip(cl["doc_id"], cl["cluster_id"]))
    pairs = _to_df(dedupe.simhash_near_dup_pairs(SF_DIR))
    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        assert lab[a] == lab[b]
        assert lab[a] <= min(a, b)
    assert (cl["cluster_id"] <= cl["doc_id"]).all()


def test_simhash_clusters_forced_distributed_path(ray_session,
                                                  monkeypatch):
    """The distributed label-propagation route must agree with the
    broadcast union-find gate (forced-path equivalence — keeps the
    join path covered while small corpora ride the broadcast)."""
    from pgstosrt_ray.pipelines import dedupe
    a = _to_df(dedupe.simhash_dedup_clusters(SF_DIR))
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    monkeypatch.setattr(dedupe, "CC_BROADCAST_EDGES", -1)
    b = _to_df(dedupe.simhash_dedup_clusters(SF_DIR))
    pd.testing.assert_frame_equal(a, b)


# --------------------------------------------- per-section crawl stats
def test_url_section_stats_matches_oracle(ray_session):
    """Corpus-table query: both engines over the SAME materialized
    page corpus (the driver compares at the sf0.01 corpus the same
    way)."""
    from pgstosrt_ray.sources.pages import materialize_corpus
    corpus = materialize_corpus("t1", 60, seed=42)
    a = _to_df(webops.url_section_stats(corpus))
    con2 = duckdb.connect()
    b = _to_df(pa.Table.from_pandas(
        con2.sql(webops.sql_url_section_stats(corpus)).to_df()))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert a["n_pages"].sum() > 0


# ----------------------------------------------------- unigram LM NLL
def test_unigram_logprob_forced_join_path(ray_session, monkeypatch):
    """The large-vocabulary join route must produce the identical
    table as the broadcast gate (forced-path equivalence — keeps the
    join route covered while small corpora ride the broadcast)."""
    a = _to_df(webops.q_unigram_logprob(SF_DIR))
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    b = _to_df(webops.q_unigram_logprob(SF_DIR))
    pd.testing.assert_frame_equal(a, b)


def test_unigram_logprob_monotone_in_rarity(ray_session):
    """A doc made of rare tokens scores higher NLL than one of common
    tokens (the quality-filter direction)."""
    out = _to_df(webops.q_unigram_logprob(SF_DIR))
    assert (out["nll_per_tok"] > 0).all()
    assert out["n_tokens"].sum() > 0


# ------------------------------------------------------- media thumbnail
def test_thumbnail_planted_stream():
    """Hand-framed PG stream: one ODS split across two fragments; the
    walk must pin the first object, concatenate continuation data, and
    the nearest-neighbor resize must replicate rows/cols of the 2x2
    checkerboard."""
    import hashlib
    import numpy as np
    from pgstosrt_ray.format import be16
    from pgstosrt_ray.pipelines.multimodal import THUMB_T, ThumbnailStage

    def seg(seg_type: int, body: bytes) -> bytes:
        return (b"PG" + (0).to_bytes(4, "big") + (0).to_bytes(4, "big")
                + bytes([seg_type]) + len(body).to_bytes(2, "big") + body)

    # 2x2 image, indices [[1,2],[3,4]]: literal pixels + line breaks
    rle = bytes([1, 2, 0, 0, 3, 4, 0, 0])
    # first fragment carries header + first half, continuation the rest
    body1 = ((5).to_bytes(2, "big") + bytes([0, 0x80])
             + (0).to_bytes(3, "big") + (2).to_bytes(2, "big")
             + (2).to_bytes(2, "big") + rle[:4])
    body2 = (5).to_bytes(2, "big") + bytes([0, 0x00]) + rle[4:]
    stream = seg(0x15, body1) + seg(0x15, body2)
    w, h, buf = ThumbnailStage._first_object(stream, be16)
    assert (w, h, buf) == (2, 2, rle)
    from pgstosrt_ray.decode import decode_object_indexed
    idx, _ = decode_object_indexed(buf, w, h)
    assert idx.tolist() == [[1, 2], [3, 4]]
    rows = (np.arange(THUMB_T) * 2) // THUMB_T
    expect = idx[np.ix_(rows, rows)]
    out = ThumbnailStage()(
        __import__("pyarrow").table({"url": ["u"], "html": [stream]}))
    assert out.column("thumb_sha").to_pylist() == [
        hashlib.sha256(expect.tobytes()).hexdigest()]
    assert out.column("obj_w").to_pylist() == [2]


# --------------------------------------------------------------- IVF-PQ
def test_ivf_pq_recall_and_code_size(ray_session):
    """ADC top-k over 8-byte codes still finds a solid share of the
    exact top-50 (deterministic pin: 0.54 on this fixture — random
    uniform embeddings are PQ's worst case), and the index stores
    exactly PQ_M bytes per vector (the 64x compression that makes the
    1e12-row scan feasible)."""
    from pgstosrt_ray.pipelines import similarity
    exact = set(similarity.brute_force_topk(SF_DIR)
                .column("vec_id").to_pylist())
    pq = set(similarity.ivf_pq_topk(SF_DIR).column("vec_id").to_pylist())
    assert len(exact & pq) / len(exact) >= 0.3
    _, books, probe_fn = similarity.build_ivf_pq_index(SF_DIR)
    assert books.shape == (similarity.PQ_M, similarity.PQ_K,
                           64 // similarity.PQ_M)
    sample = _to_df(probe_fn({0}))
    assert (sample["code"].map(len) == similarity.PQ_M).all()


def test_ivf_pq_rerank_lifts_recall_to_ivf_ceiling(ray_session):
    """Exact re-rank of the ADC candidate list recovers the plain-IVF
    recall (the candidates span the probed cells; only quantization
    error is removed) — deterministic pin: 0.70 vs 0.54 ADC-only on
    this fixture."""
    from pgstosrt_ray.pipelines import similarity
    exact = set(similarity.brute_force_topk(SF_DIR)
                .column("vec_id").to_pylist())
    adc = set(similarity.ivf_pq_topk(SF_DIR).column("vec_id").to_pylist())
    rr = set(similarity.ivf_pq_rerank_topk(SF_DIR)
             .column("vec_id").to_pylist())
    assert len(exact & rr) >= len(exact & adc)
    assert len(exact & rr) / len(exact) >= 0.5


def test_pca_project_variance_ordering(ray_session):
    """Leading components carry more variance (computed on the FULL
    table, components fit on the sample — a real spectrum gap
    survives the sample/population difference)."""
    from pgstosrt_ray.pipelines import similarity
    out = _to_df(similarity.pca_project(SF_DIR))
    v = [out[f"pc{i}"].var() for i in range(similarity.PCA_COMPONENTS)]
    assert v[0] >= v[-1]
    assert len(out) == 500
    # deterministic across runs (seeded sample, fixed sign rule)
    again = _to_df(similarity.pca_project(SF_DIR))
    pd.testing.assert_frame_equal(out, again)


def test_pca_project_empty_embeddings_typed(ray_session, tmp_path):
    """An empty embeddings table gives a typed empty (vec_id,
    pc0..pc7) result, not an IndexError from the dimension probe."""
    import pyarrow.parquet as pq
    from pgstosrt_ray.pipelines import similarity
    emb = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    pq.write_table(emb.slice(0, 0), f"{tmp_path}/embeddings.parquet")
    ds = similarity.pca_project(str(tmp_path))
    assert ds.count() == 0
    sch = ds.schema()
    assert sch.names == ["vec_id"] + [
        f"pc{i}" for i in range(similarity.PCA_COMPONENTS)]
    assert sch.types == [pa.int64()] + [pa.float64()] * \
        similarity.PCA_COMPONENTS


# ----------------------------------------------------- window funnel
def test_window_funnel_planted(ray_session, tmp_path):
    """Hand-built sequences covering every depth: the strict-order
    and the 1-hour-window rules both bind."""
    import numpy as np
    import pyarrow.parquet as pq
    t0 = np.datetime64("2026-01-01T00:00:00", "us")
    m = np.timedelta64(60_000_000, "us")  # one minute
    rows = [
        # u1: full funnel inside the window -> 3
        (1, t0, "view"), (1, t0 + 5 * m, "click"),
        (1, t0 + 10 * m, "purchase"),
        # u2: purchase BEFORE click -> stops at 2
        (2, t0, "view"), (2, t0 + 2 * m, "purchase"),
        (2, t0 + 5 * m, "click"),
        # u3: click outside the 1h window -> 1
        (3, t0, "view"), (3, t0 + 90 * m, "click"),
        (3, t0 + 95 * m, "purchase"),
        # u4: never views -> 0
        (4, t0, "click"), (4, t0 + 1 * m, "purchase"),
        # u5: purchase at t1+70min (outside window anchored at view) -> 2
        (5, t0, "view"), (5, t0 + 30 * m, "click"),
        (5, t0 + 70 * m, "purchase"),
    ]
    events = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    pq.write_table(events, str(tmp_path / "events.parquet"))
    out = _to_df(webops.q_window_funnel(str(tmp_path)))
    depth = dict(zip(out["user_id"], out["funnel_depth"]))
    assert depth == {1: 3, 2: 2, 3: 1, 4: 0, 5: 2}


# --------------------------------------------------------------- BM25
def test_bm25_search_ranks_term_rich_docs(ray_session):
    """Scores are positive, sorted descending with the doc_id
    tiebreak, and every returned doc actually contains a query
    term."""
    import pyarrow.parquet as pq
    out = _to_df(webops.q_bm25_search(SF_DIR)).sort_values(
        ["score", "doc_id"], ascending=[False, True],
        ignore_index=True)
    assert (out["score"] > 0).all() and len(out) == webops.BM25_K
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    texts = dict(zip(docs["doc_id"], docs["text"]))
    for d in out["doc_id"]:
        assert any(t in texts[d].split() for t in webops.BM25_TERMS)


# ------------------------------------------- input-order independence
def test_window_ops_order_independent(ray_session, tmp_path):
    """Window results must not depend on input row order (the
    in-bucket sort is the only ordering anywhere): a reversed copy of
    events produces identical tables."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF_DIR}/events.parquet")
    rev = t.take(list(range(t.num_rows - 1, -1, -1)))
    pq.write_table(rev, str(tmp_path / "events.parquet"))
    for q in (webops.q_rolling_sum, webops.q_asof_join_forward,
              webops.q_window_funnel, webops.q_running_total):
        a = _to_df(q(SF_DIR))
        b = _to_df(q(str(tmp_path)))
        pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------ window distinct users
def test_window_distinct_users_bounds(ray_session, con):
    out = _to_df(webops.q_window_distinct_users(SF_DIR))
    n_windows = con.sql("SELECT COUNT(DISTINCT date_trunc('hour', ts)) "
                        "FROM events").fetchone()[0]
    n_users = con.sql("SELECT COUNT(DISTINCT user_id) "
                      "FROM events").fetchone()[0]
    assert len(out) == n_windows
    assert (out["n_users"] >= 1).all()
    assert (out["n_users"] <= n_users).all()
