"""Round-5 operators: idf_table, bigram_pmi (collocation PMI),
perplexity_buckets (CCNet-style head/middle/tail split)."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray

SF_DIR = "/root/testdata/sf0.001"


def _to_df(res) -> pd.DataFrame:
    if hasattr(res, "to_arrow_refs"):
        import pyarrow as pa
        tabs = [t for t in ray.get(res.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return pd.DataFrame({n: [] for n in res.schema().names})
        return pa.concat_tables(tabs).to_pandas()
    return res.to_pandas() if hasattr(res, "to_pandas") else res


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF_DIR}/documents.parquet')")
    return con.execute(sql).df()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind in "fc":
            df[c] = df[c].round(9)
    return df.sort_values(list(df.columns), ignore_index=True)


def test_idf_table_matches_duckdb(ray_session):
    from pgstosrt_ray.pipelines import webops
    ours = _norm(_to_df(webops.q_idf_table(SF_DIR)))
    theirs = _norm(_oracle(webops.SQL_IDF_TABLE))
    pd.testing.assert_frame_equal(ours, theirs, check_dtype=False)
    assert len(ours) > 0


def test_bigram_pmi_matches_duckdb(ray_session):
    from pgstosrt_ray.pipelines import webops
    ours = _norm(_to_df(webops.q_bigram_pmi(SF_DIR)))
    theirs = _norm(_oracle(webops.SQL_BIGRAM_PMI))
    pd.testing.assert_frame_equal(ours, theirs, check_dtype=False)
    assert len(ours) > 0


def test_bigram_pmi_forced_join_path_equals_broadcast(ray_session,
                                                      monkeypatch):
    """The two-join scale path (unigram counts too big to broadcast)
    must produce the same top-k as the broadcast gate."""
    from pgstosrt_ray.pipelines import reduce, webops
    via_broadcast = _norm(_to_df(webops.q_bigram_pmi(SF_DIR)))
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    via_joins = _norm(_to_df(webops.q_bigram_pmi(SF_DIR)))
    pd.testing.assert_frame_equal(via_broadcast, via_joins)


def test_perplexity_buckets_matches_golden(ray_session):
    """sf0.001's synthetic texts put 63% of the NLL mass in ONE sketch
    cell spanning both tercile ranks — 'middle' is then legitimately
    empty (any tie-respecting tercile rule classifies the atom whole),
    so this pins golden equality + label monotonicity only; the
    three-way split is exercised on the spread corpus below."""
    from pgstosrt_ray.golden import golden_perplexity_buckets
    from pgstosrt_ray.pipelines import webops
    by = _to_df(webops.q_perplexity_buckets(SF_DIR))
    want = _norm(golden_perplexity_buckets(SF_DIR).to_pandas())
    pd.testing.assert_frame_equal(_norm(by), want, check_dtype=False)
    order = {"head": 0, "middle": 1, "tail": 2}
    s = by.sort_values("nll_per_tok")["ppl_bucket"].map(order).to_numpy()
    assert (np.diff(s) >= 0).all()          # labels monotone in NLL
    assert (by["ppl_bucket"] == "head").any()
    assert (by["ppl_bucket"] == "tail").any()


def test_perplexity_buckets_three_way_split_on_spread_corpus(
        ray_session, tmp_path):
    """A corpus with genuinely spread NLL (repetitive docs vs unique-
    token docs) splits into all three classes of roughly equal size."""
    from pgstosrt_ray.golden import golden_perplexity_buckets
    from pgstosrt_ray.pipelines import webops
    rows = []
    for i in range(90):
        if i % 3 == 0:            # fluent: high-frequency tokens
            text = "the quick fox " * 20
        elif i % 3 == 1:          # mixed
            text = "the quick fox " * 10 + f"rare{i} odd{i} " * 5
        else:                     # surprising: unique tokens
            text = " ".join(f"tok{i}_{j}" for j in range(30))
        rows.append({"doc_id": i, "text": text})
    d = str(tmp_path)
    pd.DataFrame(rows).to_parquet(f"{d}/documents.parquet")
    by = _to_df(webops.q_perplexity_buckets(d))
    want = _norm(golden_perplexity_buckets(d).to_pandas())
    pd.testing.assert_frame_equal(_norm(by), want, check_dtype=False)
    counts = by["ppl_bucket"].value_counts()
    assert set(counts.index) == {"head", "middle", "tail"}
    assert counts.min() == 30 and counts.max() == 30
    order = {"head": 0, "middle": 1, "tail": 2}
    s = by.sort_values("nll_per_tok")["ppl_bucket"].map(order).to_numpy()
    assert (np.diff(s) >= 0).all()


def test_perplexity_buckets_empty_corpus_typed(ray_session, tmp_path):
    """An empty corpus gives a typed empty (doc_id, nll_per_tok,
    ppl_bucket) table from both engines, not an IndexError."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pgstosrt_ray.golden import golden_perplexity_buckets
    from pgstosrt_ray.pipelines import webops
    docs = pq.read_table(f"{SF_DIR}/documents.parquet")
    pq.write_table(docs.slice(0, 0), f"{tmp_path}/documents.parquet")
    want = pa.schema([("doc_id", pa.int64()), ("nll_per_tok", pa.float64()),
                      ("ppl_bucket", pa.string())])
    gold = golden_perplexity_buckets(str(tmp_path))
    assert gold.num_rows == 0 and gold.schema.equals(want)
    ds = webops.q_perplexity_buckets(str(tmp_path))
    assert ds.count() == 0
    sch = ds.schema()
    assert list(zip(sch.names, sch.types)) == list(zip(want.names,
                                                       want.types))


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    _HAVE_HYP = True
except ImportError:                                   # pragma: no cover
    _HAVE_HYP = False


if _HAVE_HYP:
    _VOCAB = np.array(["alpha", "beta", "gamma", "delta", "eps",
                       "zeta"], dtype=object)

    def _docs_frame(tok_ids):
        # split one id stream into ragged docs of up to 8 tokens
        texts, cur = [], []
        for t in tok_ids:
            if t < 0:
                texts.append(" ".join(cur))
                cur = []
            else:
                cur.append(_VOCAB[t % len(_VOCAB)])
        texts.append(" ".join(cur))
        return pd.DataFrame({"doc_id": np.arange(len(texts),
                                                 dtype="int64"),
                             "text": texts})

    docs_strategy = st.builds(
        _docs_frame,
        st.lists(st.integers(min_value=-1, max_value=40), min_size=1,
                 max_size=120))

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(df=docs_strategy)
    def test_idf_and_pmi_match_duckdb_on_random_frames(
            ray_session, tmp_path_factory, df):
        """Generative cross-engine conformance: the LN float parity of
        idf_table / bigram_pmi must hold on arbitrary count tables,
        not just the fixture corpus (round-4 style conformance)."""
        from pgstosrt_ray.pipelines import webops
        d = str(tmp_path_factory.mktemp("r5docs"))
        df.to_parquet(f"{d}/documents.parquet")
        con = duckdb.connect()
        con.register("documents", df)
        ours = _norm(_to_df(webops.q_idf_table(d)))
        theirs = _norm(con.execute(webops.SQL_IDF_TABLE).df())
        pd.testing.assert_frame_equal(ours, theirs, check_dtype=False)
        # tiny vocab + short docs: lower the support cut so pairs
        # survive on small generated frames
        ours_p = _norm(_to_df(webops.q_bigram_pmi(d, min_count=1)))
        theirs_p = _norm(con.execute(
            webops.SQL_BIGRAM_PMI.replace(
                f"bc.n >= {webops.PMI_MIN_COUNT}", "bc.n >= 1")).df())
        pd.testing.assert_frame_equal(ours_p, theirs_p,
                                      check_dtype=False)


def test_round5_ops_are_input_order_independent(ray_session,
                                                tmp_path_factory):
    """Same corpus, permuted row order and different file layout =>
    identical results (the distributed-determinism contract every
    round-5 op claims: bucketed sums, integer-exact ranks, seeded
    fits)."""
    import pyarrow.parquet as pq
    from pgstosrt_ray.pipelines import webops
    src = pq.read_table(f"{SF_DIR}/documents.parquet",
                        columns=["doc_id", "text"]).to_pandas()
    d = str(tmp_path_factory.mktemp("r5perm"))
    perm = src.sample(frac=1.0, random_state=3).reset_index(drop=True)
    perm.to_parquet(f"{d}/documents.parquet")
    for q in (webops.q_idf_table, webops.q_bigram_pmi,
              webops.q_perplexity_buckets):
        a = _norm(_to_df(q(SF_DIR)))
        b = _norm(_to_df(q(d)))
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_perplexity_bucket_rank_rule_integer_exact():
    """ceil(total/3) must be integer-exact on both sides (a float 1/3
    rank rule would diverge at multiples of 3)."""
    for total in (1, 2, 3, 4, 6, 9, 10, 500, 3 * 10 ** 12):
        assert -(-total // 3) == (total + 2) // 3
        assert -(-2 * total // 3) == (2 * total + 2) // 3
