"""Round-3 operator surface growth: join-type completion (left/full
outer, cross), unnest/inverted-index, deterministic per-key sampling,
rollup, string normalization, log-histogram quantile sketch, grouped
distinct counts. Same contract as pipelines/relational.py: every query
has a DuckDB oracle (or an independent golden, for the sketch) with
identical column names/types.

Scale notes are inline; the shared rules: pruned reads, partial
aggregation before every shuffle, per-key work bucketed on
hash(key) % B (never raw high-cardinality keys), joins sized by
``join_sizing()``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import token_rows
from .reduce import (agg_fold_blobs, agg_group_sum, attach,
                     bucketed_group_agg, buckets_for, input_bytes,
                     join_sizing, materialize_nonempty, parquet_rows)
from .relational import _read


# --- J-family completion: LEFT OUTER join --------------------------------
def q_left_outer_join(sf_dir: str):
    """Customers with their order count INCLUDING zero-order customers
    (the missing-side semantics inner joins drop). Right side is
    pre-aggregated to (key, count) before the shuffle."""
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    # custkey cardinality grows with the corpus => bucketed count;
    # scrub empty blocks before the join (reduce.materialize_nonempty)
    counts = materialize_nonempty(bucketed_group_agg(
        _read(sf_dir, "orders", columns=["o_custkey"]), ["o_custkey"],
        lambda g: g.groupby("o_custkey", as_index=False)
        .agg(n=("o_custkey", "count")),
        est_bytes=input_bytes(f"{sf_dir}/orders.parquet")))
    j = cust.join(counts, "left_outer",
                  **join_sizing(input_bytes(f"{sf_dir}/customer.parquet")
                                + counts.size_bytes()),
                  on=("c_custkey",), right_on=("o_custkey",))

    def finish(t: pa.Table) -> pa.Table:
        n = pc.coalesce(t.column("n"), pa.scalar(0, pa.int64()))
        return pa.table({"c_custkey": t.column("c_custkey"),
                         "c_name": t.column("c_name"),
                         "n_orders": n.cast(pa.int64())})

    return j.map_batches(finish, batch_format="pyarrow")


SQL_LEFT_OUTER_JOIN = (
    "SELECT c_custkey, c_name, COALESCE(o.n, 0) AS n_orders "
    "FROM customer LEFT JOIN (SELECT o_custkey, COUNT(*) AS n "
    "FROM orders GROUP BY o_custkey) o ON c_custkey = o_custkey")


# --- J-family completion: FULL OUTER join --------------------------------
def q_full_outer_join(sf_dir: str) -> pa.Table:
    """Per-nation customer vs supplier counts, keeping nations present
    on either side only. Both inputs fold to at most one row per nation
    on the driver (reduce.agg_group_sum), so the full outer join of
    those two small tables runs there in Arrow, not as a cluster
    shuffle; an empty side keeps the other side's nations with a 0
    count, as the SQL does."""
    cust = agg_group_sum(_read(sf_dir, "customer", columns=["c_nationkey"]),
                         ["c_nationkey"], {"n_cust": None})
    supp = agg_group_sum(_read(sf_dir, "supplier", columns=["s_nationkey"]),
                         ["s_nationkey"], {"n_supp": None})
    # Arrow's full outer join keeps ONE key column under the left-side
    # name (coalesced across sides), typed as the nation key columns,
    # like the oracle's COALESCE
    t = cust.join(supp, "c_nationkey", "s_nationkey", join_type="full outer")
    zero = pa.scalar(0, pa.int64())
    return pa.table({
        "nationkey": t.column("c_nationkey"),
        "n_cust": pc.coalesce(t.column("n_cust"), zero),
        "n_supp": pc.coalesce(t.column("n_supp"), zero),
    }).sort_by("nationkey")


SQL_FULL_OUTER_JOIN = (
    "SELECT COALESCE(c.c_nationkey, s.s_nationkey) AS nationkey, "
    "COALESCE(c.n_cust, 0) AS n_cust, COALESCE(s.n_supp, 0) AS n_supp "
    "FROM (SELECT c_nationkey, COUNT(*) AS n_cust FROM customer "
    "GROUP BY c_nationkey) c FULL OUTER JOIN "
    "(SELECT s_nationkey, COUNT(*) AS n_supp FROM supplier "
    "GROUP BY s_nationkey) s ON c.c_nationkey = s.s_nationkey")


# --- J-family completion: broadcast CROSS join ---------------------------
def q_cross_join(sf_dir: str):
    """region x nation name pairs: the tiny side is broadcast once
    (ray.put) and each batch expands vectorized — a cross join never
    shuffles when one side fits in memory."""
    import ray
    regions = _read(sf_dir, "region", columns=["r_name"]).to_pandas()
    r_ref = ray.put(regions["r_name"].to_numpy())
    ds = _read(sf_dir, "nation", columns=["n_name"])

    def cross(t: pa.Table) -> pa.Table:
        r = ray.get(r_ref)
        n = t.column("n_name").to_numpy(zero_copy_only=False)
        return pa.table({
            "r_name": pa.array(np.repeat(r, len(n)), pa.string()),
            "n_name": pa.array(np.tile(n, len(r)), pa.string()),
        })

    return ds.map_batches(cross, batch_format="pyarrow")


SQL_CROSS_JOIN = "SELECT r_name, n_name FROM region CROSS JOIN nation"


# --- unnest / explode ----------------------------------------------------
def q_unnest_tokens(sf_dir: str):
    """documents -> one row per whitespace token (the flat_map /
    UNNEST shape): ``doc_id[row], tok`` of functions.text.token_rows."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        row, tok = token_rows(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id").take(row),
                         "token": tok})

    return materialize_nonempty(
        ds.map_batches(explode, batch_format="pyarrow"),
        fallback_schema=pa.schema({"doc_id": pa.int64(),
                                   "token": pa.string()}))


SQL_UNNEST_TOKENS = (
    "SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS token "
    "FROM documents")


# above this many docs, a token's posting list splits into multiple
# output rows (stop-word defense: no single row/frame ever holds an
# unbounded posting list). The default never triggers at driver scale,
# so the SQL oracle (one row per token) stays exact.
POSTING_CAP = 100_000


def q_inverted_index(sf_dir: str, buckets: int | None = None,
                     posting_cap: int = POSTING_CAP):
    """Corpus inverted index: token -> sorted distinct posting list +
    document frequency. The training-data retrieval staple. Shuffle is
    bucketed on hash(token) % B — B data-sized from the text bytes
    (buckets_for), never one Ray group per token (vocabulary-
    cardinality at 100 TB); per-bucket posting-list build is fully
    vectorized (sort + unique-boundary split, no per-token Python).
    Tokens with more than ``posting_cap`` docs emit MULTIPLE rows of
    <= cap postings each (same schema; n_docs = docs in that row), so
    a corpus-scale stop-word can never blow up one task's frame."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:   # distinct (doc_id, token)
        row, tok = token_rows(t.column("text"))
        return (pa.table({"doc_id": t.column("doc_id").take(row),
                          "token": tok})
                .group_by(["doc_id", "token"]).aggregate([]))

    def build(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized posting-list build: one sort, distinct
        # (token, doc) pairs, then boundary-index splits — no
        # per-token Python aggregation lambda
        g = (g.sort_values(["token", "doc_id"])
             .drop_duplicates(["token", "doc_id"]))
        toks = g["token"].to_numpy()
        docs = g["doc_id"].to_numpy().astype(np.int64)
        first = np.ones(len(toks), dtype=bool)
        first[1:] = toks[1:] != toks[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(toks))
        counts = ends - starts
        if (counts <= posting_cap).all():
            # common path: pure boundary split, no per-token Python
            postings = [p.tolist() for p in np.split(docs, starts[1:])]
            return pd.DataFrame({
                "token": pd.Series(toks[starts], dtype="object"),
                "postings": pd.Series(postings, dtype="object"),
                "n_docs": counts.astype("int64")})
        out_tok, out_post = [], []
        for s, e in zip(starts, ends):
            # posting_cap sharding (stop-word path only): one output
            # row per <=cap slice of the token's postings
            for c in range(s, e, posting_cap):
                out_tok.append(toks[s])
                out_post.append(docs[c:min(c + posting_cap, e)].tolist())
        return pd.DataFrame({
            "token": pd.Series(out_tok, dtype="object"),
            "postings": pd.Series(out_post, dtype="object"),
            "n_docs": pd.Series([len(p) for p in out_post],
                                dtype="int64")})

    return materialize_nonempty(
        bucketed_group_agg(ds.map_batches(pairs, batch_format="pyarrow"),
                           ["token"], build, buckets=buckets,
                           est_bytes=input_bytes(
                               f"{sf_dir}/documents.parquet")),
        fallback_schema=pa.schema({"token": pa.string(),
                                   "postings": pa.list_(pa.int64()),
                                   "n_docs": pa.int64()}))


SQL_INVERTED_INDEX = (
    "SELECT token, list_sort(list(DISTINCT doc_id)) AS postings, "
    "CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs FROM ("
    "SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS token "
    "FROM documents) GROUP BY token")


# --- deterministic per-key sampling (cap per key) ------------------------
def q_sample_per_key(sf_dir: str, n: int = 2):
    """Keep at most n events per user, chosen by a deterministic
    content hash (md5 of the event id) — the 'cap documents per
    domain' sampling pattern: stable under reruns and row order, no
    RNG state to coordinate. Bucketed shuffle, vectorized ranking."""
    from ..functions.text import md5_of_ids
    ds = _read(sf_dir, "events", columns=["event_id", "user_id"])

    def cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_k=md5_of_ids(g["event_id"].to_numpy()))
        g = g.sort_values(["user_id", "_k", "event_id"])
        rn = g.groupby("user_id", sort=False).cumcount()
        return (g[rn.to_numpy() < n][["event_id", "user_id"]]
                .reset_index(drop=True))

    return bucketed_group_agg(ds, ["user_id"], cap,
                              est_bytes=input_bytes(
                                  f"{sf_dir}/events.parquet"))


SQL_SAMPLE_PER_KEY = (
    "SELECT event_id, user_id FROM ("
    "SELECT event_id, user_id, ROW_NUMBER() OVER ("
    "PARTITION BY user_id "
    "ORDER BY md5(CAST(event_id AS VARCHAR)), event_id) AS rn "
    "FROM events) WHERE rn <= 2")


# --- rollup (multi-level aggregate) --------------------------------------
def q_rollup_counts(sf_dir: str) -> pa.Table:
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): the leaf level is
    one distributed grouped count; the coarser levels derive from the
    LEAF aggregate (25ish rows), never from a second corpus scan."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus"])
    # leaf is tiny (distinct pair count): derive flag-level and
    # grand-total rows in one pass
    df = agg_group_sum(ds, ["l_returnflag", "l_linestatus"],
                       {"n": None}).to_pandas()
    lvl1 = (df.groupby("l_returnflag", as_index=False)["n"].sum())
    lvl1["l_linestatus"] = None
    total = pd.DataFrame({"l_returnflag": [None],
                          "l_linestatus": [None],
                          "n": [df["n"].sum()]})
    out = pd.concat([df, lvl1[["l_returnflag", "l_linestatus", "n"]],
                     total], ignore_index=True)
    return pa.table({
        "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
        "l_linestatus": pa.array(out["l_linestatus"], pa.string()),
        "n": pa.array(out["n"].astype("int64"), pa.int64())})


SQL_ROLLUP_COUNTS = (
    "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem "
    "GROUP BY ROLLUP(l_returnflag, l_linestatus)")


# --- string normalization ------------------------------------------------
def q_normalize_text(sf_dir: str):
    """Canonical text form (lowercase, whitespace collapsed, trimmed)
    — the pre-dedup normalization pass; same regex on both engines."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        t = (df["text"].str.lower()
             .str.replace(r"\s+", " ", regex=True).str.strip())
        return pd.DataFrame({"doc_id": df["doc_id"], "norm_text": t})

    return ds.map_batches(norm, batch_format="pandas")


SQL_NORMALIZE_TEXT = (
    "SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) "
    "AS norm_text FROM documents")


# --- log-histogram quantile sketch ---------------------------------------
QSK_BITS = 16  # sub-buckets per octave => relative error <= 2^(1/16)-1


def _qsk_buckets(cents: np.ndarray) -> np.ndarray:
    return np.floor(np.log2(cents.astype(np.float64)) * QSK_BITS)\
        .astype(np.int64)


def q_approx_quantiles(sf_dir: str):
    """Mergeable log-histogram quantile sketch over price cents (the
    unbounded-domain companion to grouped_median's exact histogram):
    bucket = floor(16*log2(v)) caps relative error at 2^(1/16)-1
    (~4.4%) with a few hundred buckets regardless of corpus size.
    Per-block bucket counts fold to one small table (reduce.
    agg_group_sum) -> bounded driver walk. Value-checked against the
    independent golden oracle (golden.py); error vs the exact quantile
    is pinned by test. An empty table has no quantiles: zero rows."""
    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])

    def bucket(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64()).to_numpy()
        return pa.table({"bucket": _qsk_buckets(cents)})

    hist = agg_group_sum(ds, ["bucket"], {"n": None}, of_batch=bucket)
    cum = np.cumsum(hist.column("n").to_numpy())   # bounded: few hundred
    bks = hist.column("bucket").to_numpy()
    qs = [0.5, 0.9, 0.99] if len(cum) else []
    ranks = [int(np.ceil(q * int(cum[-1]))) for q in qs]
    # bucket midpoint in log space
    ests = [float(2.0 ** ((int(bks[np.searchsorted(cum, r)]) + 0.5)
                          / QSK_BITS)) for r in ranks]
    return pa.table({"q": pa.array(qs, pa.float64()),
                     "est_cents": pa.array(ests, pa.float64())})
# oracle: independent golden (golden.py golden_approx_quantiles)


def q_grouped_approx_quantiles(sf_dir: str):
    """Per-group quantile sketch (the grouped composition of
    q_approx_quantiles): (event_type, bucket) partial counts -> one
    small groupby -> per-group histogram walk INSIDE the cluster
    (map_groups). Sketch size per group is bounded by the value
    domain's octave count, independent of row count. Golden-checked
    (golden.py)."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def hist(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(
            t.column("value"), 100.0)), pa.int64())
        t2 = pa.table({"event_type": t.column("event_type"),
                       "bucket": pa.array(_qsk_buckets(cents.to_numpy()),
                                          pa.int64()),
                       "one": pa.array(np.ones(t.num_rows, np.int64))})
        return (pa.TableGroupBy(t2, ["event_type", "bucket"])
                .aggregate([("one", "sum")])
                .rename_columns(["event_type", "bucket", "n"]))

    hist_ds = bucketed_group_agg(
        ds.map_batches(hist, batch_format="pyarrow"),
        ["event_type", "bucket"],
        lambda g: g.groupby(["event_type", "bucket"],
                            as_index=False)["n"].sum(),
        domain_bound="cells = event types x log2-scale value buckets "
                     "(~64 per type), not corpus rows")

    def walk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("bucket")
        cum = g["n"].cumsum().to_numpy()
        total = int(cum[-1])
        buckets = g["bucket"].to_numpy()
        rows = {"event_type": [], "q": [], "est_cents": []}
        for q in (0.5, 0.9, 0.99):
            rank = int(np.ceil(q * total))
            b = int(buckets[np.searchsorted(cum, rank)])
            rows["event_type"].append(g["event_type"].iloc[0])
            rows["q"].append(q)
            rows["est_cents"].append(float(2.0 ** ((b + 0.5) / QSK_BITS)))
        return pd.DataFrame(rows)

    return hist_ds.groupby("event_type").map_groups(
        walk, batch_format="pandas")
# oracle: independent golden (golden.golden_grouped_approx_quantiles)


# --- moments: integer-exact sum/sumsq per group --------------------------
def q_value_stats(sf_dir: str) -> pa.Table:
    """Per-type count / sum / sum-of-squares over integer milli-values
    (the moments an engine needs for mean/variance downstream), one
    grouped sum over the small fixed event-type domain. All-integer
    arithmetic keeps both engines bit-exact regardless of order."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def milli(t: pa.Table) -> pa.Table:
        vm = pc.cast(pc.round(pc.multiply(t.column("value"), 1000.0)),
                     pa.int64())
        return pa.table({"event_type": t.column("event_type"), "vm": vm,
                         "vm2": pc.multiply(vm, vm)})

    return agg_group_sum(ds, ["event_type"], {
        "n": None, "sum_milli": "vm", "sumsq_milli": "vm2"}, of_batch=milli)


SQL_VALUE_STATS = (
    "SELECT event_type, COUNT(*) AS n, "
    "CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) "
    "AS sum_milli, "
    "CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT) "
    "* CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) AS sumsq_milli "
    "FROM events GROUP BY event_type")


# --- fixed-width value histogram -----------------------------------------
def q_value_histogram(sf_dir: str, width: float = 50.0) -> pa.Table:
    """Value distribution in fixed-width bins — the dashboard staple;
    bin domain is value-range/width (small, fixed), so the count is
    one reduce.agg_group_sum."""
    ds = _read(sf_dir, "events", columns=["value"])

    def binned(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor(pc.divide(t.column("value"), width)),
                    pa.int64())
        return pa.table({"bin": b})

    return agg_group_sum(ds, ["bin"], {"n": None}, of_batch=binned)


SQL_VALUE_HISTOGRAM = (
    "SELECT CAST(FLOOR(value / 50.0) AS BIGINT) AS bin, COUNT(*) AS n "
    "FROM events GROUP BY 1")


# --- per-day activity ----------------------------------------------------
def q_events_per_day(sf_dir: str) -> pa.Table:
    """Daily event counts (date_trunc day — small fixed domain)."""
    ds = _read(sf_dir, "events", columns=["ts"])

    def day(t: pa.Table) -> pa.Table:
        d = pc.floor_temporal(t.column("ts"), unit="day")
        # DuckDB's date_trunc('day') yields DATE; both sides align on
        # timestamp[us] (the oracle CASTs back to TIMESTAMP)
        return pa.table({"day": d.cast(pa.timestamp("us"))})

    return agg_group_sum(ds, ["day"], {"n": None}, of_batch=day)


SQL_EVENTS_PER_DAY = (
    "SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day, "
    "COUNT(*) AS n FROM events GROUP BY 1")


# --- grouped COUNT(DISTINCT) ---------------------------------------------
def q_distinct_users_per_type(sf_dir: str) -> pa.Table:
    """Exact distinct users per event type: map-side unique pairs per
    batch (combine), distinct pairs via groupby, then a count per
    type — only unique pairs ever shuffle."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def uniq(t: pa.Table) -> pa.Table:
        return (pa.TableGroupBy(t, ["event_type", "user_id"])
                .aggregate([]))

    # (type, user) cardinality grows with the corpus => bucketed
    # distinct + per-bucket partial counts; the FINAL sum runs over
    # n_types x n_buckets tiny rows (small fixed domain)
    partial = bucketed_group_agg(
        ds.map_batches(uniq, batch_format="pyarrow"),
        ["event_type", "user_id"],
        lambda g: g.drop_duplicates(["event_type", "user_id"])
        .groupby("event_type", as_index=False)
        .agg(n_users=("user_id", "count")),
        est_bytes=input_bytes(f"{sf_dir}/events.parquet"))
    return agg_group_sum(
        partial, ["event_type"], {"n_users": "n_users"},
        of_batch=lambda t: t.cast(pa.schema({"event_type": pa.string(),
                                             "n_users": pa.int64()})))


SQL_DISTINCT_USERS_PER_TYPE = (
    "SELECT event_type, COUNT(DISTINCT user_id) AS n_users "
    "FROM events GROUP BY event_type")


# --- Bloom-prefiltered semi join (runtime filter pushdown) ---------------
BLOOM_BITS = 1 << 20          # 128 KiB filter
_B1, _B2 = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F


def _bloom_positions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore"):
        k = keys.astype(np.uint64)
        h1 = (k * np.uint64(_B1)) >> np.uint64(44)
        h2 = (k * np.uint64(_B2)) >> np.uint64(44)
    return (h1 % np.uint64(BLOOM_BITS)).astype(np.int64), \
           (h2 % np.uint64(BLOOM_BITS)).astype(np.int64)


def _bloom_of(keys: np.ndarray) -> np.ndarray:
    filt = np.zeros(BLOOM_BITS // 8, dtype=np.uint8)
    for h in _bloom_positions(keys):
        np.bitwise_or.at(filt, h >> 3, (1 << (h & 7)).astype(np.uint8))
    return filt


def _bloom_test(filt: np.ndarray, keys: np.ndarray) -> np.ndarray:
    ok = np.ones(len(keys), dtype=bool)
    for h in _bloom_positions(keys):
        ok &= (filt[h >> 3] >> (h & 7).astype(np.uint8)) & 1 > 0
    return ok


def _bloom_prefilter(build, build_key: str, probe, probe_key: str,
                     key_hash):
    """The rows of ``probe`` whose ``probe_key`` may occur in
    ``build``'s ``build_key`` column (a RUNTIME BLOOM FILTER, false
    positives included): ``key_hash(column) -> integer ndarray`` hashes
    a key column of an Arrow batch; ``build``'s keys fold into one
    128 KiB bloom (per-batch partial filters OR-merged in-cluster via
    reduce.agg_fold_blobs — the driver sees ONE blob), the filter
    broadcasts once (ray.put), and each probe batch drops the rows it
    rules out. Output keeps the probe batches' (Arrow) types."""
    import ray

    def partial_bloom(t: pa.Table) -> pa.Table:
        filt = _bloom_of(key_hash(t.column(build_key)))
        return pa.table({"bloom": pa.array([filt.tobytes()], pa.binary())})

    def or_merge(blobs) -> bytes:
        out = np.zeros(BLOOM_BITS // 8, dtype=np.uint8)
        for b in blobs:
            out |= np.frombuffer(b, dtype=np.uint8)
        return out.tobytes()

    blob = agg_fold_blobs(
        build.map_batches(partial_bloom, batch_format="pyarrow"),
        "bloom", or_merge)
    filt_ref = ray.put(np.frombuffer(blob, dtype=np.uint8))

    def prefilter(t: pa.Table) -> pa.Table:
        keep = _bloom_test(ray.get(filt_ref), key_hash(t.column(probe_key)))
        return t.filter(pa.array(keep, pa.bool_()))

    return probe.map_batches(prefilter, batch_format="pyarrow")


def q_semi_join_bloom(sf_dir: str):
    """Semi join with a RUNTIME BLOOM FILTER pushdown
    (``_bloom_prefilter``): the big left side drops non-matching rows
    BEFORE the shuffle; the exact semi join then removes bloom false
    positives. At 100 TB this is the difference between shuffling the
    whole probe side and shuffling the ~matching fraction. Output
    identical to the plain semi join (same SQL oracle)."""
    keys_ds = _read(sf_dir, "orders", columns=["o_custkey"])
    survivors = _bloom_prefilter(
        keys_ds, "o_custkey",
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        "c_custkey", lambda c: c.to_numpy())
    # exact semi join on the (much smaller) surviving probe side
    distinct_keys = materialize_nonempty(keys_ds.map_batches(
        lambda t: pa.TableGroupBy(t, "o_custkey").aggregate([]),
        batch_format="pyarrow"))
    return survivors.join(
        distinct_keys, "left_semi",
        **join_sizing(input_bytes(f"{sf_dir}/customer.parquet")
                      + distinct_keys.size_bytes()),
        on=("c_custkey",), right_on=("o_custkey",))


SQL_SEMI_JOIN_BLOOM = ("SELECT c_custkey, c_name FROM customer "
                       "WHERE c_custkey IN (SELECT o_custkey FROM orders)")


# --- end-to-end training-data prep (composition) -------------------------
def prep_stage1(df: pd.DataFrame, B: int) -> pa.Table:
    """normalize -> quality gate -> md5 fingerprint, tagged with the
    dedup bucket fp[:8] % B. Module-level so the checkpointed variant
    (state/dedup_checkpoint.run_checkpointed_prep_corpus) reuses it.
    The keeper set is invariant in B: every fingerprint lands in
    exactly one bucket for any B."""
    from ..functions.text import md5_fingerprint
    nt = (df["text"].str.lower()
          .str.replace(r"\s+", " ", regex=True).str.strip())
    n = nt.str.len()
    n_alpha = nt.str.count(r"[A-Za-z]")
    keep = (n >= 50) & (n <= 20000) & (2 * n_alpha > n)
    nt, ids = nt[keep], df["doc_id"][keep]
    fps = md5_fingerprint(nt)
    b = np.fromiter((int(f[:8], 16) % B for f in fps),
                    dtype=np.int32, count=len(fps))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "fp": pa.array(fps, pa.string()),
                     "_b": pa.array(b, pa.int32())})


def prep_keep_first(g: pd.DataFrame) -> pd.DataFrame:
    """Within one dedup bucket: keep min doc_id per fingerprint and
    assign the deterministic train/val/test split."""
    from ..functions.text import split_of_ids
    g = (g.sort_values("doc_id").drop_duplicates("fp", keep="first"))
    return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                         "split": split_of_ids(g["doc_id"].to_numpy())})


def q_prep_corpus(sf_dir: str):
    """The whole data-prep chain as ONE streaming pipeline:
    normalize -> quality gate -> exact dedup (keep min doc_id per
    normalized text) -> deterministic train/val/test split. One
    shuffle total (the dedup bucket groupby); everything else is
    narrow maps. Output (doc_id, split) of the surviving corpus."""
    import functools
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # ids+fp rows only enter the shuffle => row-count-based sizing
    B = buckets_for(48 * parquet_rows(f"{sf_dir}/documents.parquet"))
    return (ds.map_batches(functools.partial(prep_stage1, B=B),
                           batch_format="pandas")
            .groupby("_b").map_groups(prep_keep_first,
                                      batch_format="pandas"))


SQL_PREP_CORPUS = """
WITH normed AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS nt
  FROM documents),
gated AS (
  SELECT doc_id, nt FROM normed
  WHERE length(nt) BETWEEN 50 AND 20000
    AND 2 * length(regexp_extract_all(nt, '[A-Za-z]')) > length(nt)),
deduped AS (
  SELECT doc_id,
         MIN(doc_id) OVER (PARTITION BY md5(nt)) AS keeper
  FROM gated)
SELECT doc_id,
  CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val'
       ELSE 'test' END AS split
FROM (SELECT doc_id,
        CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
             AS BIGINT) % 100 AS b
      FROM deduped WHERE doc_id = keeper)
"""


# --- per-doc repetition signals (Gopher-style quality filters) -----------
def q_repetition_scores(sf_dir: str):
    """Per-document repetition statistics for quality filtering:
    ``top_token_frac`` (share of tokens taken by the most frequent
    token) and ``ttr`` (type-token ratio, distinct/total). Map-only —
    every batch is independent, no shuffle; the split/explode/groupby
    chain is C-level pandas, no Python loop over rows."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def scores(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index("doc_id")["text"].str.split(" ").explode()
        cnt = toks.groupby([toks.index, toks]).size()
        per_doc = cnt.groupby(level=0)
        mx, nuniq, tot = per_doc.max(), per_doc.size(), per_doc.sum()
        return pd.DataFrame({
            "doc_id": mx.index.to_numpy(),
            "top_token_frac": mx.to_numpy() / tot.to_numpy(),
            "ttr": nuniq.to_numpy() / tot.to_numpy()})

    return ds.map_batches(scores, batch_format="pandas")


SQL_REPETITION_SCORES = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
counts AS (
  SELECT doc_id, tok, COUNT(*) AS c FROM toks GROUP BY doc_id, tok)
SELECT doc_id, CAST(MAX(c) AS DOUBLE) / SUM(c) AS top_token_frac,
       CAST(COUNT(*) AS DOUBLE) / SUM(c) AS ttr
FROM counts GROUP BY doc_id
"""


# --- benchmark decontamination (n-gram overlap flagging) -----------------
# the "benchmark" is the deterministic doc_id % 97 == 0 subset; a
# training doc is contaminated when it shares ANY word-8-gram with it
CONTAM_N = 8
BENCH_MOD = 97


def _word_ngrams(df: pd.DataFrame, n: int) -> pd.DataFrame:
    """(doc_id, g) rows of every word n-gram, deduplicated per doc.
    Shift-concat over the exploded token stream — the per-row string
    joins run in pandas' C loop, not Python."""
    toks = df.set_index("doc_id")["text"].str.split(" ").explode()
    ids, tk = toks.index.to_numpy(), toks.to_numpy()
    m = len(tk) - n + 1
    if m <= 0:
        return pd.DataFrame({"doc_id": np.zeros(0, np.int64),
                             "g": np.zeros(0, object)})
    # a gram is valid only when its last token is still in the same doc
    valid = ids[:m] == ids[n - 1:]
    g = pd.Series(tk[:m])
    for k in range(1, n):
        g = g + " " + pd.Series(tk[k:k + m])
    return (pd.DataFrame({"doc_id": ids[:m][valid],
                          "g": g.to_numpy()[valid]})
            .drop_duplicates(ignore_index=True))


def q_decontaminate(sf_dir: str, n: int = CONTAM_N):
    """Flag training documents sharing any word-``n``-gram with the
    benchmark subset — the eval-set decontamination pass of a training
    pipeline. Scale shape: the benchmark side (~1% of docs) folds its
    gram hashes into a bloom that broadcasts once; the big probe side
    drops non-matching grams BEFORE the shuffle, then an exact
    string-keyed semi join removes bloom false positives, and flagged
    doc ids reduce through a bucketed distinct. Only candidate grams
    cross the wire; texts never enter a shuffle. (At real scale the
    bloom is sized to the benchmark's gram cardinality.)"""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def grams(df: pd.DataFrame) -> pa.Table:
        # typed arrow out: when the prefilter drops EVERYTHING (zero
        # contamination) the materialized empty block still declares
        # (doc_id, g) so the downstream join resolves its key fields
        g = _word_ngrams(df, n)
        return pa.table({"doc_id": pa.array(g["doc_id"], pa.int64()),
                         "g": pa.array(g["g"], pa.string())})

    bgrams = ds.map_batches(
        lambda df: grams(df[df["doc_id"] % BENCH_MOD == 0]),
        batch_format="pandas")
    # the prefilter empties most blocks => scrub before the join
    # (Ray 2.49 schemaless-empty-block gotcha, reduce.materialize_nonempty)
    cand = materialize_nonempty(_bloom_prefilter(
        bgrams, "g",
        ds.map_batches(lambda df: grams(df[df["doc_id"] % BENCH_MOD != 0]),
                       batch_format="pandas"),
        "g", lambda c: pd.util.hash_array(c.to_numpy())))

    def nonbench_ids(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        return t.filter(pa.array(ids % BENCH_MOD != 0, pa.bool_()))

    # ids-only => cheap to materialize; scrubbing matters because the
    # bench filter can empty whole blocks (schemaless-empty join gotcha)
    probe_ids = materialize_nonempty(
        ds.select_columns(["doc_id"]).map_batches(
            nonbench_ids, batch_format="pyarrow"))

    def all_clean(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"),
                         "contaminated": pa.array(
                             np.zeros(t.num_rows, bool))})

    # a fully-empty join input breaks Ray 2.49's hash-shuffle join even
    # with a typed empty block (every partition's shard arrives
    # schemaless), so short-circuit like dedupe's zero-candidate path;
    # cand is materialized, count() is metadata-free
    if cand.count() == 0:
        return probe_ids.map_batches(all_clean, batch_format="pyarrow")
    # semi join tolerates duplicate right keys (existence test), so the
    # bench side skips a global-distinct shuffle: per-doc dedup already
    # happened in _word_ngrams, and the join's hash build absorbs the
    # remaining cross-doc duplicates
    bench_keys = materialize_nonempty(bgrams.select_columns(["g"]))
    hits = materialize_nonempty(
        cand.join(bench_keys, "left_semi",
                  **join_sizing(cand.size_bytes() + bench_keys.size_bytes()),
                  on=("g",)))
    n_hits = hits.count()   # materialized => metadata-free
    if n_hits == 0:
        return probe_ids.map_batches(all_clean, batch_format="pyarrow")
    flagged = materialize_nonempty(
        bucketed_group_agg(hits.select_columns(["doc_id"]), ["doc_id"],
                           lambda g: g.drop_duplicates("doc_id"),
                           est_bytes=n_hits * 8)
        .map_batches(
            lambda df: pa.table({
                "hit_id": pa.array(df["doc_id"], pa.int64()),
                "hit": pa.array(np.ones(len(df), np.int8))}),
            batch_format="pandas"))
    # Ray's outer join folds the right key into the left key column, so
    # matches are detected via the non-key `hit` indicator column
    j = probe_ids.join(flagged, "left_outer",
                       **join_sizing(probe_ids.size_bytes()
                                     + flagged.size_bytes()),
                       on=("doc_id",), right_on=("hit_id",))
    return j.map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id"),
            "contaminated": pc.is_valid(t.column("hit"))}),
        batch_format="pyarrow")


SQL_DECONTAMINATE = f"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
grams AS (
  SELECT doc_id, array_to_string(ws[i:i+{CONTAM_N - 1}], ' ') AS g
  FROM toks, UNNEST(range(1, len(ws) - {CONTAM_N - 2})) AS t(i)),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {BENCH_MOD} = 0),
flags AS (
  SELECT DISTINCT g2.doc_id FROM grams g2 JOIN bench USING (g)
  WHERE g2.doc_id % {BENCH_MOD} <> 0)
SELECT d.doc_id, (f.doc_id IS NOT NULL) AS contaminated
FROM documents d LEFT JOIN flags f USING (doc_id)
WHERE d.doc_id % {BENCH_MOD} <> 0
"""


# --- PII redaction (map-only) ---------------------------------------------
def q_redact_pii(sf_dir: str):
    """Documents with emails / IPv4 / phone runs masked by typed
    placeholders — the privacy-scrub stage of a training pipeline.
    Map-only: every batch is independent, patterns compile once per
    process (functions/text.PII_PATTERNS, shared verbatim with the SQL
    oracle so both engines replace identically)."""
    from ..functions.text import redact_pii
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "text": redact_pii(df["text"])})

    return ds.map_batches(scrub, batch_format="pandas")


def _sql_redact_pii() -> str:
    from ..functions.text import PII_PATTERNS
    expr = "text"
    for pat, repl in PII_PATTERNS:
        # DuckDB string literals are standard SQL: backslashes pass
        # through verbatim, only quotes need doubling
        expr = f"regexp_replace({expr}, '{pat.replace(chr(39), chr(39) * 2)}', '{repl}', 'g')"
    return f"SELECT doc_id, {expr} AS text FROM documents"


SQL_REDACT_PII = _sql_redact_pii()


# --- exact global percentile rank without a global sort -------------------
def q_percent_rank_chars(sf_dir: str):
    """Exact ``PERCENT_RANK() OVER (ORDER BY n_chars)`` per document.

    No global sort: the distinct-length domain is bounded by the
    maximum document length, NOT by corpus size, so per-batch
    (n_chars -> count) partials fold through ONE blob aggregate into a
    single histogram; its cumulative below-counts broadcast once and
    each batch ranks itself with a searchsorted gather. Two streaming
    passes, zero shuffles — at 100 TB the broadcast is
    O(distinct lengths), a few MB."""
    import pickle

    import ray

    from .reduce import agg_fold_blobs
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partial(df: pd.DataFrame) -> pa.Table:
        vc = df["n_chars"].value_counts()
        blob = pickle.dumps({int(k): int(v) for k, v in vc.items()})
        return pa.table({"h": pa.array([blob], pa.binary())})

    def merge(blobs) -> bytes:
        out: dict[int, int] = {}
        for b in blobs:
            for k, v in pickle.loads(b).items():
                out[k] = out.get(k, 0) + v
        return pickle.dumps(out)

    hist = pickle.loads(agg_fold_blobs(
        ds.map_batches(partial, batch_format="pandas"), "h", merge))
    vals = np.array(sorted(hist), dtype=np.int64)
    below = np.concatenate(
        ([0], np.cumsum([hist[int(v)] for v in vals])[:-1]))
    denom = max(int(sum(hist.values())) - 1, 1)  # single row => pr 0
    ref = ray.put((vals, below))

    def rank(t: pa.Table) -> pa.Table:
        v, b = ray.get(ref)
        x = t.column("n_chars").to_numpy()
        # count(< x) / (N-1): both int64 -> the same IEEE double
        # division DuckDB's PERCENT_RANK performs
        pr = b[np.searchsorted(v, x)] / denom
        return pa.table({"doc_id": t.column("doc_id"),
                         "pr": pa.array(pr, pa.float64())})

    return ds.map_batches(rank, batch_format="pyarrow")


SQL_PERCENT_RANK_CHARS = ("SELECT doc_id, PERCENT_RANK() OVER "
                          "(ORDER BY n_chars) AS pr FROM documents")


# --- most distinctive token per document (tf x rarity) ---------------------
def q_tfidf_top_term(sf_dir: str):
    """Per-document most distinctive token by tf x (N/df) — idf with a
    log-free rarity weight so both engines compute the identical IEEE
    double from the same integer inputs (ln() bit-parity across libm
    builds is not guaranteed; N/df preserves the ranking for a fixed
    corpus). Ties break to the lexicographically smallest token.

    Scale shape: per-doc term counts are map-only; document frequency
    reduces through a salted-bucket distinct over the token domain
    (vocabulary-cardinality, never a raw-key groupby); df re-attaches
    to the constant-width (doc_id, tok, c, tot) rows through
    ``reduce.attach`` (a broadcast below its byte gate, one hash join
    above it); the per-doc argmax reduces through the same bucketed
    pattern keyed on doc_id."""
    n_docs = parquet_rows(f"{sf_dir}/documents.parquet")
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def term_counts(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index("doc_id")["text"].str.split(" ").explode()
        cnt = (toks.groupby([toks.index, toks]).size()
               .rename("c").reset_index())
        cnt.columns = ["doc_id", "tok", "c"]
        tot = cnt.groupby("doc_id")["c"].transform("sum")
        return cnt.assign(tot=tot)

    counts = materialize_nonempty(
        ds.map_batches(term_counts, batch_format="pandas"))

    # df per token: docs are intact within a batch and counts are
    # already distinct per (doc, tok), so df == row count per tok
    dfreq = materialize_nonempty(bucketed_group_agg(
        counts.select_columns(["tok"]), ["tok"],
        lambda g: g.groupby("tok", as_index=False).agg(df=("tok", "count")),
        est_bytes=input_bytes(f"{sf_dir}/documents.parquet")))

    def top1(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["doc_id", "score", "tok"],
                              ascending=[True, False, True])
                .drop_duplicates("doc_id", ignore_index=True))

    def score(t: pa.Table) -> pa.Table:
        s = ((t.column("c").to_numpy() * n_docs)
             / (t.column("tot").to_numpy() * t.column("df").to_numpy()))
        return pa.table({"doc_id": t.column("doc_id"),
                         "tok": t.column("tok"),
                         "score": pa.array(s, pa.float64())})

    scored = attach(counts, dfreq, "tok", {"tok": {"df": "df"}}) \
        .map_batches(score, batch_format="pyarrow")
    return bucketed_group_agg(
        scored, ["doc_id"], top1,
        est_bytes=input_bytes(f"{sf_dir}/documents.parquet"))


SQL_TFIDF_TOP_TERM = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents),
counts AS (
  SELECT doc_id, tok, COUNT(*) AS c FROM toks GROUP BY doc_id, tok),
tot AS (SELECT doc_id, SUM(c) AS tot FROM counts GROUP BY doc_id),
dfreq AS (SELECT tok, COUNT(*) AS df FROM counts GROUP BY tok),
n AS (SELECT COUNT(*) AS n FROM documents),
scored AS (
  SELECT c.doc_id, c.tok,
         CAST(c.c * n.n AS DOUBLE) / (t.tot * d.df) AS score
  FROM counts c
  JOIN tot t USING (doc_id) JOIN dfreq d USING (tok) CROSS JOIN n)
SELECT doc_id, tok, score FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
            ORDER BY score DESC, tok ASC) AS rn FROM scored)
WHERE rn = 1
"""


QUERIES = {
    "semi_join_bloom": q_semi_join_bloom,
    "prep_corpus": q_prep_corpus,
    "left_outer_join": q_left_outer_join,
    "full_outer_join": q_full_outer_join,
    "cross_join": q_cross_join,
    "unnest_tokens": q_unnest_tokens,
    "inverted_index": q_inverted_index,
    "sample_per_key": q_sample_per_key,
    "rollup_counts": q_rollup_counts,
    "normalize_text": q_normalize_text,
    "approx_quantiles": q_approx_quantiles,
    "grouped_approx_quantiles": q_grouped_approx_quantiles,
    "distinct_users_per_type": q_distinct_users_per_type,
    "value_stats": q_value_stats,
    "value_histogram": q_value_histogram,
    "events_per_day": q_events_per_day,
    # round-4 additions: keep LAST so a count-capped driver run keeps
    # its existing coverage (__ray_entry__ registration order note)
    "repetition_scores": q_repetition_scores,
    "decontaminate": q_decontaminate,
    "redact_pii": q_redact_pii,
    "percent_rank_chars": q_percent_rank_chars,
    "tfidf_top_term": q_tfidf_top_term,
}

ORACLE_SQL = {
    "semi_join_bloom": SQL_SEMI_JOIN_BLOOM,
    "prep_corpus": SQL_PREP_CORPUS,
    "left_outer_join": SQL_LEFT_OUTER_JOIN,
    "full_outer_join": SQL_FULL_OUTER_JOIN,
    "cross_join": SQL_CROSS_JOIN,
    "unnest_tokens": SQL_UNNEST_TOKENS,
    "inverted_index": SQL_INVERTED_INDEX,
    "sample_per_key": SQL_SAMPLE_PER_KEY,
    "rollup_counts": SQL_ROLLUP_COUNTS,
    "normalize_text": SQL_NORMALIZE_TEXT,
    "distinct_users_per_type": SQL_DISTINCT_USERS_PER_TYPE,
    "value_stats": SQL_VALUE_STATS,
    "value_histogram": SQL_VALUE_HISTOGRAM,
    "events_per_day": SQL_EVENTS_PER_DAY,
    "repetition_scores": SQL_REPETITION_SCORES,
    "decontaminate": SQL_DECONTAMINATE,
    "redact_pii": SQL_REDACT_PII,
    "percent_rank_chars": SQL_PERCENT_RANK_CHARS,
    "tfidf_top_term": SQL_TFIDF_TOP_TERM,
    # approx_quantiles: golden oracle wired in __ray_entry__.py
}
