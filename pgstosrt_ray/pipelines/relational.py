"""Relational operator conformance suite (SURVEY.md §2 -> driver
``queries()`` / ``oracle_sql()``).

Each entry re-expresses one reference operator class as an idiomatic
Ray Data pipeline over the driver's TPC-H-ish tables, with a DuckDB
oracle. Column names are identical on both sides (the driver hashes
values under sorted column names). Float accumulations are avoided in
oracle-checked queries: money sums go through integer cents
(CAST(ROUND(x*100) AS BIGINT)) so results are order-independent and
bit-exact across engines.

SURVEY mapping: lang_filter=S6, key_select=S7/R3, topk_sort=R1,
groupby_agg=A2/A3 (partial pre-aggregation pattern), broadcast_join=J2,
hash_join=J1, window_fill=M8 (lead/forward-fill), distinct_pairs=D1,
exact_dedup=D1, min_per_group=A1, count_rows=A5, token/fingerprint/
quality = text-analysis additions.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .reduce import (agg_fold_blobs, agg_group_sum, agg_topk,
                     bucketed_group_agg, buckets_for, input_bytes,
                     join_sizing, materialize_nonempty, parquet_rows)


def _read(sf_dir: str, table: str, columns=None, **kw):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                 columns=columns, **kw)


def _table_bytes(sf_dir: str, table: str) -> int:
    return input_bytes(f"{sf_dir}/{table}.parquet")


def _cents(col):
    return pc.cast(pc.round(pc.multiply(col, 100.0)), pa.int64())


# --- S6: filter by language (MkvUtilities.cs:76-96 analogue) -------------
def q_lang_filter(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"],
               filter=pc.field("lang") == "en")
    return ds

SQL_LANG_FILTER = ("SELECT doc_id, lang, n_chars FROM documents "
                   "WHERE lang = 'en'")


# --- S7/R3: key select + first-match limit (PgsParser.cs:40) -------------
def q_key_select(sf_dir: str):
    return _read(sf_dir, "orders",
                 columns=["o_orderkey", "o_custkey", "o_orderstatus"],
                 filter=pc.field("o_orderkey") == 42)

SQL_KEY_SELECT = ("SELECT o_orderkey, o_custkey, o_orderstatus FROM orders "
                  "WHERE o_orderkey = 42")


# --- R1: deterministic re-sort + top-k (PgsOcr.cs:110 analogue) ----------
def q_topk_sort(sf_dir: str):
    """Top-k WITHOUT a global sort and WITHOUT a driver merge: map
    tasks fold blocks into <=k-row states, the custom AggregateFn
    merges them in-cluster (reduce.agg_topk) — the all-to-all a naive
    ds.sort().limit() would do never happens, and the driver only
    ever sees the final k rows (SURVEY §4)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_extendedprice"])
    return agg_topk(ds, ["l_extendedprice", "l_orderkey", "l_linenumber"],
                    [False, True, True], k=100)

SQL_TOPK_SORT = (
    "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
    "ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 100")


# --- A2/A3: grouped aggregate with partial pre-aggregation (SURVEY §4) ---
def q_groupby_agg(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice"])

    def amounts(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty": pc.cast(t.column("l_quantity"), pa.int64()),
            "price_cents": _cents(t.column("l_extendedprice"))})

    return agg_group_sum(ds, ["l_returnflag", "l_linestatus"], {
        "sum_qty": "qty", "sum_price_cents": "price_cents",
        "n_rows": None}, of_batch=amounts)

# NOTE: DuckDB widens SUM(BIGINT) to HUGEINT (arrow decimal128(38,0));
# the outer CAST keeps the oracle's arrow schema at int64 like the Ray side.
SQL_GROUPBY_AGG = (
    "SELECT l_returnflag, l_linestatus, "
    "CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty, "
    "CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_price_cents, "
    "COUNT(*) AS n_rows FROM lineitem GROUP BY l_returnflag, l_linestatus")


# --- J2: broadcast small-side join (track-catalog analogue) --------------
def q_broadcast_join(sf_dir: str):
    import pandas as pd
    import ray
    nation = _read(sf_dir, "nation").to_pandas()
    # broadcast an index-keyed Series: the per-batch lookup is one
    # vectorized reindex gather, no per-row Python
    ref = ray.put(pd.Series(nation["n_name"].to_numpy(),
                            index=nation["n_nationkey"].to_numpy()))
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def join(t: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        names = lookup.reindex(t.column("c_nationkey").to_numpy()).to_numpy()
        return t.append_column("n_name", pa.array(names, pa.string()))

    return ds.map_batches(join, batch_format="pyarrow")

SQL_BROADCAST_JOIN = (
    "SELECT c_custkey, c_nationkey, n_name "
    "FROM customer JOIN nation ON c_nationkey = n_nationkey")


# --- J1: large-side hash join + aggregate ---------------------------------
def q_hash_join(sf_dir: str) -> pa.Table:
    if not (parquet_rows(f"{sf_dir}/lineitem.parquet")
            and parquet_rows(f"{sf_dir}/orders.parquet")):
        # Ray 2.49's hash join fails in HashShuffleAggregator.finalize()
        # on an empty side; an inner join with one is empty
        return pa.table({"o_orderstatus": pa.array([], pa.string()),
                         "sum_price_cents": pa.array([], pa.int64())})
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"])

    def li_cents(t: pa.Table) -> pa.Table:
        # no map-side combine here: at ~4 lineitems/order a per-batch
        # TableGroupBy costs more than the ~4x probe-side shrink saves
        # (A/B'd at sf0.1/32 CPUs: +0.4 s, BASELINE.md). Re-add a
        # combine when rows-per-key is high enough that shuffle bytes
        # dominate (the groupby_agg pattern above shows the shape).
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "price_cents": _cents(t.column("l_extendedprice"))})

    li = li.map_batches(li_cents, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])
    joined = li.join(orders, join_type="inner",
                     **join_sizing(_table_bytes(sf_dir, "lineitem")
                                   + _table_bytes(sf_dir, "orders")),
                     on=("l_orderkey",), right_on=("o_orderkey",))
    return agg_group_sum(joined, ["o_orderstatus"],
                         {"sum_price_cents": "price_cents"})

SQL_HASH_JOIN = (
    "SELECT o_orderstatus, "
    "CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) "
    "AS sum_price_cents "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "GROUP BY o_orderstatus")


# --- M8: ordered forward-fill / lead within key groups -------------------
def q_window_fill(sf_dir: str):
    import pandas as pd
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over the whole bucket: one sort + one grouped shift
        g = (g.sort_values(["user_id", "ts", "event_id"])
             .reset_index(drop=True))
        g["next_ts"] = g.groupby("user_id", sort=False)["ts"].shift(-1)
        return g[["event_id", "user_id", "ts", "next_ts"]]

    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("next_ts", pa.timestamp("us"))])
    return bucketed_group_agg(ds, ["user_id"], fill, schema=schema,
                              est_bytes=_table_bytes(sf_dir, "events"))

SQL_WINDOW_FILL = (
    "SELECT event_id, user_id, ts, "
    "LEAD(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS next_ts "
    "FROM events")


# --- D1: distinct key pairs ----------------------------------------------
def q_distinct_pairs(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus"])
    return agg_group_sum(ds, ["l_returnflag", "l_linestatus"], {})

SQL_DISTINCT_PAIRS = ("SELECT DISTINCT l_returnflag, l_linestatus "
                      "FROM lineitem")


# --- A1: min/max within group (GetPosition analogue) ---------------------
def q_min_per_group(sf_dir: str):
    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    # customer cardinality grows with the corpus => bucketed agg
    import pandas as pd

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", as_index=False).agg(
            min_price=("o_totalprice", "min"),
            max_price=("o_totalprice", "max"),
            n_orders=("o_totalprice", "count"))

    return bucketed_group_agg(ds, ["o_custkey"], per_bucket,
                              est_bytes=_table_bytes(sf_dir, "orders"))

SQL_MIN_PER_GROUP = (
    "SELECT o_custkey, MIN(o_totalprice) AS min_price, "
    "MAX(o_totalprice) AS max_price, COUNT(*) AS n_orders "
    "FROM orders GROUP BY o_custkey")


# --- A5: count ------------------------------------------------------------
def q_count_rows(sf_dir: str):
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey"])
    return pa.table({"n": pa.array([ds.count()], pa.int64())})

SQL_COUNT_ROWS = "SELECT COUNT(*) AS n FROM lineitem"


# --- text analysis: token counts (oracle-checked) ------------------------
def q_token_count(sf_dir: str):
    import pandas as pd
    from ..functions.text import token_count
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "n_tokens": token_count(df["text"]),
                             "n_chars_calc": df["text"].str.len()
                            .astype("int64")})

    return materialize_nonempty(
        ds.map_batches(counts, batch_format="pandas"),
        fallback_schema=pa.schema([(c, pa.int64()) for c in (
            "doc_id", "n_tokens", "n_chars_calc")]))

SQL_TOKEN_COUNT = (
    "SELECT doc_id, length(regexp_extract_all(text, '\\S+')) AS n_tokens, "
    "length(text) AS n_chars_calc FROM documents")


# --- text analysis: md5 fingerprint (oracle-checked) ---------------------
def q_fingerprint(sf_dir: str):
    import pandas as pd
    from ..functions.text import md5_fingerprint
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "fp": md5_fingerprint(df["text"])})

    return ds.map_batches(fp, batch_format="pandas")

SQL_FINGERPRINT = "SELECT doc_id, md5(text) AS fp FROM documents"


# --- text analysis: integer quality counts (oracle-checked) --------------
def q_quality_counts(sf_dir: str):
    import pandas as pd
    from ..functions.text import quality_counts
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def qc(df: pd.DataFrame) -> pd.DataFrame:
        out = quality_counts(df["text"])
        out.insert(0, "doc_id", df["doc_id"].values)
        return out

    return materialize_nonempty(
        ds.map_batches(qc, batch_format="pandas"),
        fallback_schema=pa.schema([(c, pa.int64()) for c in (
            "doc_id", "n_chars", "n_tokens", "n_alpha", "n_digit",
            "n_punct", "n_stopwords")]))

SQL_QUALITY_COUNTS = (
    "SELECT doc_id, length(text) AS n_chars, "
    "length(regexp_extract_all(text, '\\S+')) AS n_tokens, "
    "length(regexp_extract_all(text, '[A-Za-z]')) AS n_alpha, "
    "length(regexp_extract_all(text, '[0-9]')) AS n_digit, "
    "length(regexp_extract_all(text, '[^\\w\\s]')) AS n_punct, "
    "length(regexp_extract_all(lower(text), "
    "'\\b(?:a|and|in|is|it|of|that|the|to|you)\\b')) AS n_stopwords "
    "FROM documents")


# --- text analysis: BPE-ish subword token proxy (oracle-checked) ---------
def q_bpe_token_count(sf_dir: str):
    import pandas as pd
    from ..functions.text import bpe_ish_token_count
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "n_subtokens": bpe_ish_token_count(df["text"])})

    return ds.map_batches(counts, batch_format="pandas")

SQL_BPE_TOKEN_COUNT = (
    "SELECT doc_id, length(regexp_extract_all(text, "
    "'[A-Za-z0-9]+|[^\\sA-Za-z0-9]')) AS n_subtokens FROM documents")


# --- text analysis: winnowing-style rolling-hash fingerprint -------------
def q_rolling_fingerprint(sf_dir: str):
    import pandas as pd
    from ..functions.text import rolling_fingerprint
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "rfp": rolling_fingerprint(df["text"])
                            .astype("int64")})

    return ds.map_batches(fp, batch_format="pandas")
# (no SQL oracle: the rolling polynomial hash is not SQL-expressible)


# --- deterministic dataset split (train/val/test holdout) ----------------
def q_train_split(sf_dir: str):
    """Hash-deterministic ~80/10/10 split: bucket = first 8 hex chars
    of md5(doc_id-as-string) mod 100 — identical on any engine, stable
    under reshuffles/reruns (the training-data holdout pattern)."""
    import pandas as pd
    from ..functions.text import split_of_ids
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "split": split_of_ids(
                                 df["doc_id"].to_numpy())})

    return ds.map_batches(assign, batch_format="pandas")

SQL_TRAIN_SPLIT = (
    "SELECT doc_id, CASE WHEN b < 80 THEN 'train' "
    "WHEN b < 90 THEN 'val' ELSE 'test' END AS split FROM ("
    "SELECT doc_id, CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), "
    "1, 8)) AS BIGINT) % 100 AS b FROM documents)")


# --- corpus vocabulary: top-k tokens by occurrence -----------------------
def q_top_tokens(sf_dir: str, k: int = 100):
    """Corpus-wide token frequencies: per-batch occurrence counts
    (map-side combine), one groupby over (token) partials, then an
    in-cluster top-k fold (reduce.agg_topk) — no global
    sort, and the driver only ever sees the final k rows (never the
    vocabulary)."""
    from ..functions.text import token_rows
    ds = _read(sf_dir, "documents", columns=["text"])

    def counts(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(token_rows(t.column("text"))[1])
        return pa.table({"token": vc.field("values"),
                         "n": vc.field("counts")})

    # vocabulary-cardinality key => bucketed sum of the per-batch
    # partial counts, then the in-cluster top-k
    total = materialize_nonempty(bucketed_group_agg(
        ds.map_batches(counts, batch_format="pyarrow"), ["token"],
        lambda g: g.groupby("token", as_index=False)["n"].sum(),
        est_bytes=_table_bytes(sf_dir, "documents")),
        fallback_schema=pa.schema({"token": pa.string(), "n": pa.int64()}))
    return agg_topk(total, ["n", "token"], [False, True], k=k)

SQL_TOP_TOKENS = (
    "SELECT token, COUNT(*) AS n FROM ("
    "SELECT unnest(regexp_extract_all(text, '\\S+')) AS token "
    "FROM documents) GROUP BY token ORDER BY n DESC, token LIMIT 100")


# --- quality filter: the apply-the-score pipeline ------------------------
def q_quality_filter(sf_dir: str):
    """Documents passing integer-exact quality gates (length window +
    majority-alpha) — the filter stage a training pipeline runs after
    scoring; integer arithmetic keeps it engine-exact."""
    import pandas as pd
    from ..functions.text import quality_counts
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        q = quality_counts(df["text"])
        mask = ((q["n_chars"] >= 50) & (q["n_chars"] <= 20000)
                & (2 * q["n_alpha"] > q["n_chars"]))
        return pd.DataFrame({"doc_id": df["doc_id"][mask.to_numpy()]})

    return ds.map_batches(keep, batch_format="pandas")

SQL_QUALITY_FILTER = (
    "SELECT doc_id FROM ("
    "SELECT doc_id, length(text) AS n_chars, "
    "length(regexp_extract_all(text, '[A-Za-z]')) AS n_alpha "
    "FROM documents) "
    "WHERE n_chars >= 50 AND n_chars <= 20000 AND 2 * n_alpha > n_chars")


# --- semi-structured extraction: JSON field from the props column --------
def q_props_extract(sf_dir: str):
    """Pull the integer ``k`` field out of the JSON ``props`` column —
    the semi-structured web-data staple, here a vectorized regex (a
    real JSON kernel slots into the same map at scale)."""
    import pandas as pd
    ds = _read(sf_dir, "events", columns=["event_id", "props"])

    def ex(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].str.extract(r'"k"\s*:\s*(-?\d+)')[0].astype("int64")
        return pd.DataFrame({"event_id": df["event_id"], "k_val": k})

    return ds.map_batches(ex, batch_format="pandas")

SQL_PROPS_EXTRACT = (
    "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) "
    "AS k_val FROM events")


# --- cardinality: exact COUNT(DISTINCT) + HyperLogLog sketch -------------
def q_distinct_users_exact(sf_dir: str):
    """Exact distinct count: map-side unique per batch (combine), then
    the group count — only unique keys per batch ever shuffle."""
    ds = _read(sf_dir, "events", columns=["user_id"])
    uniq = ds.map_batches(
        lambda t: pa.table({"user_id": pc.unique(t.column("user_id"))}),
        batch_format="pyarrow")
    # user cardinality grows with the corpus => bucketed distinct
    # (each user lands in exactly one bucket, so the row count of the
    # bucketed-distinct dataset IS the global distinct count)
    distinct = bucketed_group_agg(
        uniq, ["user_id"],
        lambda g: g.drop_duplicates("user_id").reset_index(drop=True),
        est_bytes=16 * parquet_rows(f"{sf_dir}/events.parquet"))
    return pa.table({"n_users": pa.array([distinct.count()], pa.int64())})

SQL_DISTINCT_USERS = ("SELECT COUNT(DISTINCT user_id) AS n_users "
                      "FROM events")


def q_hll_distinct_users(sf_dir: str):
    """HyperLogLog distinct-count sketch (functions/sketch.py): each
    batch folds to a 4 KiB register array (the only worker output);
    register arrays max-merge IN-CLUSTER through a custom AggregateFn
    (reduce.agg_fold_blobs — max is associative+commutative, any
    merge tree gives the same array), so the driver sees exactly ONE
    blob regardless of batch count. Value-checked against a golden
    register array computed by the independent single-threaded oracle
    (golden.py)."""
    import pandas as pd
    from ..functions.sketch import estimate, merge_registers, registers_of
    from ..functions.text import sha1_u64
    ds = _read(sf_dir, "events", columns=["user_id"])

    def regs(t: pa.Table) -> pa.Table:
        h = sha1_u64(pd.Series(t.column("user_id").to_pylist()).astype(str))
        return pa.table({"regs": pa.array([registers_of(h).tobytes()],
                                          pa.binary())})

    blob = agg_fold_blobs(
        ds.map_batches(regs, batch_format="pyarrow"), "regs",
        lambda blobs: merge_registers(blobs).tobytes())
    est = estimate(merge_registers([blob]))  # exactly one 4 KiB blob
    return pa.table({"n_users_approx": pa.array([est], pa.float64())})
def q_exact_dedup(sf_dir: str):
    import pandas as pd
    from ..functions.text import md5_fingerprint
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pa.Table:
        return pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                         "fp": pa.array(md5_fingerprint(df["text"]),
                                        pa.string())})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("fp", as_index=False).agg(
            keeper_id=("doc_id", "min"), n_copies=("doc_id", "count"))

    # fingerprint cardinality == corpus size => bucketed aggregation,
    # never a raw-key groupby (reduce.bucketed_group_agg rationale);
    # shuffled rows are constant-width (fp + id), so the bucket count
    # sizes from the row count, not the text bytes
    return bucketed_group_agg(ds.map_batches(fp, batch_format="pandas"),
                              ["fp"], per_bucket,
                              est_bytes=48 * parquet_rows(
                                  f"{sf_dir}/documents.parquet"))

SQL_EXACT_DEDUP = (
    "SELECT md5(text) AS fp, MIN(doc_id) AS keeper_id, "
    "COUNT(*) AS n_copies FROM documents GROUP BY md5(text)")


# --- exact dedup, end to end: materialize the DEDUPLICATED corpus ---------
def q_exact_dedup_keep(sf_dir: str):
    """documents -> (doc_id, text) keeping the min-doc_id copy of each
    distinct text — WITHOUT the text ever riding the dedup shuffle:

      1. map_batches computes (doc_id, fp) only — constant-width rows;
      2. keeper selection shuffles those rows on hash(fp) % B salted
         buckets (B data-sized from the row count via buckets_for —
         never one Ray group per distinct text, never a fixed B) and
         keeps min doc_id per fp in-process;
      3. the keeper ids SEMI-JOIN back against the pruned source read
         to emit (doc_id, text) — the same pattern as
         dedupe.ngram_jaccard_verify. Texts of dropped duplicates are
         read but never shuffled as whole-bucket frames; surviving
         texts stream through bounded join partitions instead of a
         corpus/B-row map_groups frame.
    """
    import pandas as pd
    from ..functions.text import md5_fingerprint
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pa.Table:
        return pa.table({"doc_id": pa.array(df["doc_id"], pa.int64()),
                         "fp": pa.array(md5_fingerprint(df["text"]),
                                        pa.string())})

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values("doc_id")
                .drop_duplicates("fp", keep="first")[["doc_id"]]
                .reset_index(drop=True))

    keepers = materialize_nonempty(bucketed_group_agg(
        ds.map_batches(fp, batch_format="pandas"), ["fp"], keep_first,
        est_bytes=48 * parquet_rows(f"{sf_dir}/documents.parquet")))
    src = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return src.join(keepers.map_batches(
        lambda t: t.rename_columns(["keep_id"]), batch_format="pyarrow"),
        "left_semi",
        **join_sizing(_table_bytes(sf_dir, "documents")
                      + keepers.size_bytes()),
        on=("doc_id",), right_on=("keep_id",))


SQL_EXACT_DEDUP_KEEP = (
    "SELECT doc_id, text FROM ("
    "SELECT doc_id, text, "
    "MIN(doc_id) OVER (PARTITION BY md5(text)) AS keeper "
    "FROM documents) WHERE doc_id = keeper")


# --- semi / anti join: Ray-native shuffle semi/anti (both sides can be
# corpus-sized; a broadcast key set would cap at driver memory). The
# right side is map-side deduplicated to its distinct keys first, so
# the shuffle moves (key) rows, not the full table.
def q_semi_join(sf_dir: str):
    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    keys = _read(sf_dir, "orders", columns=["o_custkey"]).map_batches(
        lambda t: pa.TableGroupBy(t, "o_custkey").aggregate([]),
        batch_format="pyarrow")
    return ds.join(keys, "left_semi",
                   **join_sizing(_table_bytes(sf_dir, "customer")
                                 + _table_bytes(sf_dir, "orders")),
                   on=("c_custkey",), right_on=("o_custkey",))

SQL_SEMI_JOIN = ("SELECT c_custkey, c_name FROM customer "
                 "WHERE c_custkey IN (SELECT o_custkey FROM orders)")


def q_anti_join(sf_dir: str):
    """Orders with no lineitems (non-empty at every sf)."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])
    keys = _read(sf_dir, "lineitem", columns=["l_orderkey"]).map_batches(
        lambda t: pa.TableGroupBy(t, "l_orderkey").aggregate([]),
        batch_format="pyarrow")
    return ds.join(keys, "left_anti",
                   **join_sizing(_table_bytes(sf_dir, "orders")
                                 + _table_bytes(sf_dir, "lineitem")),
                   on=("o_orderkey",), right_on=("l_orderkey",))

SQL_ANTI_JOIN = ("SELECT o_orderkey, o_orderstatus FROM orders "
                 "WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)")


# --- as-of join (SURVEY "custom operators": groupby + in-group ordered
# scan; the running most-recent-purchase timestamp per user) -------------
def q_asof_join(sf_dir: str):
    import pandas as pd
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                          "event_type"])

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over the whole bucket: grouped cummax carries the
        # running most-recent purchase ts forward within each user
        # (NaT rows before the first purchase stay NULL, matching the
        # SQL window MAX over NULL-skipped rows)
        g = (g.sort_values(["user_id", "ts", "event_id"])
             .reset_index(drop=True))
        purchases = g["ts"].where(g["event_type"] == "purchase")
        uid = g["user_id"]
        # grouped cummax keeps NaT at non-purchase rows; grouped ffill
        # carries the running max forward within each user
        g["last_purchase_ts"] = (purchases.groupby(uid, sort=False)
                                 .cummax().groupby(uid, sort=False).ffill())
        return g[["event_id", "user_id", "ts", "last_purchase_ts"]]

    schema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("last_purchase_ts", pa.timestamp("us"))])
    return bucketed_group_agg(ds, ["user_id"], asof, schema=schema,
                              est_bytes=_table_bytes(sf_dir, "events"))

SQL_ASOF_JOIN = (
    "SELECT event_id, user_id, ts, "
    "MAX(CASE WHEN event_type = 'purchase' THEN ts END) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS UNBOUNDED PRECEDING) AS last_purchase_ts FROM events")


# --- range join (SURVEY "custom operators"): banded self-join ------------
RANGE_US = 5 * 60 * 1_000_000  # 5-minute proximity window


def q_event_pairs_range(sf_dir: str, groups: int | None = None):
    """Pairs of same-user events within 5 minutes of each other — a
    NON-EQUI (range) join done scalably by time banding: each event
    lands in bands {b, b+1} (band = ts // 5 min), candidates pair only
    within hashed (user, band) buckets, and a pair is counted exactly
    once in the bucket of max(band_a, band_b) (its unique shared
    band), then filtered by the exact |dt| <= 5 min predicate.
    No all-pairs blowup: work is proportional to events per band.
    Bucket count is data-sized (2x for the band-duplicated rows)."""
    import numpy as np
    import pandas as pd
    groups = groups or buckets_for(2 * _table_bytes(sf_dir, "events"))
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def explode(t: pa.Table) -> pa.Table:
        # normalize to us first: a ns-backed timestamp column (pandas-
        # written parquet) would otherwise band in ns units and shrink
        # the 5-minute window 1000x
        ts_us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")),
                        pa.int64()).to_numpy()
        band = ts_us // RANGE_US
        ev = np.tile(t.column("event_id").to_numpy(), 2)
        uid = np.tile(t.column("user_id").to_numpy(), 2)
        ts2 = np.tile(ts_us, 2)
        ob = np.tile(band, 2)
        probe = np.concatenate([band, band + 1])
        return pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "probe_band": pa.array(probe, pa.int64()),
            "orig_band": pa.array(ob, pa.int64()),
            "event_id": pa.array(ev, pa.int64()),
            "ts_us": pa.array(ts2, pa.int64()),
        })

    banded = ds.map_batches(explode, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over the whole bucket: (user, band) cells
        # become contiguous runs after the sort, and every within-run
        # (earlier, later) pair is expanded with repeat/arange — no
        # Python loop over cells, same per-band work bound as before
        empty = pd.DataFrame({"user_id": np.zeros(0, np.int64),
                              "ev_a": np.zeros(0, np.int64),
                              "ev_b": np.zeros(0, np.int64)})
        n = len(g)
        if n < 2:
            return empty
        g = (g.sort_values(["user_id", "probe_band", "event_id"],
                           kind="mergesort").reset_index(drop=True))
        uid = g["user_id"].to_numpy()
        band = g["probe_band"].to_numpy()
        ids = g["event_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        ob = g["orig_band"].to_numpy()
        new_seg = np.ones(n, dtype=bool)
        new_seg[1:] = (uid[1:] != uid[:-1]) | (band[1:] != band[:-1])
        seg_starts = np.flatnonzero(new_seg)
        seg_ends = np.append(seg_starts[1:], n)
        ends_per_row = seg_ends[np.cumsum(new_seg) - 1]
        counts = ends_per_row - np.arange(n) - 1
        total = int(counts.sum())
        if total == 0:
            return empty
        ia = np.repeat(np.arange(n), counts)
        run_start = np.cumsum(counts) - counts
        ib = np.arange(total) - np.repeat(run_start, counts) + ia + 1
        keep = ((np.abs(ts[ia] - ts[ib]) <= RANGE_US)
                & (np.maximum(ob[ia], ob[ib]) == band[ia]))
        return pd.DataFrame({"user_id": uid[ia][keep].astype("int64"),
                             "ev_a": ids[ia][keep].astype("int64"),
                             "ev_b": ids[ib][keep].astype("int64")})

    return bucketed_group_agg(banded, ["user_id", "probe_band"],
                              bucket_pairs, buckets=groups)

SQL_EVENT_PAIRS_RANGE = (
    "SELECT a.user_id, a.event_id AS ev_a, b.event_id AS ev_b "
    "FROM events a JOIN events b ON a.user_id = b.user_id "
    "AND a.event_id < b.event_id "
    "AND b.ts >= a.ts - INTERVAL '5 minutes' "
    "AND b.ts <= a.ts + INTERVAL '5 minutes'")


# --- set op: union all ---------------------------------------------------
def q_union_all(sf_dir: str):
    r = _read(sf_dir, "region", columns=["r_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow")
    n = _read(sf_dir, "nation", columns=["n_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow")
    return r.union(n)

SQL_UNION_ALL = ("SELECT r_name AS name FROM region "
                 "UNION ALL SELECT n_name AS name FROM nation")


# --- streaming-shaped: session windows (SURVEY §2.9; ray_guide
# "Streaming-shaped workloads": ordered, partitioned log + map_groups)
SESSION_GAP_US = 30 * 60 * 1_000_000


def q_sessionize(sf_dir: str):
    import pandas as pd
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over the whole bucket: grouped diff flags session
        # starts, grouped cumsum numbers sessions per user, one groupby
        # aggregates — no per-user Python loop
        g = (g.sort_values(["user_id", "ts", "event_id"])
             .reset_index(drop=True))
        uid = g["user_id"]
        gap = (g.groupby(uid, sort=False)["ts"].diff()
               .dt.total_seconds().mul(1_000_000))
        new_sess = (gap.isna() | (gap > SESSION_GAP_US)).astype("int64")
        g["session_id"] = new_sess.groupby(uid, sort=False).cumsum()
        out = g.groupby(["user_id", "session_id"], as_index=False,
                        sort=True).agg(
            n_events=("event_id", "count"),
            start_ts=("ts", "min"), end_ts=("ts", "max"))
        return out[["user_id", "session_id", "n_events",
                    "start_ts", "end_ts"]]

    return bucketed_group_agg(ds, ["user_id"], sessions,
                              est_bytes=_table_bytes(sf_dir, "events"))

SQL_SESSIONIZE = f"""
WITH flagged AS (
  SELECT user_id, event_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL '{SESSION_GAP_US}' MICROSECONDS
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), numbered AS (
  SELECT user_id, event_id, ts,
         CAST(SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM flagged
)
SELECT user_id, session_id, COUNT(*) AS n_events,
       MIN(ts) AS start_ts, MAX(ts) AS end_ts
FROM numbered GROUP BY user_id, session_id
"""


# --- streaming-shaped: tumbling window aggregate -------------------------
def q_tumbling_window(sf_dir: str):
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def windowed(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        t = t.append_column("window_start", hour)
        t = t.append_column("value_milli",
                            pc.cast(pc.round(pc.multiply(
                                t.column("value"), 1000.0)), pa.int64()))
        return t.select(["user_id", "window_start", "value_milli"])

    win = ds.map_batches(windowed, batch_format="pyarrow")
    # (user, window) cardinality grows with the corpus => bucketed agg
    return bucketed_group_agg(
        win, ["user_id", "window_start"],
        lambda g: g.groupby(["user_id", "window_start"],
                            as_index=False).agg(
            sum_value_milli=("value_milli", "sum"),
            n_events=("value_milli", "count")),
        est_bytes=_table_bytes(sf_dir, "events"))

SQL_TUMBLING_WINDOW = (
    "SELECT user_id, date_trunc('hour', ts) AS window_start, "
    "CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) "
    "AS sum_value_milli, "
    "COUNT(*) AS n_events FROM events "
    "GROUP BY user_id, date_trunc('hour', ts)")


# --- streaming-shaped: hopping (sliding) window aggregate ----------------
# 60-minute windows hopping every 15 minutes: each event lands in 4
# overlapping windows (vectorized 4-way expand, then the same partial
# pre-aggregation groupby as the tumbling window)
HOP_US = 15 * 60 * 1_000_000
HOPS_PER_WINDOW = 4


def q_hopping_window(sf_dir: str):
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def windows(t: pa.Table) -> pa.Table:
        base = pc.floor_temporal(t.column("ts"), multiple=15, unit="minute")
        vm = pc.cast(pc.round(pc.multiply(t.column("value"), 1000.0)),
                     pa.int64())
        parts = []
        for i in range(HOPS_PER_WINDOW):
            ws = pc.subtract(base, pa.scalar(i * HOP_US, pa.duration("us")))
            parts.append(pa.table({"user_id": t.column("user_id"),
                                   "window_start": ws,
                                   "value_milli": vm}))
        return pa.concat_tables(parts)

    win = ds.map_batches(windows, batch_format="pyarrow")
    return bucketed_group_agg(
        win, ["user_id", "window_start"],
        lambda g: g.groupby(["user_id", "window_start"],
                            as_index=False).agg(
            sum_value_milli=("value_milli", "sum"),
            n_events=("value_milli", "count")),
        est_bytes=HOPS_PER_WINDOW * _table_bytes(sf_dir, "events"))

SQL_HOPPING_WINDOW = (
    "SELECT user_id, "
    "time_bucket(INTERVAL '15 minutes', ts) - i * INTERVAL '15 minutes' "
    "AS window_start, "
    "CAST(SUM(CAST(ROUND(value * 1000) AS BIGINT)) AS BIGINT) "
    "AS sum_value_milli, COUNT(*) AS n_events "
    "FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS i) hops "
    "GROUP BY user_id, window_start")


# --- ranked top-N per group (ROW_NUMBER analogue) ------------------------
def q_top_orders_per_cust(sf_dir: str, n: int = 3):
    """Top-3 orders per customer by price with an explicit rank —
    the ROW_NUMBER window pattern, shuffled on hash(custkey) % B with
    data-sized B (per-key ranking in-process)."""
    import numpy as np
    import pandas as pd
    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over the whole bucket: one sort + grouped cumcount
        # ranks every customer's orders at once
        g = (g.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                           ascending=[True, False, True])
             .reset_index(drop=True))
        g["rn"] = g.groupby("o_custkey", sort=False).cumcount() + 1
        g["rn"] = g["rn"].astype("int64")
        return g[g["rn"] <= n].reset_index(drop=True)

    return bucketed_group_agg(ds, ["o_custkey"], topn,
                              est_bytes=_table_bytes(sf_dir, "orders"))

SQL_TOP_ORDERS_PER_CUST = (
    "SELECT o_custkey, o_orderkey, o_totalprice, rn FROM ("
    "SELECT o_custkey, o_orderkey, o_totalprice, "
    "ROW_NUMBER() OVER (PARTITION BY o_custkey "
    "ORDER BY o_totalprice DESC, o_orderkey) AS rn FROM orders) "
    "WHERE rn <= 3")


# --- grouped EXACT median via distributed histogram ----------------------
def _per_flag_cents(sf_dir: str, walk):
    """``walk(histogram) -> one-row DataFrame`` per l_returnflag over
    its exact (l_returnflag, cents, n) price histogram, sorted by
    cents, WITHOUT sorting the corpus: per-batch (flag, cents) partial
    counts -> one bucketed cell merge -> the per-flag walk INSIDE the
    cluster (map_groups over the fixed flag domain; each flag's
    histogram is bounded by its distinct cents values — the price
    domain, NOT the row count; nothing reaches the driver). The scale
    shape for exact order statistics over bounded-domain values
    (q_grouped_median, webops.q_grouped_p90); unbounded domains take
    the log-histogram sketch (extended.q_approx_quantiles)."""
    import numpy as np
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])

    def hist(t: pa.Table) -> pa.Table:
        t2 = pa.table({"l_returnflag": t.column("l_returnflag"),
                       "cents": _cents(t.column("l_extendedprice")),
                       "one": pa.array(np.ones(t.num_rows, np.int64))})
        return (pa.TableGroupBy(t2, ["l_returnflag", "cents"])
                .aggregate([("one", "sum")])
                .rename_columns(["l_returnflag", "cents", "n"]))

    # histogram-cell cardinality ~ distinct cents values => bucketed
    # partial-sum merge (each (flag, cents) cell lands in one bucket)
    hist_ds = bucketed_group_agg(
        ds.map_batches(hist, batch_format="pyarrow"),
        ["l_returnflag", "cents"],
        lambda g: g.groupby(["l_returnflag", "cents"],
                            as_index=False)["n"].sum(),
        domain_bound="histogram cells = returnflags x distinct cents "
                     "of the bounded price domain, not corpus rows")
    return hist_ds.groupby("l_returnflag").map_groups(
        lambda g: walk(g.sort_values("cents")), batch_format="pandas")


def q_grouped_median(sf_dir: str):
    """Exact per-group median of integer cents (``_per_flag_cents``)."""
    import numpy as np
    import pandas as pd

    def walk(g: pd.DataFrame) -> pd.DataFrame:
        vals = g["cents"].to_numpy()
        cum = np.cumsum(g["n"].to_numpy())
        total = int(cum[-1])
        lo = float(vals[np.searchsorted(cum, (total - 1) // 2 + 1)])
        hi = float(vals[np.searchsorted(cum, total // 2 + 1)])
        return pd.DataFrame({
            "l_returnflag": [g["l_returnflag"].iloc[0]],
            "median_price_cents": [(lo + hi) / 2.0]})  # DuckDB: interp.

    return _per_flag_cents(sf_dir, walk)

SQL_GROUPED_MEDIAN = (
    "SELECT l_returnflag, "
    "median(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) "
    "AS median_price_cents FROM lineitem GROUP BY l_returnflag")


QUERIES = {
    "lang_filter": q_lang_filter,
    "key_select": q_key_select,
    "topk_sort": q_topk_sort,
    "groupby_agg": q_groupby_agg,
    "broadcast_join": q_broadcast_join,
    "hash_join": q_hash_join,
    "window_fill": q_window_fill,
    "distinct_pairs": q_distinct_pairs,
    "min_per_group": q_min_per_group,
    "count_rows": q_count_rows,
    "token_count": q_token_count,
    "fingerprint": q_fingerprint,
    "quality_counts": q_quality_counts,
    "exact_dedup": q_exact_dedup,
    "exact_dedup_keep": q_exact_dedup_keep,
    "sessionize": q_sessionize,
    "tumbling_window": q_tumbling_window,
    "hopping_window": q_hopping_window,
    "top_orders_per_cust": q_top_orders_per_cust,
    "grouped_median": q_grouped_median,
    "bpe_token_count": q_bpe_token_count,
    "train_split": q_train_split,
    "top_tokens": q_top_tokens,
    "quality_filter": q_quality_filter,
    "props_extract": q_props_extract,
    "distinct_users_exact": q_distinct_users_exact,
    "hll_distinct_users": q_hll_distinct_users,
    "rolling_fingerprint": q_rolling_fingerprint,
    "semi_join": q_semi_join,
    "anti_join": q_anti_join,
    "asof_join": q_asof_join,
    "event_pairs_range": q_event_pairs_range,
    "union_all": q_union_all,
}

ORACLE_SQL = {
    "lang_filter": SQL_LANG_FILTER,
    "key_select": SQL_KEY_SELECT,
    "topk_sort": SQL_TOPK_SORT,
    "groupby_agg": SQL_GROUPBY_AGG,
    "broadcast_join": SQL_BROADCAST_JOIN,
    "hash_join": SQL_HASH_JOIN,
    "window_fill": SQL_WINDOW_FILL,
    "distinct_pairs": SQL_DISTINCT_PAIRS,
    "min_per_group": SQL_MIN_PER_GROUP,
    "count_rows": SQL_COUNT_ROWS,
    "token_count": SQL_TOKEN_COUNT,
    "fingerprint": SQL_FINGERPRINT,
    "quality_counts": SQL_QUALITY_COUNTS,
    "exact_dedup": SQL_EXACT_DEDUP,
    "exact_dedup_keep": SQL_EXACT_DEDUP_KEEP,
    "sessionize": SQL_SESSIONIZE,
    "tumbling_window": SQL_TUMBLING_WINDOW,
    "hopping_window": SQL_HOPPING_WINDOW,
    "top_orders_per_cust": SQL_TOP_ORDERS_PER_CUST,
    "grouped_median": SQL_GROUPED_MEDIAN,
    "bpe_token_count": SQL_BPE_TOKEN_COUNT,
    "train_split": SQL_TRAIN_SPLIT,
    "top_tokens": SQL_TOP_TOKENS,
    "quality_filter": SQL_QUALITY_FILTER,
    "props_extract": SQL_PROPS_EXTRACT,
    "distinct_users_exact": SQL_DISTINCT_USERS,
    "semi_join": SQL_SEMI_JOIN,
    "anti_join": SQL_ANTI_JOIN,
    "asof_join": SQL_ASOF_JOIN,
    "event_pairs_range": SQL_EVENT_PAIRS_RANGE,
    "union_all": SQL_UNION_ALL,
}
