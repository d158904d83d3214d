"""Round-4 web-corpus operator additions: pivoted per-key counts,
fixed-domain source stats, per-language vocabulary top-k, stratified
sampling, windowed distinct counts, corpus duplicate-shingle coverage,
and a mergeable count-min frequency sketch.

Same contract as pipelines/extended.py: every query has a DuckDB
oracle with identical column names/types (or an independent golden
for the sketch), and the shared scale rules hold — pruned reads,
partial aggregation before every shuffle, corpus-cardinality keys
bucketed on hash(key) % B with data-sized B (reduce.buckets_for),
fixed-small key domains summed by one fold (reduce.agg_group_sum).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import md5_bucket_of_ids, sha1_u64, token_rows
from .reduce import (agg_fold_blobs, agg_group_sum, agg_group_topk,
                     attach, broadcast_fits, bucketed_group_agg,
                     join_sizing, materialize_nonempty)
from .relational import _read, _table_bytes


def _count_by(t: pa.Table, name: str) -> pa.Table:
    """Occurrences of each distinct row of ``t``, as column ``name``."""
    return (t.group_by(t.column_names).aggregate([([], "count_all")])
            .select(t.column_names + ["count_all"])
            .rename_columns(t.column_names + [name]))


# --- pivoted per-user event-type counts ----------------------------------
# The event-type domain is part of the schema contract (5 values), so
# the pivot is a FIXED-width row: per-batch crosstab partials (one row
# per user per batch, 5 int columns), then one bucketed sum keyed on
# the corpus-cardinality user_id.
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_event_type_pivot(sf_dir: str):
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    cols = [f"n_{t}" for t in EVENT_TYPES]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(df["user_id"], df["event_type"])
        ct = ct.reindex(columns=list(EVENT_TYPES), fill_value=0)
        ct.columns = cols
        out = ct.reset_index()
        out[cols] = out[cols].astype("int64")
        return out

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"), ["user_id"],
        lambda g: g.groupby("user_id", as_index=False)[cols].sum(),
        est_bytes=_table_bytes(sf_dir, "events"))


SQL_EVENT_TYPE_PIVOT = (
    "SELECT user_id, "
    + ", ".join(f"COUNT(*) FILTER (WHERE event_type = '{t}') AS n_{t}"
                for t in EVENT_TYPES)
    + " FROM events GROUP BY user_id")


# --- per-source corpus stats ---------------------------------------------
def q_source_stats(sf_dir: str) -> pa.Table:
    """Per-source doc count / char volume / mean length — the
    per-domain health report of a crawl. Source is a fixed small
    domain, so one grouped sum folds it (reduce.agg_group_sum: <=
    n_sources rows per block ever shuffle); the mean is one exact-int
    division, bit-identical on any engine."""
    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])
    t = agg_group_sum(ds, ["source"],
                      {"n_docs": None, "total_chars": "n_chars"})
    return t.append_column("mean_chars", pc.divide(
        t.column("total_chars").cast(pa.float64()),
        t.column("n_docs").cast(pa.float64())))


SQL_SOURCE_STATS = (
    "SELECT source, COUNT(*) AS n_docs, "
    "CAST(SUM(n_chars) AS BIGINT) AS total_chars, "
    "CAST(SUM(n_chars) AS DOUBLE) / COUNT(*) AS mean_chars "
    "FROM documents GROUP BY source")


# --- per-language vocabulary top-k ---------------------------------------
def q_lang_top_tokens(sf_dir: str, k: int = 10):
    """Top-k tokens per language: per-batch (lang, token) partial
    counts, one bucketed sum over the vocabulary-cardinality key,
    then the single-shuffle per-group top-k fold (reduce.
    agg_group_topk — language is a fixed domain, so every fold state
    is <= langs x k rows and the driver sees only the final rows)."""
    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def counts(t: pa.Table) -> pa.Table:
        row, tok = token_rows(t.column("text"))
        return _count_by(pa.table({"lang": t.column("lang").take(row),
                                   "token": tok}), "n")

    total = materialize_nonempty(bucketed_group_agg(
        ds.map_batches(counts, batch_format="pyarrow"), ["lang", "token"],
        lambda g: g.groupby(["lang", "token"], as_index=False)["n"].sum(),
        est_bytes=_table_bytes(sf_dir, "documents")),
        fallback_schema=pa.schema({"lang": pa.string(),
                                   "token": pa.string(), "n": pa.int64()}))
    return agg_group_topk(total, ["lang"], ["n", "token"],
                          [False, True], k=k)


SQL_LANG_TOP_TOKENS = """
WITH c AS (
  SELECT lang, token, COUNT(*) AS n FROM (
    SELECT lang, unnest(regexp_extract_all(text, '\\S+')) AS token
    FROM documents) GROUP BY lang, token)
SELECT lang, token, n FROM (
  SELECT lang, token, n, ROW_NUMBER() OVER (
    PARTITION BY lang ORDER BY n DESC, token) AS rn FROM c)
WHERE rn <= 10
"""


# --- stratified (per-language) sampling ----------------------------------
# Rebalance the language mix: keep a per-language percentage via the
# deterministic md5 percentile bucket (functions.text.md5_bucket_of_ids
# — the train_split primitive). Map-only: no shuffle, stable under
# reruns/reshuffles, identical on any engine.
STRATA_PCT = {"en": 10, "es": 20, "fr": 20, "de": 20, "zh": 50}
STRATA_DEFAULT_PCT = 20


def q_stratified_sample(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        b = md5_bucket_of_ids(df["doc_id"].to_numpy())
        pct = (df["lang"].map(STRATA_PCT)
               .fillna(STRATA_DEFAULT_PCT).to_numpy(dtype=np.int64))
        keep = b < pct
        return df.loc[keep, ["doc_id", "lang"]]

    return ds.map_batches(pick, batch_format="pandas")


SQL_STRATIFIED_SAMPLE = (
    "SELECT doc_id, lang FROM ("
    "SELECT doc_id, lang, CAST(('0x' || substr(md5(CAST(doc_id AS "
    "VARCHAR)), 1, 8)) AS BIGINT) % 100 AS b FROM documents) "
    "WHERE b < CASE "
    + " ".join(f"WHEN lang = '{l}' THEN {p}"
               for l, p in STRATA_PCT.items())
    + f" ELSE {STRATA_DEFAULT_PCT} END")


# --- distinct users per tumbling window ----------------------------------
def q_window_distinct_users(sf_dir: str):
    """COUNT(DISTINCT user) per hour window: per-batch arrow distinct
    on (window, user) (map-side combine), bucketed pair-dedup keyed on
    the corpus-cardinality pair emitting per-window partial counts,
    then a bucketed sum over windows (window count grows with the time
    span — hundreds to thousands — and Ray's hash aggregate pays a
    per-GROUP cost, measured ~28 s for 720 windows at sf0.1 vs ~1 s
    bucketed). Raw user ids never reach the driver and never shuffle
    twice."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        tb = pa.table({"window_start": hour,
                       "user_id": t.column("user_id")})
        return tb.group_by(["window_start", "user_id"]).aggregate([])

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["window_start", "user_id"])
        out = d.groupby("window_start", as_index=False).size()
        out.columns = ["window_start", "n"]
        out["n"] = out["n"].astype("int64")
        return out

    partials = bucketed_group_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["window_start", "user_id"], bucket_counts,
        est_bytes=_table_bytes(sf_dir, "events"))

    def window_sum(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("window_start", as_index=False)["n"].sum()
        out.columns = ["window_start", "n_users"]
        out["n_users"] = out["n_users"].astype("int64")
        return out

    return bucketed_group_agg(
        partials, ["window_start"], window_sum,
        domain_bound="one partial row per (hour window, stage-1 "
                     "bucket): hours in the corpus time span, not "
                     "corpus rows")


SQL_WINDOW_DISTINCT_USERS = (
    "SELECT date_trunc('hour', ts) AS window_start, "
    "COUNT(DISTINCT user_id) AS n_users FROM events "
    "GROUP BY date_trunc('hour', ts)")


# --- corpus duplicate-shingle coverage -----------------------------------
# RefinedWeb-style duplicate-text metric: the fraction of a document's
# distinct word-5-grams that occur in >= 2 documents corpus-wide.
# Shape: gram rows shuffle ONCE (bucketed on hash(gram)), each bucket
# emits per-doc partial duplicate counts; per-doc totals are map-only;
# both partial streams union into one bucketed per-doc sum — no join,
# texts never enter a shuffle.
COVERAGE_N = 5


def q_dup_ngram_coverage(sf_dir: str, n: int = COVERAGE_N):
    from .extended import _word_ngrams
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    docs_bytes = _table_bytes(sf_dir, "documents")

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        return _word_ngrams(df, n)

    def dup_partials(g: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct per (doc, gram) by construction, so a
        # per-gram row count == distinct-doc count
        cnt = g.groupby("g")["doc_id"].transform("size")
        dup = g[cnt >= 2]
        out = dup.groupby("doc_id", as_index=False).size()
        out.columns = ["doc_id", "n_dup"]
        return pd.DataFrame({
            "doc_id": out["doc_id"].astype("int64"),
            "n_grams": np.zeros(len(out), dtype=np.int64),
            "n_dup": out["n_dup"].astype("int64"),
        })

    dupp = bucketed_group_agg(
        ds.map_batches(gram_rows, batch_format="pandas"), ["g"],
        dup_partials, est_bytes=docs_bytes * n)

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        per_doc = _word_ngrams(df, n).groupby("doc_id").size()
        tot = df["doc_id"].map(per_doc).fillna(0).to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "n_grams": tot,
            "n_dup": np.zeros(len(df), dtype=np.int64),
        })

    both = ds.map_batches(totals, batch_format="pandas").union(dupp)

    def per_doc_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("doc_id", as_index=False)[
            ["n_grams", "n_dup"]].sum()

    summed = bucketed_group_agg(both, ["doc_id"], per_doc_sum,
                                est_bytes=docs_bytes)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        tot = df["n_grams"].to_numpy(np.int64)
        dup = df["n_dup"].to_numpy(np.int64)
        frac = np.where(tot > 0,
                        dup.astype(np.float64)
                        / np.maximum(tot, 1).astype(np.float64), 0.0)
        return pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                             "n_grams": tot, "n_dup": dup,
                             "dup_frac": frac})

    return summed.map_batches(finish, batch_format="pandas")


SQL_DUP_NGRAM_COVERAGE = f"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
grams AS (
  SELECT DISTINCT doc_id,
    array_to_string(ws[i:i+{COVERAGE_N - 1}], ' ') AS g
  FROM toks, UNNEST(range(1, len(ws) - {COVERAGE_N - 2})) AS t(i)),
dup AS (SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2),
per AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
    CAST(COUNT(*) FILTER (WHERE g IN (SELECT g FROM dup)) AS BIGINT)
      AS n_dup
  FROM grams GROUP BY doc_id)
SELECT d.doc_id, COALESCE(p.n_grams, 0) AS n_grams,
  COALESCE(p.n_dup, 0) AS n_dup,
  CASE WHEN COALESCE(p.n_grams, 0) = 0 THEN 0.0
       ELSE CAST(p.n_dup AS DOUBLE) / p.n_grams END AS dup_frac
FROM documents d LEFT JOIN per p USING (doc_id)
"""


# --- per-key running total (cumulative window) ---------------------------
def q_running_total(sf_dir: str):
    """Per-user cumulative value over event-time order — the
    SUM(...) OVER (PARTITION BY key ORDER BY ts ROWS UNBOUNDED
    PRECEDING) shape. Shuffled once on hash(user)%B with data-sized B
    (reduce.bucketed_group_agg); the in-bucket work is one sort +
    one grouped cumsum, fully vectorized. Values ride as exact
    milli-units (int64) so the running sum is bit-identical on any
    engine and any bucket count."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def cum(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["user_id", "ts", "event_id"])
             .reset_index(drop=True))
        # explicit half-up rule (floor(x+0.5)) — pandas .round() is
        # banker's, DuckDB ROUND() half-away; products landing exactly
        # on .5 milli would diverge and cascade through the cumsum
        milli = pd.Series(
            np.floor(g["value"].to_numpy() * 1000.0 + 0.5)).astype("int64")
        g["cum_value_milli"] = milli.groupby(
            g["user_id"], sort=False).cumsum()
        return g[["event_id", "user_id", "ts", "cum_value_milli"]]

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("cum_value_milli", pa.int64())])
    return bucketed_group_agg(ds, ["user_id"], cum, schema=schema,
                              est_bytes=_table_bytes(sf_dir, "events"))


SQL_RUNNING_TOTAL = (
    "SELECT event_id, user_id, ts, "
    "CAST(SUM(CAST(FLOOR(value * 1000 + 0.5) AS BIGINT)) OVER ("
    "PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) "
    "AS cum_value_milli FROM events")


# --- exact per-group p90 (discrete) --------------------------------------
# The same price histogram as relational.q_grouped_median
# (relational._per_flag_cents); only the rank walk differs. The rank
# rule is self-specified —
# value at 1-based rank ceil(0.9 * n) within the cents ordering —
# and shared verbatim with the ROW_NUMBER SQL oracle (DuckDB's
# quantile_disc rank rule is not documented bit-exactly, so the
# contract pins its own).
P90_Q = 0.9


def q_grouped_p90(sf_dir: str):
    from .relational import _per_flag_cents

    def walk(g: pd.DataFrame) -> pd.DataFrame:
        vals = g["cents"].to_numpy()
        cum = np.cumsum(g["n"].to_numpy())
        rank = int(np.ceil(P90_Q * int(cum[-1])))
        v = int(vals[np.searchsorted(cum, rank)])
        return pd.DataFrame({"l_returnflag": [g["l_returnflag"].iloc[0]],
                             "p90_cents": np.array([v], np.int64)})

    return _per_flag_cents(sf_dir, walk)


SQL_GROUPED_P90 = f"""
WITH t AS (
  SELECT l_returnflag, CAST(ROUND(l_extendedprice * 100) AS BIGINT)
    AS cents FROM lineitem),
r AS (
  SELECT l_returnflag, cents,
    ROW_NUMBER() OVER (PARTITION BY l_returnflag ORDER BY cents) AS rn,
    COUNT(*) OVER (PARTITION BY l_returnflag) AS n
  FROM t)
SELECT l_returnflag, cents AS p90_cents FROM r
WHERE rn = CAST(CEIL({P90_Q} * n) AS BIGINT)
"""


# --- per-section crawl stats over the pages corpus -----------------------
# The "which part of the crawl is heavy" report: pages grouped by the
# second URL path segment. The regex is shared VERBATIM with the
# DuckDB RE2 oracle (subset syntax where Python re and RE2 agree).
URL_SECTION_RE = r"^https?://[^/]+/[^/]+/([^/]+)/"


def url_section_stats(corpus: str) -> pa.Table:
    """(section, n_pages, total_bytes) over the page corpus — section
    domain is the URL layout's case-family set (fixed small), so one
    grouped sum folds it (reduce.agg_group_sum); blob bytes are
    measured, never moved."""
    from ..sources.pages import read_pages

    def sections(t: pa.Table) -> pa.Table:
        sec = (t.column("url").to_pandas()
               .str.extract(URL_SECTION_RE, expand=False).fillna(""))
        return pa.table({"section": pa.array(sec, pa.string()),
                         "b": pc.binary_length(t.column("html"))
                         .cast(pa.int64())})

    return agg_group_sum(read_pages(corpus, columns=["url", "html"]),
                         ["section"], {"n_pages": None, "total_bytes": "b"},
                         of_batch=sections)


def sql_url_section_stats(corpus: str) -> str:
    return (
        "SELECT COALESCE(regexp_extract(url, "
        f"'{URL_SECTION_RE}', 1), '') AS section, "
        "COUNT(*) AS n_pages, "
        "CAST(SUM(octet_length(html)) AS BIGINT) AS total_bytes "
        f"FROM read_parquet('{corpus}/pages/*.parquet') "
        "GROUP BY 1")


# --- per-source duplicate-rate report -------------------------------------
def q_dup_rate_by_source(sf_dir: str, n: int = COVERAGE_N) -> pa.Table:
    """The "which crawl source is full of boilerplate" report:
    corpus duplicate-shingle counts rolled up per source. Composition
    of the dup_ngram_coverage machinery — the source label rides the
    per-doc partial rows through the same two shuffles (20 interned
    strings, no extra join), then one fixed-domain sum; the rate is
    exact-int division."""
    from .extended import _word_ngrams
    ds = _read(sf_dir, "documents",
               columns=["doc_id", "source", "text"])
    docs_bytes = _table_bytes(sf_dir, "documents")

    def gram_rows(df: pd.DataFrame) -> pd.DataFrame:
        g = _word_ngrams(df[["doc_id", "text"]], n)
        src = df.set_index("doc_id")["source"]
        g["source"] = g["doc_id"].map(src)
        return g

    def dup_partials(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby("g")["doc_id"].transform("size")
        dup = g[cnt >= 2]
        out = (dup.groupby("source", as_index=False).size())
        out.columns = ["source", "n_dup"]
        return pd.DataFrame({
            "source": out["source"],
            "n_grams": np.zeros(len(out), dtype=np.int64),
            "n_dup": out["n_dup"].astype("int64"),
        })

    dupp = bucketed_group_agg(
        ds.map_batches(gram_rows, batch_format="pandas"), ["g"],
        dup_partials, est_bytes=docs_bytes * n)

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        g = _word_ngrams(df[["doc_id", "text"]], n)
        per_doc = g.groupby("doc_id").size()
        tot = df["doc_id"].map(per_doc).fillna(0).to_numpy(np.int64)
        return pd.DataFrame({
            "source": df["source"],
            "n_grams": tot,
            "n_dup": np.zeros(len(df), dtype=np.int64),
        })

    both = ds.map_batches(totals, batch_format="pandas").union(dupp)
    t = agg_group_sum(both, ["source"], {"n_grams": "n_grams",
                                         "n_dup": "n_dup"},
                      of_batch=lambda t: t.cast(pa.schema({
                          "source": pa.string(), "n_grams": pa.int64(),
                          "n_dup": pa.int64()})))
    tot, dup = t.column("n_grams").to_numpy(), t.column("n_dup").to_numpy()
    rate = np.where(tot > 0, dup.astype(np.float64)
                    / np.maximum(tot, 1).astype(np.float64), 0.0)
    return t.append_column("dup_rate", pa.array(rate, pa.float64()))


SQL_DUP_RATE_BY_SOURCE = f"""
WITH toks AS (
  SELECT doc_id, source, string_split(text, ' ') AS ws FROM documents),
grams AS (
  SELECT DISTINCT doc_id, source,
    array_to_string(ws[i:i+{COVERAGE_N - 1}], ' ') AS g
  FROM toks, UNNEST(range(1, len(ws) - {COVERAGE_N - 2})) AS t(i)),
dup AS (SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2),
per AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_grams,
    CAST(COUNT(*) FILTER (WHERE g IN (SELECT g FROM dup)) AS BIGINT)
      AS n_dup
  FROM grams GROUP BY source)
SELECT s.source, COALESCE(p.n_grams, 0) AS n_grams,
  COALESCE(p.n_dup, 0) AS n_dup,
  CASE WHEN COALESCE(p.n_grams, 0) = 0 THEN 0.0
       ELSE CAST(p.n_dup AS DOUBLE) / p.n_grams END AS dup_rate
FROM (SELECT DISTINCT source FROM documents) s LEFT JOIN per p
  USING (source)
"""


# --- bounded-frame rolling window -----------------------------------------
# SUM OVER (ROWS N-1 PRECEDING .. CURRENT ROW) — the moving-average
# family; distinct from running_total's unbounded frame. Same single
# bucketed per-user shuffle; exact milli-unit ints keep the window sum
# engine-exact under any bucket count.
ROLLING_N = 3


def q_rolling_sum(sf_dir: str, n: int = ROLLING_N):
    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["user_id", "ts", "event_id"])
             .reset_index(drop=True))
        # same explicit half-up milli rule as q_running_total
        milli = pd.Series(
            np.floor(g["value"].to_numpy() * 1000.0 + 0.5)).astype("int64")
        g["roll_value_milli"] = (
            milli.groupby(g["user_id"], sort=False)
            .rolling(n, min_periods=1).sum()
            .reset_index(level=0, drop=True).astype("int64"))
        return g[["event_id", "user_id", "ts", "roll_value_milli"]]

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("roll_value_milli", pa.int64())])
    return bucketed_group_agg(ds, ["user_id"], roll, schema=schema,
                              est_bytes=_table_bytes(sf_dir, "events"))


SQL_ROLLING_SUM = (
    "SELECT event_id, user_id, ts, "
    "CAST(SUM(CAST(FLOOR(value * 1000 + 0.5) AS BIGINT)) OVER ("
    f"PARTITION BY user_id ORDER BY ts, event_id "
    f"ROWS BETWEEN {ROLLING_N - 1} PRECEDING AND CURRENT ROW) "
    "AS BIGINT) AS roll_value_milli FROM events")


# --- forward as-of join ----------------------------------------------------
def q_asof_join_forward(sf_dir: str):
    """The FORWARD direction of relational.q_asof_join: each event's
    NEXT purchase timestamp at-or-after it (lead-looking as-of).
    Same single bucketed per-user shuffle; the in-bucket work is a
    reversed grouped cummin + reversed grouped ffill — vectorized,
    no per-user Python."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                          "event_type"])

    def asof_fwd(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["user_id", "ts", "event_id"])
             .reset_index(drop=True))
        purchases = g["ts"].where(g["event_type"] == "purchase")
        rid = g.index[::-1]
        uid_rev = g["user_id"].loc[rid]
        nxt = (purchases.loc[rid].groupby(uid_rev, sort=False).cummin()
               .groupby(uid_rev, sort=False).ffill()).loc[g.index]
        g["next_purchase_ts"] = nxt
        return g[["event_id", "user_id", "ts", "next_purchase_ts"]]

    schema = pa.schema([("event_id", pa.int64()),
                        ("user_id", pa.int64()),
                        ("ts", pa.timestamp("us")),
                        ("next_purchase_ts", pa.timestamp("us"))])
    return bucketed_group_agg(ds, ["user_id"], asof_fwd, schema=schema,
                              est_bytes=_table_bytes(sf_dir, "events"))


SQL_ASOF_JOIN_FORWARD = (
    "SELECT event_id, user_id, ts, "
    "MIN(CASE WHEN event_type = 'purchase' THEN ts END) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) "
    "AS next_purchase_ts FROM events")


# --- ordered-event funnel (windowFunnel shape) ---------------------------
# Per-user funnel depth over the strict event order view -> click ->
# purchase, with the whole sequence constrained to FUNNEL_WINDOW_US of
# the first view (the ClickHouse windowFunnel contract: each later
# stage strictly after the previous stage's first occurrence and
# within the window anchored at stage 1). One bucketed shuffle on
# hash(user); the in-bucket work is three masked grouped mins —
# vectorized, no per-user Python.
FUNNEL_STAGES = ("view", "click", "purchase")
FUNNEL_WINDOW_US = 3_600_000_000  # 1 hour


def q_window_funnel(sf_dir: str):
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    win = pd.Timedelta(microseconds=FUNNEL_WINDOW_US)

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        t1 = (g.loc[g["event_type"] == FUNNEL_STAGES[0]]
              .groupby("user_id")["ts"].min())
        r1 = g["user_id"].map(t1)
        deadline = r1 + win
        t2 = (g.loc[(g["event_type"] == FUNNEL_STAGES[1])
                    & (g["ts"] > r1) & (g["ts"] <= deadline)]
              .groupby("user_id")["ts"].min())
        r2 = g["user_id"].map(t2)
        t3 = (g.loc[(g["event_type"] == FUNNEL_STAGES[2])
                    & (g["ts"] > r2) & (g["ts"] <= deadline)]
              .groupby("user_id")["ts"].min())
        users = pd.Index(g["user_id"].unique(), name="user_id")
        depth = (users.isin(t1.index).astype("int64")
                 + users.isin(t2.index).astype("int64")
                 + users.isin(t3.index).astype("int64"))
        return pd.DataFrame({"user_id": users.to_numpy(),
                             "funnel_depth": depth})

    schema = pa.schema([("user_id", pa.int64()),
                        ("funnel_depth", pa.int64())])
    return bucketed_group_agg(ds, ["user_id"], funnel, schema=schema,
                              est_bytes=_table_bytes(sf_dir, "events"))


SQL_WINDOW_FUNNEL = f"""
WITH v AS (
  SELECT user_id, MIN(ts) AS t1 FROM events
  WHERE event_type = '{FUNNEL_STAGES[0]}' GROUP BY user_id),
c AS (
  SELECT e.user_id, MIN(ts) AS t2 FROM events e JOIN v USING (user_id)
  WHERE event_type = '{FUNNEL_STAGES[1]}' AND ts > t1
    AND ts <= t1 + INTERVAL '{FUNNEL_WINDOW_US}' MICROSECONDS
  GROUP BY e.user_id),
p AS (
  SELECT e.user_id, MIN(e.ts) AS t3
  FROM events e JOIN c USING (user_id) JOIN v USING (user_id)
  WHERE event_type = '{FUNNEL_STAGES[2]}' AND e.ts > t2
    AND e.ts <= t1 + INTERVAL '{FUNNEL_WINDOW_US}' MICROSECONDS
  GROUP BY e.user_id)
SELECT u.user_id,
  CASE WHEN t3 IS NOT NULL THEN 3 WHEN t2 IS NOT NULL THEN 2
       WHEN t1 IS NOT NULL THEN 1 ELSE 0 END AS funnel_depth
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN v USING (user_id) LEFT JOIN c USING (user_id)
LEFT JOIN p USING (user_id)
"""


# --- BM25 ranked retrieval ------------------------------------------------
# Okapi BM25 (Lucene idf variant) for a fixed query-term contract over
# the documents table. Scale shape: corpus stats (N, total length, one
# df per query term) fold to a SINGLE int64 blob in-cluster; the blob
# broadcasts into a map-only scoring pass; the top-k folds through
# agg_topk. Nothing corpus-sized shuffles and the driver sees k rows.
# The float formula (term fold order included) is the determinism
# contract with golden.golden_bm25_search.
BM25_TERMS = ("data", "table", "window")
BM25_K1 = 1.2
BM25_B = 0.75
BM25_K = 20


def q_bm25_search(sf_dir: str, k: int = BM25_K):
    from .reduce import agg_topk
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    nt = len(BM25_TERMS)

    def dl_tf(t: pa.Table):   # per-doc length, per-term frequencies
        row, tok = token_rows(t.column("text"))
        return np.bincount(row, minlength=t.num_rows), [np.bincount(
            row, pc.equal(tok, term).to_numpy(zero_copy_only=False),
            t.num_rows) for term in BM25_TERMS]

    def stats(t: pa.Table) -> pa.Table:
        dl, tfs = dl_tf(t)
        arr = np.array([t.num_rows, dl.sum()]
                       + [np.count_nonzero(tf) for tf in tfs], np.int64)
        return pa.table({"s": pa.array([arr.tobytes()], pa.binary())})

    def merge(blobs) -> bytes:
        out = np.zeros(2 + nt, dtype=np.int64)
        for b in blobs:
            out += np.frombuffer(b, dtype=np.int64)
        return out.tobytes()

    st = np.frombuffer(
        agg_fold_blobs(ds.map_batches(stats, batch_format="pyarrow"),
                       "s", merge), dtype=np.int64)
    n_docs, total_len = int(st[0]), int(st[1])
    avgdl = np.float64(total_len) / np.float64(max(n_docs, 1))
    idf = np.log((n_docs - st[2:].astype(np.float64) + 0.5)
                 / (st[2:].astype(np.float64) + 0.5) + 1.0)

    def score(t: pa.Table) -> pa.Table:
        dl, tfs = dl_tf(t)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
        s = np.zeros(t.num_rows, dtype=np.float64)
        for i, tf in enumerate(tfs):  # left fold: determinism
            s = s + idf[i] * (tf * (BM25_K1 + 1.0)) / (tf + norm)
        s = np.round(s, 6)
        keep = s > 0
        return pa.table({"doc_id": t.column("doc_id").filter(keep),
                         "score": pa.array(s[keep], pa.float64())})

    scored = materialize_nonempty(
        ds.map_batches(score, batch_format="pyarrow"),
        fallback_schema=pa.schema({"doc_id": pa.int64(),
                                   "score": pa.float64()}))
    top = agg_topk(scored, ["score", "doc_id"], [False, True], k=k)
    return top.select(["doc_id", "score"])


# --- unigram LM negative log-likelihood ----------------------------------
# CCNet-style language-model quality signal: per-doc mean -log p(tok)
# under the corpus's own add-one-smoothed unigram model. Scale shape:
# the model is (tok, count) rows reduced through the salted-bucket
# sum; a model that passes reduce's byte gate broadcasts as a
# (tok -> logp) map into a MAP-ONLY scoring pass over the raw text
# (zero-token docs need no shuffle), a larger one joins and reduces
# per doc through the bucketed sum. Determinism
# contract with golden.golden_unigram_logprob: contributions fold in
# (doc, token-sorted) order via np.add.reduceat (sequential within a
# segment), logp = log((c+1)/(total+V)) — one division then np.log.


def _unigram_counts(t: pa.Table) -> pa.Table:
    """(doc_id, tok, c): occurrences of each token in each doc."""
    row, tok = token_rows(t.column("text"))
    return _count_by(pa.table({"doc_id": t.column("doc_id").take(row),
                               "tok": tok}), "c")


def _nll_rows(doc_ids, toks, cs, logp, all_docs) -> pd.DataFrame:
    """(doc, tok, c, logp) rows -> per-doc (n_tokens, nll_per_tok);
    docs absent from the rows (zero tokens) emit (0, 0.0)."""
    frame = pd.DataFrame({"doc_id": doc_ids, "tok": toks, "c": cs,
                          "lp": logp})
    frame = frame.sort_values(["doc_id", "tok"], kind="mergesort",
                              ignore_index=True)
    d = frame["doc_id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]][:len(d)])
    contrib = frame["c"].to_numpy(np.float64) * (-frame["lp"].to_numpy())
    sums = np.add.reduceat(contrib, starts)
    ntok = np.add.reduceat(frame["c"].to_numpy(np.int64), starts)
    out = pd.DataFrame({"doc_id": d[starts].astype(np.int64),
                        "n_tokens": ntok.astype("int64"),
                        "nll_per_tok": np.round(
                            sums / np.maximum(ntok, 1), 6)})
    missing = np.setdiff1d(np.asarray(all_docs, dtype=np.int64),
                           out["doc_id"].to_numpy())
    if len(missing):
        out = pd.concat([out, pd.DataFrame({
            "doc_id": missing,
            "n_tokens": np.zeros(len(missing), np.int64),
            "nll_per_tok": np.zeros(len(missing))})],
            ignore_index=True)
    return out


def q_unigram_logprob(sf_dir: str):
    import ray
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    docs_bytes = _table_bytes(sf_dir, "documents")
    counts = materialize_nonempty(
        ds.map_batches(_unigram_counts, batch_format="pyarrow"))
    model = materialize_nonempty(bucketed_group_agg(
        counts, ["tok"],
        lambda g: g.groupby("tok", as_index=False)["c"].sum(),
        est_bytes=docs_bytes),
        fallback_schema=pa.schema({"tok": pa.string(), "c": pa.int64()}))
    vocab_n = model.count()
    if broadcast_fits(model.size_bytes()):
        tab = pa.concat_tables(ray.get(model.to_arrow_refs()))
        keys = tab.column("tok").to_numpy(zero_copy_only=False)
        order = np.argsort(keys)
        n = tab.column("c").to_numpy()[order].astype(np.float64)
        total = np.float64(int(n.sum()))
        logp = np.log((n + 1.0) / (total + np.float64(vocab_n)))
        ref = ray.put((keys[order], logp))

        def score(t: pa.Table) -> pd.DataFrame:
            k, lp = ray.get(ref)
            cnt = _unigram_counts(t)
            tok = cnt.column("tok").to_numpy(zero_copy_only=False)
            return _nll_rows(cnt.column("doc_id").to_numpy(), tok,
                             cnt.column("c").to_numpy(),
                             lp[np.searchsorted(k, tok)],
                             t.column("doc_id").to_numpy())

        return materialize_nonempty(
            ds.map_batches(score, batch_format="pyarrow"),
            fallback_schema=pa.schema({"doc_id": pa.int64(),
                                       "n_tokens": pa.int64(),
                                       "nll_per_tok": pa.float64()}))
    # large-vocabulary path: logp attaches by join, per-doc folds
    # reduce through the bucketed sum keyed on doc_id
    total = model.sum("c")

    def with_lp(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy().astype(np.float64)
        lp = np.log((c + 1.0)
                    / (np.float64(total) + np.float64(vocab_n)))
        return t.append_column("lp", pa.array(lp, pa.float64()))

    j = counts.join(model.map_batches(with_lp, batch_format="pyarrow")
                    .map_batches(lambda t: t.select(["tok", "lp"])
                                 .rename_columns(["mtok", "lp"]),
                                 batch_format="pyarrow"),
                    "inner",
                    **join_sizing(counts.size_bytes() + model.size_bytes()),
                    on=("tok",), right_on=("mtok",))

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        return _nll_rows(g["doc_id"].to_numpy(), g["tok"],
                         g["c"].to_numpy(), g["lp"].to_numpy(), [])

    scored = bucketed_group_agg(j, ["doc_id"], per_doc,
                                est_bytes=docs_bytes)
    ids = ds.select_columns(["doc_id"])
    scored = materialize_nonempty(scored)
    out = ids.join(scored, "left_outer",
                   **join_sizing(docs_bytes + scored.size_bytes()),
                   on=("doc_id",))

    def fill(t: pa.Table) -> pa.Table:
        z64 = pa.scalar(0, pa.int64())
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_tokens": pc.coalesce(t.column("n_tokens"),
                                    z64).cast(pa.int64()),
            "nll_per_tok": pc.coalesce(t.column("nll_per_tok"),
                                       pa.scalar(0.0, pa.float64())),
        })

    return out.map_batches(fill, batch_format="pyarrow")


# --- count-min token-frequency sketch ------------------------------------
# Probe tokens are a fixed contract (the "which phrases are exploding"
# monitoring query); 'quantum' is deliberately absent from the corpus
# so the zero path stays covered.
CMS_PROBES = ("the", "data", "value", "table", "spark", "window",
              "quantum")


def q_cms_token_counts(sf_dir: str):
    """Token-frequency point estimates from a count-min sketch
    (functions/sketch.py): each batch folds its token occurrence
    counts into a fixed 256 KiB int64 grid — the ONLY thing that
    leaves a worker — grids sum-merge IN-CLUSTER through the
    AggregateFn blob fold (exact int64 addition: associative +
    commutative, any merge tree is bit-identical), and the driver
    probes the final grid once. Value-checked against the independent
    single-threaded oracle (golden.golden_cms_token_counts)."""
    from ..functions.sketch import cms_merge, cms_of, cms_query
    ds = _read(sf_dir, "documents", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(token_rows(t.column("text"))[1])
        grid = cms_of(sha1_u64(vc.field("values").to_pylist()),
                      vc.field("counts").to_numpy())
        return pa.table({"cms": pa.array([grid.tobytes()], pa.binary())})

    blob = agg_fold_blobs(
        ds.map_batches(partial, batch_format="pyarrow"), "cms",
        lambda blobs: cms_merge(blobs).tobytes())
    grid = cms_merge([blob])
    est = cms_query(grid, sha1_u64(CMS_PROBES))
    return pa.table({"token": pa.array(list(CMS_PROBES), pa.string()),
                     "est_n": pa.array(est, pa.int64())})


# --- inverse document frequency table ------------------------------------
def q_idf_table(sf_dir: str):
    """Per-token document frequency + BM25-style smoothed idf over the
    corpus — the reusable statistic every retrieval / tf-idf / quality
    stage needs. Scale shape: one doc is one row, so per-batch DISTINCT
    tokens per doc are globally correct partials; (token, df) partial
    counts reduce through the data-sized bucketed sum, then idf is a
    map-only formula. Float parity with the SQL oracle: exact-int df
    and n_docs, ONE division inside the log, round 6."""
    from .reduce import parquet_rows
    ds = _read(sf_dir, "documents", columns=["text"])
    n_docs = parquet_rows(f"{sf_dir}/documents.parquet")

    def dfreq(t: pa.Table) -> pa.Table:
        row, tok = token_rows(t.column("text"))
        pairs = pa.table({"row": row, "token": tok})
        return _count_by(pairs.group_by(["row", "token"]).aggregate([])
                         .select(["token"]), "df")

    total = bucketed_group_agg(
        ds.map_batches(dfreq, batch_format="pyarrow"), ["token"],
        lambda g: g.groupby("token", as_index=False)["df"].sum(),
        est_bytes=_table_bytes(sf_dir, "documents"))

    def idf(t: pa.Table) -> pa.Table:
        d = t.column("df").to_numpy().astype(np.float64)
        v = np.round(np.log(1.0 + (np.float64(n_docs) - d + 0.5)
                            / (d + 0.5)), 6)
        return pa.table({"token": t.column("token"),
                         "df": t.column("df").cast(pa.int64()),
                         "idf": pa.array(v, pa.float64())})

    # materialize_nonempty: EMPTY pandas blocks from the bucketed agg
    # pass through the pyarrow map unconverted (ray 2.49) and break
    # to_arrow_refs consumers — scrub the driver-facing tail
    return materialize_nonempty(
        total.map_batches(idf, batch_format="pyarrow"),
        fallback_schema=pa.schema([("token", pa.string()),
                                   ("df", pa.int64()),
                                   ("idf", pa.float64())]))


SQL_IDF_TABLE = """
WITH d AS (
  SELECT unnest(list_distinct(regexp_extract_all(text, '\\S+')))
    AS token FROM documents),
c AS (SELECT token, COUNT(*) AS df FROM d GROUP BY token),
n AS (SELECT COUNT(*) AS v FROM documents)
SELECT token, df,
  ROUND(LN(1 + (CAST(n.v AS DOUBLE) - df + 0.5) / (df + 0.5)), 6) AS idf
FROM c CROSS JOIN n
"""


# --- bigram PMI (collocation mining) --------------------------------------
# pointwise mutual information of adjacent token pairs: the classic
# collocation / multi-word-expression signal a tokenizer-training or
# phrase-mining pass computes over the whole corpus.
PMI_MIN_COUNT = 5
PMI_TOP_K = 50


def _bigram_and_token_counts(t: pa.Table) -> pa.Table:
    """ONE text scan emits both count families in one keyed frame:
    bigram rows (w1, w2, n) of adjacent tokens in one doc (equal
    ``row``) and unigram rows (w1=token, w2=null, n) — a token is never
    null, so the families never collide. Both then reduce through a
    SINGLE bucketed sum keyed on (w1, w2) (dropna=False)."""
    row, tok = token_rows(t.column("text"))
    i = np.flatnonzero(row[1:] == row[:-1])
    big = pa.table({"w1": tok.take(i), "w2": tok.take(i + 1)})
    uni = pa.table({"w1": tok, "w2": pa.nulls(len(tok), pa.string())})
    return pa.concat_tables([_count_by(big, "n"), _count_by(uni, "n")])


def q_bigram_pmi(sf_dir: str, k: int = PMI_TOP_K,
                 min_count: int = PMI_MIN_COUNT):
    """Top-k adjacent-bigram PMI with a min-count support filter.
    Scale shape: bigram and unigram occurrence counts reduce through
    data-sized bucketed sums (vocabulary-cardinality keys); unigram
    counts attach to the filtered candidates on both words through
    ``reduce.attach`` (a broadcast below its byte gate, two hash joins
    above it); the driver only ever sees the final k rows (agg_topk).
    Determinism: pmi rounds to 6 dp and the SQL oracle mirrors the
    exact float expression shape ((n_ab*T1)*T1)/((T2*n_a)*n_b) —
    exact-int counts, one division."""
    from .reduce import agg_topk
    ds = _read(sf_dir, "documents", columns=["text"])
    docs_bytes = _table_bytes(sf_dir, "documents")
    # one scan, ONE bucketed shuffle for BOTH count families (unigram
    # rows ride with w2=None); split by w2 nullness afterwards
    counts = materialize_nonempty(bucketed_group_agg(
        ds.map_batches(_bigram_and_token_counts, batch_format="pyarrow"),
        ["w1", "w2"],
        lambda g: g.groupby(["w1", "w2"], as_index=False,
                            dropna=False)["n"].sum(),
        est_bytes=docs_bytes))
    big = materialize_nonempty(counts.map_batches(
        lambda t: t.filter(pc.is_valid(t.column("w2"))),
        batch_format="pyarrow"))
    uni = materialize_nonempty(counts.map_batches(
        lambda t: t.filter(pc.is_null(t.column("w2")))
        .select(["w1", "n"]).rename_columns(["token", "n"]),
        batch_format="pyarrow"))
    t1_raw = uni.sum("n")
    t2_raw = big.sum("n")   # totals BEFORE the support cut
    if not t1_raw or not t2_raw:
        # degenerate corpus (no tokens / no adjacent pairs): typed
        # empty result instead of a None-total crash
        return pa.table({"w1": pa.array([], pa.string()),
                         "w2": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "pmi": pa.array([], pa.float64())})
    t1 = np.float64(int(t1_raw))
    t2 = np.float64(int(t2_raw))

    cand = big.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("n"),
                                            pa.scalar(min_count))),
        batch_format="pyarrow")

    def pmi_of(n_ab, n_a, n_b):
        return np.round(np.log(
            ((n_ab.astype(np.float64) * t1) * t1)
            / ((t2 * n_a.astype(np.float64)) * n_b.astype(np.float64))),
            6)

    def score(t: pa.Table) -> pa.Table:
        v = pmi_of(t.column("n").to_numpy(), t.column("n_a").to_numpy(),
                   t.column("n_b").to_numpy())
        return pa.table({"w1": t.column("w1"), "w2": t.column("w2"),
                         "n": t.column("n").cast(pa.int64()),
                         "pmi": pa.array(v, pa.float64())})

    scored = attach(cand, uni, "token",
                    {"w1": {"n": "n_a"}, "w2": {"n": "n_b"}},
                    left_bytes=big.size_bytes()) \
        .map_batches(score, batch_format="pyarrow")
    top = agg_topk(scored, ["pmi", "w1", "w2"], [False, True, True], k)
    return top.select(["w1", "w2", "n", "pmi"])


SQL_BIGRAM_PMI = f"""
WITH toks AS (
  SELECT regexp_extract_all(text, '\\S+') AS ts FROM documents),
uni AS (SELECT unnest(ts) AS w FROM toks),
ucnt AS (SELECT w, COUNT(*) AS n FROM uni GROUP BY w),
t1 AS (SELECT COUNT(*) AS v FROM uni),
big AS (
  SELECT unnest(list_zip(ts[1:len(ts)-1], ts[2:])) AS z FROM toks),
bc AS (SELECT z[1] AS w1, z[2] AS w2, COUNT(*) AS n FROM big
       GROUP BY 1, 2),
t2 AS (SELECT COUNT(*) AS v FROM big)
SELECT bc.w1, bc.w2, bc.n,
  ROUND(LN(((CAST(bc.n AS DOUBLE) * t1.v) * t1.v)
           / ((CAST(t2.v AS DOUBLE) * ua.n) * ub.n)), 6) AS pmi
FROM bc
CROSS JOIN t1 CROSS JOIN t2
JOIN ucnt ua ON bc.w1 = ua.w
JOIN ucnt ub ON bc.w2 = ub.w
WHERE bc.n >= {PMI_MIN_COUNT}
ORDER BY pmi DESC, bc.w1, bc.w2 LIMIT {PMI_TOP_K}
"""


# --- CCNet-style perplexity buckets ---------------------------------------
# head/middle/tail split of the corpus by unigram-LM NLL — the CCNet
# curation primitive. Thresholds come from the SAME mergeable
# log-histogram sketch as approx_quantiles (bounded cells at any
# corpus size: the exact-rank alternative would shuffle one row per
# DISTINCT nll value, i.e. corpus cardinality, into one walk frame).
# Tercile ranks are INTEGER-exact: ceil(total/3), ceil(2*total/3).


PPL_SKETCH_BITS = 256   # sub-buckets per octave: NLL-per-token spans
#                         few octaves, so the quantile sketch needs
#                         finer cells than the price sketch's 16;
#                         total cells stay bounded (<= 256 * ~24)


def _nll_sketch_bucket(nll: np.ndarray) -> np.ndarray:
    """round-6 NLL -> exact micro-units int -> floor(256*log2) octave
    sub-bucket; zero NLL clips to micro=1."""
    micro = np.maximum(np.round(nll * 1e6).astype(np.int64), 1)
    return np.floor(np.log2(micro.astype(np.float64))
                    * PPL_SKETCH_BITS).astype(np.int64)


def q_perplexity_buckets(sf_dir: str):
    """(doc_id, nll_per_tok, ppl_bucket head|middle|tail). Composes
    q_unigram_logprob (per-doc NLL, corpus-fit add-one unigram model)
    with the log-histogram quantile sketch: per-block bucket counts
    fold to one small table (bounded cells) -> driver walk yields the two
    threshold BUCKET ids -> map-only tagging. Deterministic given the
    deterministic sketch; value-checked against the independent
    golden.golden_perplexity_buckets."""
    import ray.data
    scored = materialize_nonempty(q_unigram_logprob(sf_dir))
    if not scored.count():     # empty corpus: no terciles to find
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "nll_per_tok": pa.array([], pa.float64()),
            "ppl_bucket": pa.array([], pa.string())}))

    def bucket(t: pa.Table) -> pa.Table:
        return pa.table({"bucket": _nll_sketch_bucket(
            t.column("nll_per_tok").to_numpy())})

    hist = agg_group_sum(scored, ["bucket"], {"n": None}, of_batch=bucket)
    cum = np.cumsum(hist.column("n").to_numpy())   # bounded: octave cells
    total = int(cum[-1])
    bks = hist.column("bucket").to_numpy()
    b33 = int(bks[np.searchsorted(cum, -(-total // 3))])
    b66 = int(bks[np.searchsorted(cum, -(-2 * total // 3))])

    def tag(t: pa.Table) -> pa.Table:
        b = _nll_sketch_bucket(t.column("nll_per_tok").to_numpy())
        lab = np.where(b <= b33, "head",
                       np.where(b <= b66, "middle", "tail"))
        return pa.table({"doc_id": t.column("doc_id"),
                         "nll_per_tok": t.column("nll_per_tok"),
                         "ppl_bucket": pa.array(lab.tolist(),
                                                pa.string())})

    return scored.map_batches(tag, batch_format="pyarrow")


QUERIES = {
    "event_type_pivot": q_event_type_pivot,
    "source_stats": q_source_stats,
    "lang_top_tokens": q_lang_top_tokens,
    "stratified_sample": q_stratified_sample,
    "window_distinct_users": q_window_distinct_users,
    "dup_ngram_coverage": q_dup_ngram_coverage,
    "dup_rate_by_source": q_dup_rate_by_source,
    "running_total": q_running_total,
    "grouped_p90": q_grouped_p90,
    "asof_join_forward": q_asof_join_forward,
    "rolling_sum": q_rolling_sum,
    "window_funnel": q_window_funnel,
    "bm25_search": q_bm25_search,
    "unigram_logprob": q_unigram_logprob,
    "cms_token_counts": q_cms_token_counts,
    "idf_table": q_idf_table,
    "bigram_pmi": q_bigram_pmi,
    "perplexity_buckets": q_perplexity_buckets,
    # url_section_stats runs over the page corpus; wired through
    # __ray_entry__ (corpus resolution) like media_features
}

ORACLE_SQL = {
    "event_type_pivot": SQL_EVENT_TYPE_PIVOT,
    "source_stats": SQL_SOURCE_STATS,
    "lang_top_tokens": SQL_LANG_TOP_TOKENS,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "window_distinct_users": SQL_WINDOW_DISTINCT_USERS,
    "dup_ngram_coverage": SQL_DUP_NGRAM_COVERAGE,
    "dup_rate_by_source": SQL_DUP_RATE_BY_SOURCE,
    "running_total": SQL_RUNNING_TOTAL,
    "grouped_p90": SQL_GROUPED_P90,
    "asof_join_forward": SQL_ASOF_JOIN_FORWARD,
    "rolling_sum": SQL_ROLLING_SUM,
    "window_funnel": SQL_WINDOW_FUNNEL,
    "idf_table": SQL_IDF_TABLE,
    "bigram_pmi": SQL_BIGRAM_PMI,
    # cms_token_counts / bm25_search / perplexity_buckets: golden
    # oracles wired in __ray_entry__.py
}
