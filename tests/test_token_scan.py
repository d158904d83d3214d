"""The one whitespace token scan (``functions.text.token_rows``) and the
eleven ``\\S+`` queries that derive their statistics from it: the scan
against Python's ``re.findall(r"\\S+")`` on adversarial whitespace,
every query against its oracle on a corpus of planted whitespace edge
cases, and typed results when there are no tokens at all."""

import re
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from pgstosrt_ray import golden
from pgstosrt_ray.functions.text import token_rows
from pgstosrt_ray.pipelines import extended, relational, webops

TOKEN_QUERIES = ("token_count", "quality_counts", "top_tokens",
                 "unnest_tokens", "inverted_index", "lang_top_tokens",
                 "idf_table", "bigram_pmi", "bm25_search",
                 "unigram_logprob", "cms_token_counts")
ORACLE_SQL = {**relational.ORACLE_SQL, **extended.ORACLE_SQL,
              **webops.ORACLE_SQL}

# every code point Python's \s matches: \v, \x1c-\x1f, \x85, \xa0,
# \u1680, \u2000-\u200a, \u2028, \u2029, \u202f, \u205f, \u3000, ...
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1))
              if re.fullmatch(r"\s", c)]


def _expected(texts):
    found = [re.findall(r"\S+", t) for t in texts]
    return ([i for i, ts in enumerate(found) for _ in ts],
            [w for ts in found for w in ts])


_texts = st.lists(st.text(st.sampled_from(
    WHITESPACE + ["a", "b", "é", "字", "-", "\x00"]), max_size=12),
    max_size=10)


@settings(max_examples=300, deadline=None)
@given(_texts)
def test_token_rows_matches_python_regex(texts):
    rows, toks = _expected(texts)
    row, tok = token_rows(texts)
    assert row.dtype == np.int64
    assert tok.type == pa.string()
    assert row.tolist() == rows
    assert tok.to_pylist() == toks


@settings(max_examples=100, deadline=None)
@given(_texts, st.integers(0, 10))
def test_token_rows_rows_span_chunks(texts, cut):
    """A Ray batch column is a ChunkedArray: ``row`` indexes the whole
    column, not the chunk, so adjacency never crosses docs."""
    cut = min(cut, len(texts))
    col = pa.chunked_array([texts[:cut], texts[cut:]], pa.string())
    rows, toks = _expected(texts)
    row, tok = token_rows(col)
    assert row.tolist() == rows
    assert tok.to_pylist() == toks


def test_token_rows_blank_rows_mid_batch():
    row, tok = token_rows(["a b", "", " 　 ", None, "c", "\t"])
    assert row.tolist() == [0, 0, 4]
    assert tok.to_pylist() == ["a", "b", "c"]


def test_token_rows_ignores_bytes_past_the_last_text():
    """Bytes after the last text in the data buffer are not part of it:
    invalid UTF-8 there (unset padding) must not change its tokens."""
    texts = ["b ", "a\r"]
    offsets = np.array([0, 2, 4], np.int32).tobytes()
    for tail in (b"\x80", b"\xc2", b"\xe2\x80", b"\xff"):
        col = pa.StringArray.from_buffers(
            2, pa.py_buffer(offsets),
            pa.py_buffer("".join(texts).encode() + tail))
        row, tok = token_rows(col)
        assert row.tolist() == [0, 1]
        assert tok.to_pylist() == ["b", "a"]


# --- the \S+ queries against their oracles -------------------------------
def _result_table(result) -> pa.Table | None:
    """All blocks of a query answer as one table; None when no block
    carries a schema."""
    import ray
    import ray.data
    if not isinstance(result, ray.data.Dataset):
        return result
    tabs = [t for t in ray.get(result.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tabs) if tabs else None


def _oracle_table(name: str, sf_dir: str) -> pa.Table:
    if name in ORACLE_SQL:
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf_dir}/documents.parquet'")
        return con.sql(ORACLE_SQL[name]).arrow()
    builder, _ = golden.GOLDEN_BUILDERS[name]
    return builder(sf_dir)


def _frame(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df = df[sorted(df.columns)]
    for c in df.columns:   # posting lists compare as tuples
        if len(df) and isinstance(df[c].iloc[0], (list, np.ndarray)):
            df[c] = df[c].map(tuple)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def _kind(t: pa.DataType) -> str:   # list types compare by value type
    return f"list<{t.value_type}>" if pa.types.is_list(t) else str(t)


def _run(name: str, sf_dir: str):
    import __ray_entry__
    return (_result_table(__ray_entry__.queries()[name](sf_dir)),
            _oracle_table(name, sf_dir))


def _write_docs(d, texts) -> str:
    import pyarrow.parquet as pq
    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n) * 3 + 1, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([("en", "fr", "de")[i % 3] for i in range(n)],
                         pa.string()),
        "source": pa.array([f"src{i % 4}" for i in range(n)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), f"{d}/documents.parquet")
    return str(d)


@pytest.fixture(scope="module")
def whitespace_corpus(tmp_path_factory):
    """A seeded random corpus whose tokens are joined by mixed ASCII
    whitespace, plus the planted edge cases. ASCII only: the DuckDB
    oracles' RE2 ``\\s`` is ``[ \\t\\n\\r\\f]`` (token_rows docstring)."""
    rng = np.random.default_rng(6)
    vocab = ["data", "table", "window", "the", "a", "key", "row", "scan",
             "join", "sort", "merge", "hash"]
    seps = [" ", "  ", "\t", "\n", "\r\n", "\f", " \t "]
    texts = []
    for _ in range(90):
        words = rng.choice(vocab, size=rng.integers(1, 25))
        gaps = rng.choice(seps, size=len(words) + 1)
        texts.append("".join(g + w for g, w in zip(gaps, words))
                     + (gaps[-1] if rng.random() < 0.5 else ""))
    texts += ["", "   ", " lead", "trail ", "a  b", "a\tb\nc", "x\r\ny",
              "solo", "data table data\tdata window data"]
    return _write_docs(tmp_path_factory.mktemp("ws"), texts)


def test_token_queries_match_oracles_on_whitespace_edges(
        ray_session, whitespace_corpus):
    bad = []
    for name in TOKEN_QUERIES:
        ours, exp = _run(name, whitespace_corpus)
        assert len(exp), name   # the corpus exercises every query
        try:
            pd.testing.assert_frame_equal(_frame(ours), _frame(exp),
                                          check_dtype=False,
                                          check_exact=True)
        except AssertionError as e:
            bad.append(f"{name}: {e}")
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("texts", [["", "  ", "\t\n"], []],
                         ids=["all_blank", "zero_rows"])
def test_token_queries_typed_when_no_tokens(ray_session, tmp_path, texts):
    """No tokens anywhere: every answer still carries the oracle's
    column names and non-null types, and the oracle's rows."""
    sf = _write_docs(tmp_path, texts)
    bad = []
    for name in TOKEN_QUERIES:
        ours, exp = _run(name, sf)
        want = {f.name: _kind(f.type) for f in exp.schema}
        got = (None if ours is None
               else {f.name: _kind(f.type) for f in ours.schema})
        if got != want:
            bad.append(f"{name}: {got} != {want}")
            continue
        pd.testing.assert_frame_equal(_frame(ours), _frame(exp),
                                      check_dtype=False, obj=name)
    assert not bad, "\n".join(bad)
