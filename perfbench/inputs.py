"""Seeded workload inputs and their goldens, cached under the checkout.

Every input is a pure function of (workload, seed, size) and of the
sources that generate it or compute its golden. The cache key carries
a digest of those sources, so a changed generator or oracle can never
serve a stale golden (the package's own ``_SUCCESS_v2`` marker is
keyed by corpus name only). Generation is never timed.

Layouts:

    <key>/pages/part-*.parquet     page corpus (url, warc_ts, html)
    <key>/warm/...                 a small input for the warm-up run
    <key>/golden.parquet           url, text, n_cues (oracle output)
    <key>/documents.parquet/*.parquet   text_stats documents table
    <key>/oracle/<query>.parquet   text_stats oracle answers
    <key>/_SUCCESS
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

# sources (relative to the checkout root) whose change alters an input
# or a golden
PAGE_SOURCES = tuple(f"pgstosrt_ray/{m}.py" for m in (
    "fixtures", "oracle", "format", "glyph", "merge", "decode", "parse",
    "srt")) + ("perfbench/inputs.py",)
TEXT_SOURCES = tuple(f"pgstosrt_ray/{m}.py" for m in (
    "golden", "pipelines/relational", "pipelines/webops",
    "pipelines/extended")) + ("perfbench/inputs.py",)

TEXT_QUERIES = ("top_tokens", "idf_table", "bigram_pmi", "tfidf_top_term",
                "bm25_search", "unigram_logprob")

# workload sizes (urls, or documents for text_stats)
SIZES = {"heavy_extract": 60, "recrawl_checkpoint": 60, "text_stats": 2000,
         "control_pages": 24, "control_docs": 400}
PAGE_FILES = 4
# mean payload bytes (and distinct payload bytes) per url: the page
# corpora's size units
HEAVY_URL_BYTES = 48_000
RECRAWL_URL_BYTES = 21_000
RECRAWL_URL_DISTINCT_BYTES = 4_600


def source_digest(root: str, sources: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for rel in sources:
        h.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def _write_pages(out: str, rows: list[tuple[str, int, bytes]]) -> None:
    pages_dir = os.path.join(out, "pages")
    os.makedirs(pages_dir)
    table = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.binary()),
    })
    step = -(-table.num_rows // PAGE_FILES)
    for i in range(PAGE_FILES):
        pq.write_table(table.slice(i * step, step),
                       os.path.join(pages_dir, f"part-{i:05d}.parquet"))
    # warm-up input: the first few urls' rows, same pipeline code paths
    warm_urls = {r[0] for r in rows[:8]}
    warm = table.filter(pa.array([r[0] in warm_urls for r in rows]))
    os.makedirs(os.path.join(out, "warm", "pages"))
    pq.write_table(warm, os.path.join(out, "warm", "pages",
                                      "part-00000.parquet"))


def _write_golden(out: str, golden: dict[str, tuple[str, int]]) -> None:
    urls = sorted(golden)
    pq.write_table(pa.table({
        "url": pa.array(urls, pa.string()),
        "text": pa.array([golden[u][0] for u in urls], pa.string()),
        "n_cues": pa.array([golden[u][1] for u in urls], pa.int32()),
    }), os.path.join(out, "golden.parquet"))


def _sizes(rows: list[tuple[int, bytes]]) -> tuple[int, int]:
    """(payload bytes, distinct payload bytes) of one url's captures."""
    return (sum(len(html) for _ts, html in rows),
            sum(len(html) for html in {html for _ts, html in rows}))


def balanced(draw, n: int, targets: tuple[int | None, int | None],
             tol: float = 0.005, max_draws: int = 1000
             ) -> dict[str, list[tuple[int, bytes]]]:
    """``n`` urls from ``draw(j) -> (url, rows)`` whose payload bytes and
    distinct payload bytes (``_sizes``) sum to within ``tol`` of
    ``targets`` (None: not pinned): the first ``n`` draws, then each
    later draw replaces the chosen url that brings the totals closest
    to the targets, when it does. Url contents stay random; only the
    corpus size is pinned, so the work a job does varies little from
    seed to seed."""
    def err(totals) -> float:
        return max(abs(t - g) / g for t, g in zip(totals, targets) if g)

    chosen = [draw(j) for j in range(n)]
    sizes = [_sizes(rows) for _url, rows in chosen]
    totals = [sum(col) for col in zip(*sizes)]
    for j in range(n, n + max_draws):
        if err(totals) <= tol:
            break
        cand = draw(j)
        b = _sizes(cand[1])

        def swapped(i: int) -> list[int]:
            return [t - s + x for t, s, x in zip(totals, sizes[i], b)]
        k = min(range(n), key=lambda i: err(swapped(i)))
        if err(swapped(k)) < err(totals):
            totals = swapped(k)
            chosen[k], sizes[k] = cand, b
    return dict(chosen)


def heavy_urls(seed: int, n: int) -> dict[str, list[tuple[int, bytes]]]:
    """Heavy profile: glyph scale 1-4, 4-12 cues per payload, 1-3
    captures per url (``fixtures.random_payload_rows``), ~48 KB of
    payload per url."""
    from pgstosrt_ray.fixtures import random_payload_rows

    def draw(j: int):
        return (f"https://example.org/heavy/{seed}/{j}",
                random_payload_rows(random.Random(f"heavy:{seed}:{j}"), j,
                                    profile="heavy"))
    return balanced(draw, n, (n * HEAVY_URL_BYTES, None))


def recrawl_urls(seed: int, n: int) -> dict[str, list[tuple[int, bytes]]]:
    """Default-profile payloads, each url captured about 12 times
    (~21 KB of captures per url). Of the extra captures 30% repeat a
    capture exactly (same warc_ts), 60% re-capture an unchanged page
    under a new warc_ts and 10% are changed pages."""
    from pgstosrt_ray.fixtures import random_payload_rows

    def draw(j: int):
        rng = random.Random(f"recrawl:{seed}:{j}")
        rows = list(random_payload_rows(rng, j))
        next_ts = max(ts for ts, _ in rows) + 1
        for _ in range(rng.randint(10, 14) - len(rows)):
            r = rng.random()
            ts, html = rng.choice(rows)
            if r < 0.3:
                rows.append((ts, html))
                continue
            if r >= 0.9:
                html = random_payload_rows(rng, j)[0][1]
            rows.append((next_ts, html))
            next_ts += 1
        return f"https://example.org/recrawl/{seed}/{j}", rows
    return balanced(draw, n, (n * RECRAWL_URL_BYTES,
                              n * RECRAWL_URL_DISTINCT_BYTES))


def _control_urls(seed: int, n: int) -> dict[str, list[tuple[int, bytes]]]:
    from pgstosrt_ray.fixtures import random_payload_rows
    return {f"https://example.org/control/{seed}/{i}":
            random_payload_rows(random.Random(f"control:{seed}:{i}"), i)
            for i in range(n)}


def _page_input(out: str, urls: dict, seed: int) -> None:
    from pgstosrt_ray.oracle import extract_corpus
    rows = [(u, ts, html) for u, rs in urls.items() for ts, html in rs]
    # row order is part of the input: the pipeline must not depend on it
    random.Random(f"order:{seed}").shuffle(rows)
    _write_pages(out, rows)
    _write_golden(out, extract_corpus(urls))


def base_documents(n: int) -> pa.Table:
    """A documents table shaped like the repo's sf test tables (doc_id,
    text, lang, source, n_chars): 30 query-engine words drawn uniformly,
    8-90 tokens per doc, ~5% near-duplicates tagged with ``dup``. Fixed:
    the workload seed only permutes rows and the file split."""
    words = ("a agg batch big column customer data fast filter group "
             "hash join key line merge order part query row scan slow "
             "small sort spark stream table the value vector window"
             ).split()
    rng = random.Random("documents:42")
    texts: list[str] = []
    for i in range(n):
        if i > 10 and rng.random() < 0.05:
            texts.append(texts[rng.randrange(i)] + " dup")
        else:
            texts.append(" ".join(rng.choices(words,
                                              k=rng.randint(8, 90))))
    langs = rng.choices(["en", "zh", "es", "fr", "de"],
                        weights=[41, 15, 15, 15, 14], k=n)
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def sorted_frame(table: pa.Table):
    """Column-sorted, row-sorted pandas frame: the order-free form in
    which a query answer is compared with its oracle."""
    df = table.to_pandas()
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


def oracle_answer(name: str, sf_dir: str) -> pa.Table:
    """The DuckDB ``ORACLE_SQL`` answer, or the independent
    ``golden.GOLDEN_BUILDERS`` one for the queries without SQL."""
    import duckdb

    from pgstosrt_ray.golden import GOLDEN_BUILDERS
    from pgstosrt_ray.pipelines import extended, relational, webops
    sql = {**relational.ORACLE_SQL, **webops.ORACLE_SQL,
           **extended.ORACLE_SQL}
    if name in sql:
        con = duckdb.connect()
        try:
            con.sql("CREATE VIEW documents AS SELECT * FROM read_parquet("
                    f"'{sf_dir}/documents.parquet/*.parquet')")
            return con.sql(sql[name]).arrow()
        finally:
            con.close()
    return GOLDEN_BUILDERS[name][0](sf_dir)


def _text_input(out: str, n: int, seed: int) -> None:
    base = base_documents(n)
    rng = random.Random(f"docs:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    table = base.take(order)
    files = rng.randint(1, 4)
    docs_dir = os.path.join(out, "documents.parquet")
    os.makedirs(docs_dir)
    step = -(-n // files)
    for i in range(files):
        pq.write_table(table.slice(i * step, step),
                       os.path.join(docs_dir, f"part-{i:05d}.parquet"))
    os.makedirs(os.path.join(out, "oracle"))
    for name in TEXT_QUERIES:
        pq.write_table(oracle_answer(name, out),
                       os.path.join(out, "oracle", f"{name}.parquet"))
    # warm-up input: a tiny documents table, same query code paths
    warm_dir = os.path.join(out, "warm", "documents.parquet")
    os.makedirs(warm_dir)
    pq.write_table(base.slice(0, 50),
                   os.path.join(warm_dir, "part-00000.parquet"))


PAGE_CORPORA = {"heavy_extract": heavy_urls,
                "recrawl_checkpoint": recrawl_urls,
                "control_pages": _control_urls}


def ensure(cache: str, root: str, name: str, seed: int) -> str:
    """Generate (once) and return the input directory for ``name``: a
    key of ``PAGE_CORPORA``, ``text_stats`` or ``control_docs``."""
    n = SIZES[name]
    sources = PAGE_SOURCES if name in PAGE_CORPORA else TEXT_SOURCES
    key = f"{name}-s{seed}-n{n}-{source_digest(root, sources)}"
    out = os.path.join(cache, "inputs", key)
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if name in PAGE_CORPORA:
        _page_input(out, PAGE_CORPORA[name](seed, n), seed)
    else:
        _text_input(out, n, seed)
    with open(os.path.join(out, "_SUCCESS"), "w") as f:
        f.write(key)
    return out


def read_golden(input_dir: str) -> dict[str, tuple[str, int]]:
    t = pq.read_table(os.path.join(input_dir, "golden.parquet"))
    return {u: (txt, n) for u, txt, n in zip(
        t.column("url").to_pylist(), t.column("text").to_pylist(),
        t.column("n_cues").to_pylist())}


def read_oracles(input_dir: str) -> dict:
    return {name: sorted_frame(pq.read_table(
        os.path.join(input_dir, "oracle", f"{name}.parquet")))
        for name in TEXT_QUERIES}
