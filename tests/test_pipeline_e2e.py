"""End-to-end byte-identity gate (SURVEY §5.2-5.3): the Ray pipeline's
per-url output must equal the single-threaded oracle's exactly, under
any input row order and parallelism."""

import pyarrow as pa
import pytest

from pgstosrt_ray.config import PipelineConfig
from pgstosrt_ray.pipelines.extract import extract_docs
from pgstosrt_ray.sources.pages import (materialize_corpus, read_golden,
                                        read_pages)


@pytest.fixture(scope="session")
def tiny_dir():
    return materialize_corpus("tiny", 30, seed=7)


def _docs_map(docs_ds):
    out = {}
    for batch in docs_ds.iter_batches(batch_format="pyarrow"):
        for url, text, n in zip(batch.column("url").to_pylist(),
                                batch.column("text").to_pylist(),
                                batch.column("n_cues").to_pylist()):
            out[url] = (text, n)
    return out


def test_pipeline_matches_oracle_byte_identical(ray_session, tiny_dir):
    docs = _docs_map(extract_docs(read_pages(tiny_dir)))
    golden = read_golden(tiny_dir)
    exp = {u: (t, n) for u, t, n in zip(golden.column("url").to_pylist(),
                                        golden.column("text").to_pylist(),
                                        golden.column("n_cues").to_pylist())}
    assert set(docs) == set(exp)
    for url in exp:
        assert docs[url][0] == exp[url][0], f"text mismatch for {url}"
        assert docs[url][1] == exp[url][1], f"cue count mismatch for {url}"
    # the all-unparseable url survives as an explicit empty doc (demux
    # sentinel row), matching the oracle's (url, "", 0)
    assert docs["https://example.org/t/garbage/18"] == ("", 0)


def test_skip_merge_matches_nomerge_golden(ray_session, tiny_dir):
    docs = _docs_map(extract_docs(read_pages(tiny_dir),
                                  PipelineConfig(skip_merge=True)))
    golden = read_golden(tiny_dir, variant="nomerge")
    exp = {u: (t, n) for u, t, n in zip(golden.column("url").to_pylist(),
                                        golden.column("text").to_pylist(),
                                        golden.column("n_cues").to_pylist())}
    assert docs == exp


def test_pipeline_row_order_independent(ray_session, tiny_dir):
    base = _docs_map(extract_docs(read_pages(tiny_dir)))
    shuffled = read_pages(tiny_dir).random_shuffle(seed=123)
    assert _docs_map(extract_docs(shuffled)) == base


def test_lang_filter_pushdown(ray_session, tiny_dir):
    import pyarrow.parquet as pq
    import os
    ds = read_pages(tiny_dir, lang="eng")
    docs = _docs_map(extract_docs(ds))
    pages = pq.read_table(os.path.join(tiny_dir, "pages"))
    eng_urls = {u for u, l in zip(pages.column("url").to_pylist(),
                                  pages.column("lang").to_pylist())
                if l == "eng"}
    assert set(docs) == eng_urls


def test_actor_mode_byte_identical(ray_session, tiny_dir):
    """The warm actor-pool path (O1) must produce the same bytes as
    the default task path."""
    cfg = PipelineConfig(extract_mode="actors", extract_concurrency=2)
    docs = _docs_map(extract_docs(read_pages(tiny_dir), cfg))
    golden = read_golden(tiny_dir)
    exp = {u: (t, n) for u, t, n in zip(golden.column("url").to_pylist(),
                                        golden.column("text").to_pylist(),
                                        golden.column("n_cues").to_pylist())}
    assert docs == exp


def test_actor_pool_larger_than_cluster_raises(ray_session, tiny_dir):
    """A pool whose minimum actors leave no CPU for demux would hang;
    it is refused when the pipeline is built, before execution."""
    cfg = PipelineConfig(extract_mode="actors", extract_concurrency=(5, 8))
    with pytest.raises(ValueError, match=r"pool of 5 actors .* asks for "
                       r"5\.5 CPUs, but the cluster has 4"):
        extract_docs(read_pages(tiny_dir), cfg)


@pytest.mark.parametrize("profile,n", [("heavy", 24), ("wide", 12)])
def test_profiles_byte_identical(ray_session, profile, n):
    """The heavy (big-bitmap) and wide (many-long-cue) generator
    profiles — the bench/scaling workloads — also hold byte identity,
    not just the tiny/default corpus."""
    d = materialize_corpus(f"e2e-{profile}", n, seed=13, profile=profile,
                           include_tiny=False)
    docs = _docs_map(extract_docs(read_pages(d)))
    golden = read_golden(d)
    exp = {u: (t, c) for u, t, c in zip(golden.column("url").to_pylist(),
                                        golden.column("text").to_pylist(),
                                        golden.column("n_cues").to_pylist())}
    assert docs == exp


def test_skip_merge_config(ray_session, tiny_dir):
    cfg = PipelineConfig(skip_merge=True)
    docs = _docs_map(extract_docs(read_pages(tiny_dir), cfg))
    merged = _docs_map(extract_docs(read_pages(tiny_dir)))
    url = "https://example.org/t/merge/9"
    assert docs[url][1] > merged[url][1]  # merge collapsed runs
