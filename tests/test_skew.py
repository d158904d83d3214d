"""Flagship routing of page skew. With two or more CPUs the skew
router splits a url with a multi-MB payload into byte-bounded cue
blocks (single input pass); with one CPU the read, demux, extract and
bucket tagging run fused, one task per read block. Either way the
result stays byte-identical to the oracle."""

import dataclasses

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pgstosrt_ray import fixtures as FX
from pgstosrt_ray.config import PipelineConfig
from pgstosrt_ray.oracle import extract_url
from pgstosrt_ray.pipelines import reduce
from pgstosrt_ray.pipelines.extract import extract_docs
from pgstosrt_ray.sources.pages import (materialize_corpus, read_golden,
                                        read_pages)
from pgstosrt_ray.state.checkpoint import (read_output, run_checkpointed,
                                           stage_metrics)


def _pages_table(rows):
    return pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.int64())
        .cast(pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.binary()),
    })


@pytest.fixture(scope="module")
def skewed_pages():
    rows = []
    # one giant payload: many large-scale cues in one stream
    specs = []
    for i in range(40):
        specs.append(FX.text_ds(f"giant cue number {i} with some text",
                                (2 * i + 1) * FX.TICK, scale=6,
                                state=2 if i == 0 else 1))
    specs.append(FX.clear_ds(100 * FX.TICK))
    big_payload = FX.sup_payload(specs)
    assert len(big_payload) > 64 * 1024  # must exceed the lane threshold
    rows.append(("https://example.org/skew/big", 1, big_payload))
    for i in range(30):
        rows.append((f"https://example.org/skew/small/{i}", 2 + i,
                     FX.sup_payload([FX.text_ds(f"small {i}", FX.TICK),
                                     FX.clear_ds(2 * FX.TICK)])))
    return rows


def test_router_chunks_bounded_by_bytes(skewed_pages):
    from pgstosrt_ray.pipelines.extract import _demux_router
    from pgstosrt_ray.stages.demux import demux_batch
    pages = _pages_table(skewed_pages)
    budget = 64 * 1024
    blocks = list(_demux_router(pages, block_bytes=budget))
    whole = demux_batch(pages)
    # row multiset preserved, order preserved (concatenation identity)
    assert pa.concat_tables(blocks).equals(whole)
    assert len(blocks) > 1  # the giant payload actually split
    for b in blocks:
        sizes = sum(len(bb) for row in b.column("bitmaps").to_pylist()
                    for bb in row)
        assert b.num_rows == 1 or sizes <= budget


def test_router_identity_random_batches():
    """Property: for any page batch and any byte budget, concatenating
    the router's yielded blocks reproduces demux_batch exactly."""
    from pgstosrt_ray.pipelines.extract import _demux_router
    from pgstosrt_ray.stages.demux import demux_batch
    rng = __import__("random").Random(11)
    for trial in range(10):
        rows = []
        t0 = 1_700_000_000_000_000
        for i in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.2:
                payload = b"garbage not a stream %d" % i
            else:
                payload = FX.sup_payload(
                    [FX.text_ds(f"r{trial}c{i}", (i + 1) * FX.TICK,
                                scale=rng.choice([1, 1, 3]))])
            rows.append((f"https://e.org/{trial}/{i}", t0 + i, payload))
        pages = _pages_table(rows)
        budget = rng.choice([1, 1024, 64 * 1024, 10 << 20])
        blocks = list(_demux_router(pages, block_bytes=budget))
        assert pa.concat_tables(blocks).equals(demux_batch(pages))


def test_skew_lane_byte_identical(ray_session, skewed_pages):
    import ray.data
    pages = _pages_table(skewed_pages)
    ds = ray.data.from_arrow(pages)
    cfg = PipelineConfig(skew_block_bytes=64 * 1024, extract_concurrency=2)
    docs = {}
    for b in extract_docs(ds, cfg).iter_batches(batch_format="pyarrow"):
        for u, t, n in zip(b.column("url").to_pylist(),
                           b.column("text").to_pylist(),
                           b.column("n_cues").to_pylist()):
            docs[u] = (t, n)
    assert len(docs) == 31
    for url, ts, payload in skewed_pages:
        exp_text, exp_n = extract_url([(ts, payload)])
        assert docs[url] == (exp_text, exp_n), url


# -- the one-CPU plan ------------------------------------------------------

def _corpus_of(tmp_path, rows):
    """A corpus directory holding ``rows`` as one pages parquet file."""
    (tmp_path / "pages").mkdir()
    pq.write_table(_pages_table(rows), tmp_path / "pages" / "p.parquet")
    return str(tmp_path)


def _oracle(rows):
    urls: dict = {}
    for url, ts, html in rows:
        urls.setdefault(url, []).append((ts, html))
    return {u: extract_url(r) for u, r in urls.items()}


def _run(corpus, cfg):
    """(url -> (text, n_cues), the map operators before the Sort) of
    one executed flagship pass."""
    ds = extract_docs(read_pages(corpus), cfg).materialize()
    docs = {}
    for b in ds.iter_batches(batch_format="pyarrow"):
        for u, t, n in zip(b.column("url").to_pylist(),
                           b.column("text").to_pylist(),
                           b.column("n_cues").to_pylist()):
            docs[u] = (t, n)
    names = [s["stage"] for s in stage_metrics(ds)]
    sort = next(i for i, n in enumerate(names) if n.startswith("Sort"))
    return docs, names[:sort]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(reduce, "cluster_cpus", lambda default=8: n)


FUSED = ("ReadParquet", "MapBatches(demux_batch)",
         "MapBatches(_task_extract)", "MapBatches(add_bucket)")


@pytest.mark.parametrize("corpus", ["tiny", "giant", "no_display_sets"])
def test_one_cpu_plan_is_one_fused_operator(ray_session, monkeypatch,
                                            tmp_path, skewed_pages, corpus):
    """On a one-CPU cluster the page-to-span chain is ONE operator
    (no router, no re-batching), so only the sort shuffle follows it,
    and every doc equals the oracle."""
    _cpus(monkeypatch, 1)
    if corpus == "tiny":
        d = materialize_corpus("tiny", 30, seed=7)
        golden = read_golden(d)
        exp = {u: (t, n) for u, t, n in zip(
            golden.column("url").to_pylist(),
            golden.column("text").to_pylist(),
            golden.column("n_cues").to_pylist())}
    else:
        rows = (skewed_pages if corpus == "giant" else
                [("https://example.org/empty", 1, FX.sup_payload([]))])
        d = _corpus_of(tmp_path, rows)
        exp = _oracle(rows)
    docs, maps = _run(d, PipelineConfig.sized_for(1))
    assert docs == exp
    assert len(maps) == 1, maps
    assert all(op in maps[0] for op in FUSED), maps
    if corpus == "no_display_sets":
        assert docs == {"https://example.org/empty": ("", 0)}


def test_many_cpu_plan_keeps_the_router(ray_session, monkeypatch, tmp_path,
                                        skewed_pages):
    _cpus(monkeypatch, 4)
    d = _corpus_of(tmp_path, skewed_pages)
    docs, maps = _run(d, PipelineConfig.sized_for(4))
    assert docs == _oracle(skewed_pages)
    assert maps[0].startswith("ReadParquet")
    assert "demux" not in maps[0]
    assert "MapBatches(_demux_router)" in maps
    assert not any("demux_batch" in m for m in maps), maps


@pytest.mark.parametrize("cpus", [1, 4])
def test_giant_payload_checkpointed(ray_session, monkeypatch, tmp_path,
                                    skewed_pages, cpus):
    """The giant payload through the checkpointed run (assembly and
    write in one map_groups) equals the oracle on both plans."""
    _cpus(monkeypatch, cpus)
    d = _corpus_of(tmp_path, skewed_pages)
    out = str(tmp_path / "out")
    cfg = dataclasses.replace(PipelineConfig.sized_for(cpus),
                              num_partitions=4)
    assert run_checkpointed(d, out, cfg)["written_partitions"] == 4
    got = read_output(out)
    assert {u: (t, n) for u, t, n in zip(
        got.column("url").to_pylist(), got.column("text").to_pylist(),
        got.column("n_cues").to_pylist())} == _oracle(skewed_pages)


def test_one_cpu_actor_pool_still_raises(ray_session, monkeypatch, tmp_path,
                                         skewed_pages):
    _cpus(monkeypatch, 1)
    cfg = dataclasses.replace(PipelineConfig.sized_for(1),
                              extract_mode="actors")
    with pytest.raises(ValueError, match=r"pool of 2 actors .* asks for "
                       r"2\.5 CPUs, but the cluster has 1"):
        extract_docs(read_pages(_corpus_of(tmp_path, skewed_pages)), cfg)
