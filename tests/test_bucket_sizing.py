"""Data-sized shuffle-bucket counts (round-3 verdict #1): the
bucketed map_groups family must derive its bucket count from the
input size so no task ever materializes a corpus/B frame beyond the
per-bucket byte target, at any corpus scale."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pgstosrt_ray.pipelines.reduce import (TARGET_BUCKET_DISK_BYTES,
                                           buckets_for, input_bytes,
                                           parquet_rows, shuffle_groups)


def test_buckets_for_floor_on_small_input():
    # inputs below one target bucket stay at the parallelism floor
    assert buckets_for(None) == shuffle_groups()
    assert buckets_for(0) == shuffle_groups()
    assert buckets_for(1024) == shuffle_groups()
    assert buckets_for(TARGET_BUCKET_DISK_BYTES - 1) == shuffle_groups()


def test_buckets_for_grows_with_bytes():
    t = TARGET_BUCKET_DISK_BYTES
    floor = shuffle_groups()
    assert buckets_for(1000 * t) == max(floor, 1000)
    # ceil division: a partial bucket still gets its own task
    assert buckets_for(1000 * t + 1) == max(floor, 1001)
    # 4x the input => 4x the buckets (per-bucket bytes stay constant)
    assert buckets_for(4000 * t) == 4 * buckets_for(1000 * t)


def test_buckets_for_explicit_target_and_floor():
    assert buckets_for(1 << 20, target_bytes=1 << 18, floor=2) == 4
    assert buckets_for(1 << 20, target_bytes=1 << 18, floor=16) == 16


def test_input_bytes_grows_with_replication(tmp_path):
    # the concrete scale criterion: replicating the input grows the
    # derived bucket count (a fixed B=64 would not move)
    t = pa.table({"x": pa.array(np.arange(5000), pa.int64()),
                  "pad": pa.array(["y" * 64] * 5000, pa.string())})
    p1 = os.path.join(tmp_path, "a.parquet")
    pq.write_table(t, p1)
    one = input_bytes(p1)
    assert one > 0
    p2 = os.path.join(tmp_path, "b.parquet")
    pq.write_table(t, p2)
    both = input_bytes(str(tmp_path))
    assert both == 2 * one
    target = max(one // 4, 1)
    b1 = buckets_for(one, target_bytes=target, floor=1)
    b2 = buckets_for(both, target_bytes=target, floor=1)
    assert b1 == -(-one // target) and b2 == -(-both // target)
    assert b2 > b1 > 0
    assert parquet_rows(str(tmp_path)) == 10000


def _events(tmp_path, n: int = 20_000) -> str:
    rng = np.random.RandomState(3)
    t = pa.table({"user_id": pa.array(rng.randint(0, 997, n), pa.int64()),
                  "v": pa.array(rng.standard_normal(n))})
    path = os.path.join(tmp_path, "events.parquet")
    pq.write_table(t, path)
    return path


def test_no_bucket_frame_beyond_target(ray_session, tmp_path, monkeypatch):
    """Scale smoke: with a data-derived B, no map_groups task sees a
    frame materially beyond total/B (the fixed-64 family saw
    corpus/64 regardless of corpus size). The bucket frames are the
    shuffle side's, so the driver-side gate is forced off."""
    from pgstosrt_ray.pipelines import reduce
    from pgstosrt_ray.pipelines.reduce import bucketed_group_agg
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)

    n = 20_000
    path = _events(tmp_path, n)
    import ray.data
    ds = ray.data.read_parquet(path)
    B = buckets_for(input_bytes(path), target_bytes=input_bytes(path) // 8,
                    floor=1)
    assert B == 8

    def measure(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rows": [len(g)]})

    sizes = bucketed_group_agg(ds, ["user_id"], measure,
                               buckets=B).to_pandas()["rows"]
    assert len(sizes) == B
    assert sizes.sum() == n
    # hash-balanced buckets: no frame beyond ~2x the even share
    assert sizes.max() <= 2 * (n // B)


def test_small_input_aggregates_on_driver(ray_session, tmp_path,
                                         monkeypatch):
    """The counted gate: an input at or below BROADCAST_BYTES runs
    agg_fn once on the driver (no groupby, hence no sort shuffle) and
    answers what the forced shuffle does; an est_bytes above the bound
    goes to the shuffle without materializing the input first."""
    import ray.data
    from pgstosrt_ray.pipelines import reduce
    path = _events(tmp_path)
    calls = []
    for name in ("groupby", "materialize"):
        real = getattr(ray.data.Dataset, name)
        monkeypatch.setattr(
            ray.data.Dataset, name,
            lambda self, *a, _n=name, _r=real, **kw:
            calls.append(_n) or _r(self, *a, **kw))

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False).agg(
            n=("v", "size"), s=("v", "sum"))

    def run() -> tuple[pd.DataFrame, list]:
        """(sorted answer, Dataset calls made by bucketed_group_agg)."""
        calls.clear()
        out = reduce.bucketed_group_agg(ray.data.read_parquet(path),
                                        ["user_id"], agg,
                                        est_bytes=input_bytes(path))
        seen = list(calls)
        return (out.to_pandas().sort_values("user_id", ignore_index=True),
                seen)

    local, seen = run()
    assert "groupby" not in seen and "materialize" in seen
    assert len(local) == 997 and local["n"].sum() == 20_000
    for bound in (-1, input_bytes(path) - 1):
        monkeypatch.setattr(reduce, "BROADCAST_BYTES", bound)
        shuffled, seen = run()
        assert seen == ["groupby"], bound
        pd.testing.assert_frame_equal(local, shuffled)


def test_shuffle_tag_hashes_a_key_alike_in_every_block(ray_session,
                                                      monkeypatch):
    """The shuffle's tag puts every row of a key in one bucket: uint64
    keys past 2^63, and an int key in a block that also holds a null
    (numpy sees that column as float), group as on the driver side."""
    import ray.data
    from pgstosrt_ray.pipelines import reduce
    n = 4096    # blocks larger than a map batch: each is tagged apart
    u = pa.array(np.tile(np.array([2**64 - 1, 2**63, 7], np.uint64),
                         n)[:n])
    k = np.arange(n) % 64
    blocks = [pa.table({"u": u, "k": pa.array(k, pa.int64())}),
              pa.table({"u": u, "k": pa.array(
                  [None, *k[1:].tolist()], pa.int64())})]

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["u", "k"], as_index=False, dropna=False).size()

    out = []
    for bound in (reduce.BROADCAST_BYTES, -1):
        monkeypatch.setattr(reduce, "BROADCAST_BYTES", bound)
        out.append(reduce.bucketed_group_agg(
            ray.data.from_arrow(blocks), ["u", "k"], agg, buckets=8)
            .to_pandas().sort_values(["u", "k"], ignore_index=True))
    assert out[0]["size"].sum() == 2 * n and len(out[0]) == 3 * 64 + 1
    pd.testing.assert_frame_equal(out[0], out[1])


def test_queries_use_derived_buckets(monkeypatch):
    """The weak-family queries must consult buckets_for (not a
    constant): force the estimate high and observe the derived count
    flow through bucketed_group_agg."""
    import pgstosrt_ray.pipelines.relational as rel

    seen = {}
    real = rel.bucketed_group_agg

    def spy(ds, key_cols, fn, buckets=None, est_bytes=None,
            domain_bound=None, schema=None):
        seen["est_bytes"] = est_bytes
        seen["buckets"] = buckets or buckets_for(est_bytes)
        raise RuntimeError("stop before execution")

    monkeypatch.setattr(rel, "bucketed_group_agg", spy)
    monkeypatch.setattr(rel, "_read",
                        lambda sf, tbl, columns=None, **kw: None)
    monkeypatch.setattr(
        rel, "_table_bytes",
        lambda sf, tbl: 500 * TARGET_BUCKET_DISK_BYTES)
    with pytest.raises(RuntimeError):
        rel.q_top_orders_per_cust("/nonexistent")
    assert seen["est_bytes"] == 500 * TARGET_BUCKET_DISK_BYTES
    assert seen["buckets"] == max(shuffle_groups(), 500)
    assert real is not spy


def test_inverted_index_posting_cap(ray_session, tmp_path):
    """A planted stop-word above the cap emits multiple <=cap rows
    whose concatenation is the exact posting list."""
    from pgstosrt_ray.pipelines.extended import q_inverted_index

    n_docs = 40
    texts = [f"the unique{t}" for t in range(n_docs)]
    t = pa.table({"doc_id": pa.array(np.arange(n_docs), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, os.path.join(tmp_path, "documents.parquet"))
    out = q_inverted_index(str(tmp_path), posting_cap=16).to_pandas()
    the = out[out["token"] == "the"].copy()
    # 40 docs at cap 16 => 3 shard rows (16 + 16 + 8)
    assert len(the) == 3
    assert (the["n_docs"] <= 16).all()
    assert int(the["n_docs"].sum()) == n_docs
    joined = sorted(int(d) for lst in the["postings"] for d in lst)
    assert joined == list(range(n_docs))
    # uncapped tokens unaffected: one row each, one doc each
    rest = out[out["token"] != "the"]
    assert len(rest) == n_docs and (rest["n_docs"] == 1).all()


def test_salted_pair_groups_grow_with_corpus(tmp_path):
    """The dedup band/cell shuffles size their salted group count from
    the corpus row count (x explode factor), not only the cluster —
    at 10^12 docs a cluster-sized-only count would hand each group
    task corpus x bands / groups rows."""
    from pgstosrt_ray.pipelines.dedupe import _salted_groups
    d = str(tmp_path)
    pd.DataFrame({"doc_id": np.arange(100, dtype="int64"),
                  "text": ["w"] * 100}).to_parquet(
        f"{d}/documents.parquet")
    small = _salted_groups(d, "documents", 16, 24)
    assert small == shuffle_groups()  # tiny corpus stays at the floor
    # a corpus big enough to exceed the floor derives a larger count
    from pgstosrt_ray.pipelines.reduce import buckets_for
    rows_needed = (shuffle_groups() + 1) * TARGET_BUCKET_DISK_BYTES \
        // (16 * 24)
    assert buckets_for(est_bytes=rows_needed * 16 * 24) \
        > shuffle_groups()
