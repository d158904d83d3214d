"""Unit tests for the in-cluster reduction helpers (reduce.py): the
round-3 replacements for driver-side partial merges."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds_of(df: pd.DataFrame, blocks: int = 8):
    import ray.data
    return ray.data.from_pandas(
        [df.iloc[i::blocks].reset_index(drop=True) for i in range(blocks)
         if len(df.iloc[i::blocks])])


class TestClusterSizing:
    def test_derived_from_cpus(self, ray_session):
        from pgstosrt_ray.pipelines import reduce
        cpus = reduce.cluster_cpus()
        assert cpus >= 1
        assert reduce.join_partitions() == max(8, cpus // 2)
        assert reduce.shuffle_groups() >= 64

    def test_fallback_without_ray(self, monkeypatch):
        from pgstosrt_ray.pipelines import reduce
        import ray as ray_mod
        monkeypatch.setattr(ray_mod, "is_initialized", lambda: False)
        assert reduce.cluster_cpus(default=8) == 8


class TestMaterializeNonempty:
    def test_drops_empty_blocks(self, ray_session):
        import ray
        import ray.data
        from pgstosrt_ray.pipelines.reduce import materialize_nonempty
        ds = ray.data.from_arrow([
            pa.table({"a": pa.array([1, 2], pa.int64())}),
            pa.table({"a": pa.array([], pa.int64())}),
            pa.table({"a": pa.array([3], pa.int64())}),
        ])
        out = materialize_nonempty(ds)
        tabs = ray.get(out.to_arrow_refs())
        assert all(t.num_rows > 0 for t in tabs)
        assert sorted(out.to_pandas()["a"]) == [1, 2, 3]


class TestAggTopk:
    def test_matches_global_sort(self, ray_session):
        from pgstosrt_ray.pipelines.reduce import agg_topk
        rng = np.random.RandomState(5)
        df = pd.DataFrame({"v": rng.randint(0, 1000, 5000),
                           "id": np.arange(5000)})
        got = agg_topk(_ds_of(df), ["v", "id"], [False, True],
                       k=25).to_pandas()
        exp = df.sort_values(["v", "id"], ascending=[False, True])\
            .head(25).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)

    def test_dtypes_preserved(self, ray_session):
        from pgstosrt_ray.pipelines.reduce import agg_topk
        df = pd.DataFrame({"v": np.array([3, 1, 2], dtype="int64"),
                           "s": ["a", "b", "c"]})
        got = agg_topk(_ds_of(df, blocks=2), ["v", "s"], [False, True],
                       k=2)
        assert got.schema.field("v").type == pa.int64()
        assert got.num_rows == 2

    def test_fewer_rows_than_k(self, ray_session):
        from pgstosrt_ray.pipelines.reduce import agg_topk
        df = pd.DataFrame({"v": [3, 1, 2], "id": [0, 1, 2]})
        got = agg_topk(_ds_of(df, blocks=2), ["v", "id"], [False, True],
                       k=100).to_pandas()
        assert list(got["v"]) == [3, 2, 1]

    def test_agg_fold_one_blob(self, ray_session):
        from pgstosrt_ray.pipelines.reduce import agg_fold_blobs
        rng = np.random.RandomState(9)
        blobs = [rng.randint(0, 256, 32, dtype=np.uint8).tobytes()
                 for _ in range(20)]
        df = pd.DataFrame({"b": blobs})

        def merge(bs):
            out = np.zeros(32, dtype=np.uint8)
            for x in bs:
                out = np.maximum(out, np.frombuffer(x, dtype=np.uint8))
            return out.tobytes()

        got = agg_fold_blobs(_ds_of(df, blocks=5), "b", merge)
        assert got == merge(blobs)


def test_agg_topk_empty_dataset_typed(ray_session):
    """Dataset.aggregate returns None on an empty dataset (reachable
    when LSH/IVF probing yields zero hits): agg_topk must return a
    typed empty table with the FULL input schema, not raise and not
    drop non-sort columns."""
    import pyarrow as pa
    import ray.data
    from pgstosrt_ray.pipelines.reduce import agg_topk
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.float64())})
    t = agg_topk(ray.data.from_arrow(empty), ["b", "a"], [False, True], k=5)
    assert t.num_rows == 0
    assert t.schema.names == ["a", "b"]
    assert t.schema.field("a").type == pa.int64()


def test_agg_fold_blobs_empty_dataset_identity(ray_session):
    import pyarrow as pa
    import ray.data
    from pgstosrt_ray.pipelines.reduce import agg_fold_blobs
    ds = ray.data.from_arrow(pa.table({"x": pa.array([], pa.binary())}))
    assert agg_fold_blobs(ds, "x", lambda bs: b"|".join(bs)) == b""


def test_materialize_nonempty_all_empty_keeps_schema(ray_session):
    import pyarrow as pa
    import ray.data
    from pgstosrt_ray.pipelines.reduce import materialize_nonempty
    empty = pa.table({"k": pa.array([], pa.int64())})
    m = materialize_nonempty(ray.data.from_arrow(empty))
    assert m.count() == 0
    assert m.schema() is not None and m.schema().names == ["k"]


def test_agg_group_topk_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from pgstosrt_ray.pipelines.reduce import agg_group_topk
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"g": rng.integers(0, 4, 1000),
                       "v": rng.permutation(1000),
                       "id": np.arange(1000)})
    got = (agg_group_topk(
        ray.data.from_pandas(df).repartition(13),
        ["g"], ["v", "id"], [True, True], k=7)
        .to_pandas().sort_values(["g", "v"], ignore_index=True))
    want = (df.sort_values(["g", "v", "id"]).groupby("g").head(7)
            .sort_values(["g", "v"], ignore_index=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_agg_group_topk_empty_dataset_typed(ray_session):
    import pyarrow as pa
    import ray.data
    from pgstosrt_ray.pipelines.reduce import agg_group_topk
    empty = pa.table({"g": pa.array([], pa.int64()),
                      "v": pa.array([], pa.float64())})
    t = agg_group_topk(ray.data.from_arrow(empty), ["g"], ["v"],
                       [True], k=3)
    assert t.num_rows == 0 and t.schema.names == ["g", "v"]


def test_bucketed_group_agg_requires_scale_contract(ray_session):
    """Round-4 VERDICT #3: a bare call (no buckets/est_bytes and no
    domain_bound annotation) must raise, so the cluster-floor pattern
    can't be copied onto an unbounded key by accident."""
    import pytest
    import ray.data
    from pgstosrt_ray.pipelines.reduce import bucketed_group_agg
    ds = ray.data.range(10)
    with pytest.raises(ValueError, match="scale contract"):
        bucketed_group_agg(ds, ["id"], lambda g: g)
    # each leg of the contract is accepted
    for kw in ({"est_bytes": 1 << 20}, {"buckets": 4},
               {"domain_bound": "test: id domain fits one frame"}):
        out = bucketed_group_agg(
            ds, ["id"],
            lambda g: g.groupby("id", as_index=False).size(), **kw)
        assert out.count() == 10
