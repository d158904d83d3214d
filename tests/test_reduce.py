"""Unit tests for the in-cluster reduction helpers (reduce.py): the
round-3 replacements for driver-side partial merges."""

import os

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


GiB = 1 << 30
# Ray's `memory` resource on a 15 GB host (~70% of RAM)
HOST_MEMORY = int(10.76 * GiB)
SF_DIR = "/root/testdata/sf0.001"


def _ray_join_reservation(num_partitions, partition_size_hint):
    """Total memory Ray 2.49 reserves for a join's aggregator pool:
    min(N, max aggregators) x its own per-aggregator estimate, with
    the 128 MiB block-size fallback when no hint is passed."""
    from ray.data import DataContext
    from ray.data._internal.execution.operators.join import JoinOperator
    ctx = DataContext.get_current()
    aggs = min(num_partitions, ctx.max_hash_shuffle_aggregators
               or ctx.default_hash_shuffle_parallelism)
    return aggs * JoinOperator._estimate_aggregator_memory_allocation(
        num_aggregators=aggs, num_partitions=num_partitions,
        partition_byte_size_estimate=(partition_size_hint
                                      or ctx.target_max_block_size))


class _JoinReached(Exception):
    pass


class TestJoinSizing:
    """The hash-join fan-out and size hint come from CPUs, cluster
    memory and data size. At 32 CPUs the CPU-only fan-out (16) with
    Ray's 128 MiB default partition estimate reserved 16 x 896 MiB =
    14 GiB on a 10.76 GiB cluster: the aggregators never scheduled and
    the driver query set hung."""

    @pytest.mark.skipif(not os.path.isdir(SF_DIR), reason=f"no {SF_DIR}")
    @pytest.mark.parametrize("query", [
        "relational.q_exact_dedup_keep", "relational.q_semi_join",
        "extended.q_left_outer_join"])
    def test_join_fits_memory_at_driver_parallelism(
            self, ray_session, monkeypatch, query):
        # a 32-CPU, 10.76 GiB cluster faked inside the 4-CPU session:
        # the spy records the first join's arguments and stops there,
        # so no aggregator pool is ever asked for
        import importlib

        import ray.data
        from pgstosrt_ray.pipelines import reduce
        monkeypatch.setattr(reduce, "cluster_cpus", lambda default=8: 32)
        monkeypatch.setattr(reduce, "cluster_memory", lambda: HOST_MEMORY,
                            raising=False)
        seen = []

        def spy(self, ds, join_type, num_partitions, *args,
                partition_size_hint=None, **kw):
            seen.append((num_partitions, partition_size_hint))
            raise _JoinReached

        monkeypatch.setattr(ray.data.Dataset, "join", spy)
        mod, fn = query.split(".")
        q = getattr(importlib.import_module(f"pgstosrt_ray.pipelines.{mod}"),
                    fn)
        with pytest.raises(_JoinReached):
            q(SF_DIR)
        n, hint = seen[0]
        need = _ray_join_reservation(n, hint)
        assert need <= HOST_MEMORY, (
            f"{query}: {n} partitions reserve {need / GiB:.2f} GiB, "
            f"cluster has {HOST_MEMORY / GiB:.2f} GiB")

    def test_cpu_fanout_where_memory_does_not_bind(self, monkeypatch):
        from pgstosrt_ray.pipelines import reduce
        monkeypatch.setattr(reduce, "cluster_cpus", lambda default=8: 32)
        monkeypatch.setattr(reduce, "cluster_memory", lambda: HOST_MEMORY)
        args = reduce.join_sizing(468 << 10)
        assert args["num_partitions"] == reduce.join_partitions() == 16
        # the hint is one partition's share of the estimate
        assert args["partition_size_hint"] == -(-(468 << 10) // 16)
        assert _ray_join_reservation(**args) <= HOST_MEMORY

    def test_fanout_capped_by_memory(self, monkeypatch):
        # a join bigger than N blocks: the hint stops at Ray's 128 MiB
        # block estimate, and the fan-out shrinks until 7 x 128 MiB per
        # aggregator fits the cluster (12 x 896 MiB = 10.5 GiB)
        from ray.data import DataContext
        from pgstosrt_ray.pipelines import reduce
        monkeypatch.setattr(reduce, "cluster_cpus", lambda default=8: 32)
        monkeypatch.setattr(reduce, "cluster_memory", lambda: HOST_MEMORY)
        block = DataContext.get_current().target_max_block_size
        args = reduce.join_sizing(8 * GiB)
        assert args == {"num_partitions": 12, "partition_size_hint": block}
        assert _ray_join_reservation(**args) <= HOST_MEMORY
        assert _ray_join_reservation(13, block) > HOST_MEMORY

    def test_refuses_join_that_cannot_fit(self, monkeypatch):
        # even one partition of a 1 GiB input outgrows a 64 MiB cluster:
        # a loud refusal naming both sizes, not an unschedulable pool
        from pgstosrt_ray.pipelines import reduce
        monkeypatch.setattr(reduce, "cluster_memory", lambda: 64 << 20)
        with pytest.raises(ValueError, match=r"GiB.*0\.06 GiB"):
            reduce.join_sizing(1 * GiB)

    def test_every_join_call_site_is_sized(self):
        # every Dataset.join in the pipelines takes its fan-out and
        # size hint from join_sizing, never a bare partition count
        import ast
        import glob
        pipelines = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "pgstosrt_ray", "pipelines")
        sites, bad = 0, []
        for path in sorted(glob.glob(os.path.join(pipelines, "*.py"))):
            with open(path) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"
                        and any(k.arg == "on" for k in node.keywords)):
                    continue
                sites += 1
                sized = any(k.arg is None and isinstance(k.value, ast.Call)
                            and getattr(k.value.func, "id", "")
                            == "join_sizing" for k in node.keywords)
                bare = len(node.args) > 2 or any(
                    k.arg in ("num_partitions", "partition_size_hint")
                    for k in node.keywords)
                if bare or not sized:
                    bad.append(f"{os.path.basename(path)}:{node.lineno}")
        assert sites >= 21
        assert bad == []


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


_PKG = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pgstosrt_ray")

# keyed map_groups allowed outside reduce.bucketed_group_agg, by
# (module, groupby key): bucket ids that are persisted checkpoint unit
# ids, and walks over small fixed key domains
_MAP_GROUPS_ALLOWED = {
    ("extract", "_bucket"),       # flagship sha1(url) % B assembly
    ("extended", "_b"),           # prep_corpus dedup bucket = prep unit
    ("dedupe", "grp"),            # salted band groups = pairs-stage units
    ("relational", "l_returnflag"),  # price-histogram walk, 3 flags
    ("extended", "event_type"),   # quantile-sketch walk per event type
    ("similarity", "query_id"),   # top-k per query of a fixed batch
}


def _calls(attr: str):
    """(module, enclosing top-level function, call node) for every
    ``.<attr>(`` call under pgstosrt_ray/."""
    import ast
    import glob
    for path in sorted(glob.glob(os.path.join(_PKG, "**", "*.py"),
                                 recursive=True)):
        with open(path) as f:
            tree = ast.parse(f.read())
        module = os.path.splitext(os.path.relpath(path, _PKG))[0]
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr",
                                    getattr(node.func, "id", None)) == attr):
                    yield module, getattr(top, "name", None), node


class TestOneShuffleOneFold:
    def test_keyed_map_groups_go_through_bucketed_group_agg(self):
        # a per-key groupby whose key domain grows with the corpus
        # must use the one keyed-bucket shuffle, bucketed_group_agg
        import ast
        sites, bad = 0, []
        for module, fn, node in _calls("map_groups"):
            if not module.startswith("pipelines/"):
                continue
            sites += 1
            if (module, fn) == ("pipelines/reduce", "bucketed_group_agg"):
                continue
            grp = node.func.value
            key = (grp.args[0].value
                   if isinstance(grp, ast.Call)
                   and getattr(grp.func, "attr", "") == "groupby"
                   and grp.args and isinstance(grp.args[0], ast.Constant)
                   else None)
            if (module.split("/")[-1], key) not in _MAP_GROUPS_ALLOWED:
                bad.append(f"{module}:{node.lineno} groupby({key!r})")
        assert sites >= 8
        assert bad == []

    def test_one_aggregate_fn(self):
        # agg_topk, agg_group_topk and agg_fold_blobs share one fold
        sites = [(m, fn) for m, fn, _node in _calls("AggregateFn")]
        assert sites == [("pipelines/reduce", "_fold")]
