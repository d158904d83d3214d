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
        # the re-attach joins live in reduce.attach / referenced;
        # full_outer_join joins its two folded sides in Arrow, not here
        assert sites >= 14
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


def _nodes(kind):
    """(module, enclosing top-level function, node) for every AST node
    of ``kind`` under pgstosrt_ray/."""
    import ast
    import glob
    for path in sorted(glob.glob(os.path.join(_PKG, "**", "*.py"),
                                 recursive=True)):
        with open(path) as f:
            tree = ast.parse(f.read())
        module = os.path.splitext(os.path.relpath(path, _PKG))[0]
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, kind):
                    yield module, getattr(top, "name", None), node


def _calls(attr: str):
    """(module, enclosing top-level function, call node) for every
    ``.<attr>(`` call under pgstosrt_ray/."""
    import ast
    for module, fn, node in _nodes(ast.Call):
        if getattr(node.func, "attr",
                   getattr(node.func, "id", None)) == attr:
            yield module, fn, node


def _groupby_key(node):
    """The constant key of a ``.groupby(<key>).map_groups(`` call node
    (None for any other receiver)."""
    import ast
    grp = node.func.value
    return (grp.args[0].value
            if isinstance(grp, ast.Call)
            and getattr(grp.func, "attr", "") == "groupby"
            and grp.args and isinstance(grp.args[0], ast.Constant)
            else None)


class TestOneShuffleOneFold:
    def test_keyed_map_groups_go_through_bucketed_group_agg(self):
        # a per-key groupby whose key domain grows with the corpus
        # must use the one keyed-bucket shuffle, bucketed_group_agg
        sites, bad = 0, []
        for module, fn, node in _calls("map_groups"):
            if not module.startswith("pipelines/"):
                continue
            sites += 1
            if (module, fn) == ("pipelines/reduce", "bucketed_group_agg"):
                continue
            key = _groupby_key(node)
            if (module.split("/")[-1], key) not in _MAP_GROUPS_ALLOWED:
                bad.append(f"{module}:{node.lineno} groupby({key!r})")
        assert sites >= 7   # 6 allowed sites + bucketed_group_agg
        assert bad == []

    def test_one_aggregate_fn(self):
        # agg_topk, agg_group_topk and agg_fold_blobs share one fold
        sites = [(m, fn) for m, fn, _node in _calls("AggregateFn")]
        assert sites == [("pipelines/reduce", "_fold")]


class TestOneGroupedSum:
    """Grouped sums over bounded key domains have one path, the
    ``_fold`` of ``reduce.agg_group_sum``: no Ray keyed
    ``groupby().aggregate()`` under pipelines/."""

    def test_no_keyed_ray_aggregate(self):
        import ast
        bad = [f"{m}:{node.lineno}" for m, _fn, node in _calls("aggregate")
               if m.startswith("pipelines/")
               and isinstance(node.func.value, ast.Call)
               and getattr(node.func.value.func, "attr", "") == "groupby"]
        assert bad == []

    def test_ray_aggregate_imported_only_in_reduce(self):
        import ast
        sites = {m for m, _fn, node in _nodes(ast.ImportFrom)
                 if (node.module or "").startswith("ray.data.aggregate")}
        sites |= {m for m, _fn, node in _nodes(ast.Import)
                  if any(a.name.startswith("ray.data.aggregate")
                         for a in node.names)}
        assert sites == {"pipelines/reduce"}


class TestOneBandShuffle:
    """MinHash, SimHash and embedding-LSH share one banded
    candidate-pair path: one explode, one salted band shuffle and one
    cell kernel in pipelines/dedupe.py."""

    @staticmethod
    def _functions(calls) -> set:
        return {(m, fn) for m, fn, _node in calls
                if m.startswith("pipelines/")}

    def test_one_explode_and_one_band_shuffle(self):
        salted = self._functions(_calls("salt_bucket"))
        shuffled = self._functions(
            c for c in _calls("map_groups") if _groupby_key(c[2]) == "grp")
        for sites in (salted, shuffled):
            assert len(sites) == 1, sites
            assert next(iter(sites))[0] == "pipelines/dedupe", sites

    def test_one_cell_kernel(self):
        kernels = {(m, fn) for m, fn, _node in _calls("triu_indices")
                   if m == "pipelines/dedupe"}
        assert len(kernels) == 1, kernels


def _table_of(ds) -> pa.Table:
    """A Dataset's rows as one Arrow table sorted on every column (its
    declared schema when it has no rows)."""
    import ray
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tabs:
        sch = ds.schema()
        return pa.schema(list(zip(sch.names, sch.types))).empty_table()
    t = pa.concat_tables(tabs)
    return t.sort_by([(c, "ascending") for c in t.column_names])


class TestAttach:
    """reduce.attach returns the same table on both sides of its byte
    gate (BROADCAST_BYTES forced each way) and matches a pandas inner
    merge."""

    RIGHT = pa.table({"k": pa.array([1, 2, 3, 5], pa.int64()),
                      "v": ["a", "b", "c", "e"],
                      "w": [10.0, 20.0, 30.0, 50.0]})
    LEFT = pa.table({"a": pa.array([1, 2, 2, 4, 5, 1], pa.int64()),
                     "b": pa.array([3, 3, 1, 1, 9, 2], pa.int64()),
                     "x": ["p", "q", "r", "s", "t", "u"]})

    @staticmethod
    def _ds(t: pa.Table):
        import ray.data
        # two blocks, so a batch never sees the whole left side
        return ray.data.from_arrow([t.slice(0, t.num_rows // 2),
                                    t.slice(t.num_rows // 2)])

    def _both_sides(self, monkeypatch, left, right, on, bound=1 << 40):
        """attach at ``bound`` (expected to broadcast) and forced onto
        the join side; returns (broadcast table, join table)."""
        from pgstosrt_ray.pipelines import reduce
        sides, real = [], reduce.broadcast_fits

        def spy(est):
            sides.append(real(est))
            return sides[-1]

        monkeypatch.setattr(reduce, "broadcast_fits", spy)
        out = []
        for b in (bound, -1):
            monkeypatch.setattr(reduce, "BROADCAST_BYTES", b)
            sides.clear()
            out.append(_table_of(reduce.attach(
                self._ds(left), self._ds(right), "k", on)))
            # the attach gate is the first decision of each call
            assert sides and sides[0] == (b > 0), sides
        return out

    @staticmethod
    def _merge(left, right, on) -> pa.Table:
        df = left.to_pandas()
        for col, m in on.items():
            r = right.to_pandas()[["k", *m]].rename(
                columns={"k": col, **m})
            df = df.merge(r, on=col, how="inner")
        t = pa.Table.from_pandas(df, preserve_index=False)
        return t.sort_by([(c, "ascending") for c in t.column_names])

    def test_absent_key_dropped_duplicates_kept(self, ray_session,
                                                monkeypatch):
        on = {"a": {"v": "va"}}
        bcast, join = self._both_sides(monkeypatch, self.LEFT,
                                       self.RIGHT, on)
        assert bcast.equals(join)
        assert bcast.equals(self._merge(self.LEFT, self.RIGHT, on))
        # a=4 has no right row; a=1 and a=2 appear twice each
        assert sorted(bcast.column("a").to_pylist()) == [1, 1, 2, 2, 5]
        assert bcast.column_names == ["a", "b", "x", "va"]

    def test_two_on_columns(self, ray_session, monkeypatch):
        on = {"a": {"v": "va", "w": "wa"}, "b": {"v": "vb"}}
        bcast, join = self._both_sides(monkeypatch, self.LEFT,
                                       self.RIGHT, on)
        assert bcast.equals(join)
        assert bcast.equals(self._merge(self.LEFT, self.RIGHT, on))
        assert bcast.num_rows == 4    # rows with both keys present
        assert bcast.column_names == ["a", "b", "x", "va", "wa", "vb"]

    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_empty_side_typed(self, ray_session, monkeypatch, empty_side):
        from pgstosrt_ray.pipelines import reduce
        left = (self.LEFT.slice(0, 0) if empty_side == "left"
                else self.LEFT)
        right = (self.RIGHT.slice(0, 0) if empty_side == "right"
                 else self.RIGHT)
        on = {"a": {"v": "va"}, "b": {"w": "wb"}}
        want = pa.schema(list(self.LEFT.schema)
                         + [("va", pa.string()), ("wb", pa.float64())])
        for bound in (1 << 40, -1):
            monkeypatch.setattr(reduce, "BROADCAST_BYTES", bound)
            got = _table_of(reduce.attach(
                self._ds(left), self._ds(right), "k", on))
            assert got.num_rows == 0
            assert got.schema.equals(want)

    def test_referenced_subset_of_large_right(self, ray_session,
                                              monkeypatch):
        # a right side larger than the bound whose referenced rows fit:
        # only those rows are collected (the <= 8192 pairs against
        # corpus-wide signatures shape)
        import ray.data
        n = 4000
        right = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                          "v": pa.array([bytes([i % 251]) * 256
                                         for i in range(n)], pa.binary())})
        left = pa.table({"a": pa.array([7, 7, 3999, 12345], pa.int64()),
                         "b": pa.array([0, 1, 2, 3], pa.int64()),
                         "x": ["p", "q", "r", "s"]})
        on = {"a": {"v": "va"}, "b": {"v": "vb"}}
        size = ray.data.from_arrow(right).size_bytes()
        bcast, join = self._both_sides(monkeypatch, left, right, on,
                                       bound=size // 100)
        assert bcast.equals(join)
        assert bcast.equals(self._merge(left, right, on))
        assert bcast.column("b").to_pylist() == [0, 1, 2]

    def test_lazy_left(self, ray_session, monkeypatch):
        # a left that is not materialized is never counted: the gate
        # weighs the whole right side, and left_bytes sizes the join
        from pgstosrt_ray.pipelines import reduce
        on = {"a": {"v": "va"}, "b": {"w": "wb"}}
        out = []
        for bound in (1 << 40, -1):
            monkeypatch.setattr(reduce, "BROADCAST_BYTES", bound)
            lazy = self._ds(self.LEFT).map_batches(
                lambda t: t, batch_format="pyarrow")
            out.append(_table_of(reduce.attach(
                lazy, self._ds(self.RIGHT), "k", on, left_bytes=1 << 10)))
        assert out[0].equals(out[1])
        assert out[0].equals(self._merge(self.LEFT, self.RIGHT, on))


# ray.put sites that are not keyed re-attaches: the broadcast IS the
# query (broadcast/cross joins, bloom filters, ANN query matrices, a
# rank lookup into a length histogram), the CC gate's driver
# union-find, which decides where the compute runs, and
# unigram_logprob's map-only scoring pass (it takes reduce's gate)
_RAY_PUT_ALLOWED = {
    ("pipelines/reduce", "attach"),
    ("pipelines/reduce", "referenced"),
    ("pipelines/relational", "q_broadcast_join"),
    ("pipelines/extended", "q_cross_join"),
    ("pipelines/extended", "_bloom_prefilter"),
    ("pipelines/extended", "q_percent_rank_chars"),
    ("pipelines/similarity", "brute_force_topk_multi"),
    ("pipelines/dedupe", "_propagate_broadcast"),
    ("pipelines/webops", "q_unigram_logprob"),
}


class TestOneReattach:
    def test_no_broadcast_limit_compared_outside_reduce(self):
        # the re-attach gate is reduce.broadcast_fits; the one other
        # counted gate is label_propagation's CC edge gate
        import ast
        bad = []
        for module, fn, node in _nodes(ast.Compare):
            names = {getattr(n, "id", getattr(n, "attr", ""))
                     for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            limits = {n for n in names
                      if "BROADCAST" in n or n.endswith("_LIMIT")}
            if (limits and module.startswith("pipelines/")
                    and module != "pipelines/reduce"
                    and ((module, fn), limits)
                    != (("pipelines/dedupe", "label_propagation"),
                        {"CC_BROADCAST_EDGES"})):
                bad.append(f"{module}:{node.lineno} {sorted(limits)}")
        assert bad == []

    def test_ray_put_only_in_attach_or_allowlisted(self):
        import ast
        sites = {(m, fn) for m, fn, node in _nodes(ast.Call)
                 if isinstance(node.func, ast.Attribute)
                 and node.func.attr == "put"
                 and getattr(node.func.value, "id", "") == "ray"}
        assert ("pipelines/reduce", "attach") in sites
        assert sites - _RAY_PUT_ALLOWED == set()


def _text_stats_corpus(tmp_dir: str) -> str:
    """The documents table of perfbench's text_stats workload."""
    import importlib.util

    import pyarrow.parquet as pq
    root = os.path.dirname(_PKG)
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(root, "perfbench", "inputs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    n = mod.SIZES["text_stats"]
    pq.write_table(mod.base_documents(n),
                   os.path.join(tmp_dir, "documents.parquet"))
    return tmp_dir


@pytest.mark.parametrize("corpus", ["sf0.001", "sf0.01", "text_stats"])
def test_reattach_gates_broadcast_on_test_corpora(ray_session, monkeypatch,
                                                  tmp_path, corpus):
    """Every re-attach gate decision of the touched queries takes the
    broadcast side on the test corpora and the text_stats bench corpus,
    as the row-count gates it replaced did (<= 2^20 tokens, <= 8192
    pairs): the byte bound moves no small input onto the join path."""
    from pgstosrt_ray.pipelines import dedupe, extended, reduce, webops
    seen, real = [], reduce.broadcast_fits

    def spy(est):
        seen.append((est, real(est)))
        return seen[-1][1]

    monkeypatch.setattr(reduce, "broadcast_fits", spy)
    monkeypatch.setattr(webops, "broadcast_fits", spy)
    queries = {"tfidf_top_term": extended.q_tfidf_top_term,
               "bigram_pmi": webops.q_bigram_pmi,
               "unigram_logprob": webops.q_unigram_logprob}
    if corpus == "text_stats":
        sf_dir = _text_stats_corpus(str(tmp_path))
    else:
        sf_dir = os.path.join(os.path.dirname(SF_DIR), corpus)
        queries.update({"minhash_pairs": dedupe.minhash_candidate_pairs,
                        "minhash_dedup_keep": dedupe.minhash_dedup_keep,
                        "ngram_jaccard_pairs": dedupe.ngram_jaccard_verify})
    for name, q in queries.items():
        seen.clear()
        q(sf_dir)
        assert seen, name
        assert all(fits for _est, fits in seen), (name, seen)


class TestAggGroupSum:
    """reduce.agg_group_sum against a pandas groupby, on pandas and
    Arrow blocks, and its typed answer on zero rows."""

    DF = pd.DataFrame({
        "k": np.random.RandomState(3).choice(list("abcd"), 400),
        "j": np.random.RandomState(4).randint(0, 3, 400).astype("int64"),
        "v": np.random.RandomState(5).randint(-50, 50, 400)
        .astype("int32")})

    def test_matches_pandas_groupby(self, ray_session):
        import ray.data
        from pgstosrt_ray.pipelines.reduce import agg_group_sum
        want = (self.DF.groupby(["k", "j"], as_index=False)
                .agg(n=("v", "size"), s=("v", "sum"))
                .astype({"n": "int64", "s": "int64"}))
        arrow = pa.Table.from_pandas(self.DF, preserve_index=False)
        for ds in (_ds_of(self.DF),
                   ray.data.from_arrow([arrow.slice(i, 50)
                                        for i in range(0, 400, 50)])):
            got = agg_group_sum(ds, ["k", "j"], {"n": None, "s": "v"})
            assert got.schema == pa.schema([
                ("k", pa.string()), ("j", pa.int64()),
                ("n", pa.int64()), ("s", pa.int64())])
            pd.testing.assert_frame_equal(got.to_pandas(), want)
        distinct = agg_group_sum(_ds_of(self.DF), ["k"], {})
        assert distinct.column("k").to_pylist() == list("abcd")

    def test_zero_rows_typed(self, ray_session):
        import ray.data
        from pgstosrt_ray.pipelines.reduce import agg_group_sum
        empty = ray.data.from_arrow(pa.Table.from_pandas(
            self.DF, preserve_index=False).slice(0, 0))
        got = agg_group_sum(empty, ["k"], {"n": None, "s": "v"})
        assert got.num_rows == 0
        assert got.schema == pa.schema([("k", pa.string()),
                                        ("n", pa.int64()),
                                        ("s", pa.int64())])
        got = agg_group_sum(
            empty, ["k2"], {"s": "w"}, of_batch=lambda t: pa.table({
                "k2": t.column("j"),
                "w": t.column("v").cast(pa.float64())}))
        assert got.schema == pa.schema([("k2", pa.int64()),
                                        ("s", pa.float64())])


# the queries whose grouped sum runs through reduce.agg_group_sum
_GROUPED_SUM_QUERIES = [
    "full_outer_join", "rollup_counts", "approx_quantiles", "value_stats",
    "value_histogram", "events_per_day", "distinct_users_per_type",
    "groupby_agg", "hash_join", "distinct_pairs", "source_stats",
    "url_section_stats", "dup_rate_by_source", "perplexity_buckets"]


def _answer(result) -> pa.Table:
    """A query's answer (a table, or a Dataset) as one Arrow table."""
    return result if isinstance(result, pa.Table) else _table_of(result)


def _fields(t: pa.Table) -> dict:
    return {f.name: f.type for f in t.schema}


def _empty_copy(dst, empty_tables=None) -> str:
    """sf0.001 copied to ``dst`` with ``empty_tables`` (default: every
    table) cut to zero rows; returns ``dst``."""
    import pyarrow.parquet as pq
    os.makedirs(dst, exist_ok=True)
    for f in os.listdir(SF_DIR):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(SF_DIR, f))
            if empty_tables is None or f[:-8] in empty_tables:
                t = t.slice(0, 0)
            pq.write_table(t, os.path.join(str(dst), f))
    return str(dst)


def _typed_like_sf0001(names, sf_dir) -> list:
    """The queries among ``names`` whose answer on ``sf_dir`` lacks the
    column names and Arrow types of their sf0.001 answer."""
    import __ray_entry__
    qs, bad = __ray_entry__.queries(), []
    for name in names:
        want = _fields(_answer(qs[name](SF_DIR)))
        try:
            got = _fields(_answer(qs[name](sf_dir)))
        except Exception as e:            # noqa: BLE001 - reported below
            got = f"{type(e).__name__}: {str(e)[:120]}"
        if got != want:
            bad.append(f"{name}: {got} != {want}")
    return bad


def test_grouped_sum_queries_typed_on_zero_rows(ray_session, tmp_path):
    """Every table empty: each re-routed query answers with the column
    names and Arrow types of its sf0.001 answer (no schemaless Dataset,
    no error from an empty join side)."""
    bad = _typed_like_sf0001(
        [n for n in _GROUPED_SUM_QUERIES
         if n != "url_section_stats"],    # reads the page corpus
        _empty_copy(tmp_path))
    assert not bad, "\n".join(bad)


def test_bucketed_queries_typed_on_zero_rows(ray_session, tmp_path):
    """A zero-row table sizes a bucketed shuffle with est_bytes=0,
    which is a scale contract (sized from the data), not a missing
    one: each query answers typed and empty instead of raising."""
    bad = _typed_like_sf0001(
        ["exact_dedup", "exact_dedup_keep", "distinct_users_exact"],
        _empty_copy(tmp_path))
    assert not bad, "\n".join(bad)


_JOIN_QUERIES = ["semi_join", "anti_join", "left_outer_join",
                 "semi_join_bloom"]


def test_join_queries_typed_on_empty_sides(ray_session, tmp_path):
    """Every table empty: each join query answers with the column
    names and Arrow types of its sf0.001 answer; with only its right
    side empty it answers what the SQL oracle does (every customer
    with 0 orders, every order without lineitems)."""
    import duckdb
    import __ray_entry__
    bad = _typed_like_sf0001(_JOIN_QUERIES, _empty_copy(tmp_path / "all"))
    assert not bad, "\n".join(bad)
    qs, sql = __ray_entry__.queries(), __ray_entry__.oracle_sql()
    for empty in ("orders", "lineitem"):
        sf = _empty_copy(tmp_path / empty, {empty})
        con = duckdb.connect()
        for f in os.listdir(sf):
            con.sql(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                    f"'{os.path.join(sf, f)}'")
        for name in _JOIN_QUERIES:
            got = _answer(qs[name](sf))
            want = con.sql(sql[name]).arrow()
            keys = [(c, "ascending") for c in want.column_names]
            assert (got.select(want.column_names).sort_by(keys).to_pylist()
                    == want.sort_by(keys).to_pylist()), (empty, name)


def test_grouped_sum_query_types_equal_oracle(ray_session):
    """At sf0.01 each re-routed query with a DuckDB oracle returns the
    oracle's exact Arrow types (timestamp units included)."""
    import __ray_entry__
    import duckdb
    sf = os.path.join(os.path.dirname(SF_DIR), "sf0.01")
    sql, qs, bad = __ray_entry__.oracle_sql(), __ray_entry__.queries(), []
    con = duckdb.connect()
    for f in os.listdir(sf):
        if f.endswith(".parquet"):
            con.sql(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                    f"'{os.path.join(sf, f)}'")
    checked = [n for n in _GROUPED_SUM_QUERIES if n in sql]
    for name in checked:
        got = _fields(_answer(qs[name](sf)))
        want = _fields(con.sql(sql[name]).arrow())
        if got != want:
            bad.append(f"{name}: {got} != {want}")
    assert len(checked) == len(_GROUPED_SUM_QUERIES)
    assert not bad, "\n".join(bad)


def test_full_outer_join_with_one_empty_side(ray_session, tmp_path):
    """A full outer join keeps the rows of its non-empty side (the
    other side's count is 0), as the DuckDB oracle does."""
    import duckdb
    import pyarrow.parquet as pq
    from pgstosrt_ray.pipelines import extended
    for name in ("customer", "supplier"):
        t = pq.read_table(os.path.join(SF_DIR, f"{name}.parquet"))
        pq.write_table(t.slice(0, 0) if name == "supplier" else t,
                       str(tmp_path / f"{name}.parquet"))
    con = duckdb.connect()
    for name in ("customer", "supplier"):
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM "
                f"'{tmp_path / name}.parquet'")
    want = con.sql(extended.SQL_FULL_OUTER_JOIN).arrow()
    got = _answer(extended.q_full_outer_join(str(tmp_path)))
    assert want.num_rows > 0
    assert got.sort_by("nationkey").equals(want.sort_by("nationkey"))


# the schema-pinned window queries and the text_stats workload's
# queries: each aggregates through reduce.bucketed_group_agg (all but
# bm25_search, which folds)
_WINDOW_QUERIES = ["window_fill", "asof_join", "asof_join_forward",
                   "running_total", "rolling_sum", "window_funnel"]
_TEXT_STATS_QUERIES = ["top_tokens", "idf_table", "bigram_pmi",
                       "tfidf_top_term", "bm25_search", "unigram_logprob"]


def _oracle_con(sf_dir: str):
    import duckdb
    con = duckdb.connect()
    for f in os.listdir(sf_dir):
        if f.endswith(".parquet"):
            con.sql(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                    f"'{os.path.join(sf_dir, f)}'")
    return con


def _oracle_sql(name: str) -> str | None:
    from pgstosrt_ray.pipelines import extended, relational, webops
    return {**relational.ORACLE_SQL, **webops.ORACLE_SQL,
            **extended.ORACLE_SQL}.get(name)


def _sorted_frame(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


@pytest.mark.parametrize("name", _TEXT_STATS_QUERIES + _WINDOW_QUERIES)
def test_bucketed_shuffle_side_matches_oracle(ray_session, monkeypatch,
                                              name):
    """BROADCAST_BYTES = -1 forces every bound onto its distributed
    side (the keyed-bucket shuffle, attach's hash joins); each answer
    still equals its DuckDB or golden oracle at sf0.001."""
    import ray.data
    import __ray_entry__
    from pgstosrt_ray import golden
    from pgstosrt_ray.pipelines import reduce
    monkeypatch.setattr(reduce, "BROADCAST_BYTES", -1)
    keys, real = [], ray.data.Dataset.groupby
    monkeypatch.setattr(ray.data.Dataset, "groupby",
                        lambda self, key, **kw: keys.append(key)
                        or real(self, key, **kw))
    got = _answer(__ray_entry__.queries()[name](SF_DIR))
    # bm25_search folds; every other query shuffles on the bucket tag
    assert ("_b" in keys) == (name != "bm25_search"), keys
    sql, con = _oracle_sql(name), _oracle_con(SF_DIR)
    want = (con.sql(sql).arrow() if sql
            else golden.GOLDEN_BUILDERS[name][0](SF_DIR))
    if not isinstance(want, pa.Table):
        want = pa.Table.from_pandas(want, preserve_index=False)
    assert got.num_rows > 0
    pd.testing.assert_frame_equal(_sorted_frame(got), _sorted_frame(want),
                                  check_dtype=False)


def test_pinned_bucketed_queries_typed_like_oracle(ray_session, tmp_path):
    """The six schema-pinned window queries and tfidf_top_term return
    the DuckDB oracle's Arrow types at sf0.001 and on a zero-row copy
    of it (a zero-row input answers its pinned schema's empty table)."""
    import __ray_entry__
    qs, bad = __ray_entry__.queries(), []
    empty = _empty_copy(tmp_path)
    for sf in (SF_DIR, empty):
        con = _oracle_con(sf)
        for name in _WINDOW_QUERIES + ["tfidf_top_term"]:
            want = _fields(con.sql(_oracle_sql(name)).arrow())
            try:
                got = _fields(_answer(qs[name](sf)))
            except Exception as e:        # noqa: BLE001 - reported below
                got = f"{type(e).__name__}: {str(e)[:120]}"
            if got != want:
                bad.append(f"{sf} {name}: {got} != {want}")
    assert not bad, "\n".join(bad)


# the bucketed_group_agg queries that pin their output schema to their
# DuckDB oracle's types
_PINNED_BUCKETED_QUERIES = ["min_per_group", "event_pairs_range",
                            "sessionize", "sample_per_key",
                            "top_orders_per_cust"]


def test_pinned_bucketed_queries_typed_on_zero_rows(ray_session, tmp_path):
    """Every table empty: each query answers a zero-row table with the
    column names and Arrow types of its sf0.001 answer."""
    import __ray_entry__
    sf = _empty_copy(tmp_path)
    bad = _typed_like_sf0001(_PINNED_BUCKETED_QUERIES, sf)
    assert not bad, "\n".join(bad)
    qs = __ray_entry__.queries()
    for name in _PINNED_BUCKETED_QUERIES:
        assert _answer(qs[name](sf)).num_rows == 0, name


def test_pinned_bucketed_query_types_equal_oracle(ray_session):
    """At sf0.01 each query returns its DuckDB oracle's exact Arrow
    types (timestamp units included)."""
    import __ray_entry__
    import duckdb
    sf = os.path.join(os.path.dirname(SF_DIR), "sf0.01")
    sql, qs, bad = __ray_entry__.oracle_sql(), __ray_entry__.queries(), []
    con = duckdb.connect()
    for f in os.listdir(sf):
        if f.endswith(".parquet"):
            con.sql(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                    f"'{os.path.join(sf, f)}'")
    for name in _PINNED_BUCKETED_QUERIES:
        got = _fields(_answer(qs[name](sf)))
        want = _fields(con.sql(sql[name]).arrow())
        if got != want:
            bad.append(f"{name}: {got} != {want}")
    assert not bad, "\n".join(bad)
