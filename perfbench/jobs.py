"""The Ray session and the three workloads' jobs.

A job is one closed-loop request: from the first call into the package
to the last output row consumed, written or returned. Each job's
outputs are checked against the oracle outside the timed interval.
"""

from __future__ import annotations

import contextlib
import logging
import os
import shutil
import sys
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from inputs import TEXT_QUERIES, read_golden, read_oracles, sorted_frame
from checks import check_answers, check_docs
from probe import reap_descendants

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# ~62 bytes below the temp dir
_MAX_RAY_TEMP_LEN = 44


def ray_temp_dir(cache: str) -> str | None:
    """Ray's session directory inside the checkout, when its path is
    short enough for Ray's sockets; None leaves Ray's default."""
    path = os.path.join(cache, "ray")
    return path if len(path) <= _MAX_RAY_TEMP_LEN else None


def start_ray(cache: str, num_cpus: int) -> None:
    import ray
    from ray.data import DataContext
    temp_dir = ray_temp_dir(cache)
    kwargs = {"_temp_dir": temp_dir} if temp_dir else {}
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, **kwargs)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut the session down and wait until all of its processes have
    ended (see ``probe.adopt_orphans``)."""
    import ray
    ray.shutdown()
    killed = reap_descendants()
    if killed:
        print(f"killed Ray processes that outlived shutdown: {killed}",
              file=sys.stderr)


def consume(result) -> pa.Table:
    """A query result (Dataset or Arrow table) as one Arrow table."""
    import ray
    import ray.data
    if not isinstance(result, ray.data.Dataset):
        return result
    tables = ray.get(result.to_arrow_refs())
    non_empty = [t for t in tables if t.num_rows]
    if non_empty:
        return pa.concat_tables(non_empty)
    return tables[0] if tables else pa.table({})


def collect_docs(docs_ds) -> pa.Table:
    batches = list(docs_ds.iter_batches(batch_format="pyarrow"))
    return pa.concat_tables(batches) if batches else pa.table(
        {"url": pa.array([], pa.string()), "text": pa.array([], pa.string()),
         "n_cues": pa.array([], pa.int32())})


class Result:
    """Timings and check counts of one job."""

    def __init__(self):
        self.job_s = 0.0
        self.resume_s: float | None = None
        self.checked = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, checked: int, failed: int, notes: list[str]) -> None:
        self.checked += checked
        self.failed += failed
        self.notes += notes


class HeavyExtract:
    """``pipelines.extract.extract_corpus_docs`` fully consumed."""

    def __init__(self, input_dir: str, cache: str, num_cpus: int):
        from pgstosrt_ray.config import PipelineConfig
        self.input_dir = input_dir
        self.golden = read_golden(input_dir)
        self.cfg = PipelineConfig.sized_for(num_cpus)
        self.n_docs = self.n_outputs = len(self.golden)

    def _run(self, corpus: str) -> pa.Table:
        from pgstosrt_ray.pipelines.extract import extract_corpus_docs
        return collect_docs(extract_corpus_docs(corpus, self.cfg))

    def warm(self) -> None:
        self._run(os.path.join(self.input_dir, "warm"))

    def job(self) -> Result:
        res = Result()
        t0 = time.perf_counter()
        docs = self._run(self.input_dir)
        res.job_s = time.perf_counter() - t0
        res.add(*check_docs(docs, self.golden))
        return res


class RecrawlCheckpoint:
    """``state.checkpoint.run_checkpointed`` into a fresh directory and
    ``read_output`` back; then a resume over the completed directory
    with the same parameters, which must write nothing."""

    def __init__(self, input_dir: str, cache: str, num_cpus: int):
        from pgstosrt_ray.config import PipelineConfig
        self.input_dir = input_dir
        self.golden = read_golden(input_dir)
        self.cfg = PipelineConfig.sized_for(num_cpus)
        self.out_root = os.path.join(cache, "out")
        self.n_docs = len(self.golden)
        self.n_outputs = self.n_docs + 1  # the urls and the resume

    def _fresh_dir(self) -> str:
        return os.path.join(self.out_root, uuid.uuid4().hex)

    def warm(self) -> None:
        from pgstosrt_ray.state.checkpoint import run_checkpointed
        out = self._fresh_dir()
        try:
            warm = os.path.join(self.input_dir, "warm")
            run_checkpointed(warm, out, self.cfg)
            run_checkpointed(warm, out, self.cfg)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def job(self) -> Result:
        from pgstosrt_ray.state.checkpoint import read_output, run_checkpointed
        res = Result()
        out = self._fresh_dir()
        try:
            t0 = time.perf_counter()
            first = run_checkpointed(self.input_dir, out, self.cfg)
            docs = read_output(out)
            res.job_s = time.perf_counter() - t0
            res.add(*check_docs(docs, self.golden))

            t0 = time.perf_counter()
            again = run_checkpointed(self.input_dir, out, self.cfg)
            docs_again = read_output(out)
            res.resume_s = time.perf_counter() - t0
            # the resume decision is one more checked output
            ok = (again["written_partitions"] == 0
                  and again["skipped_partitions"]
                  == first["written_partitions"]
                  and docs_again.equals(docs))
            res.add(1, 0 if ok else 1,
                    [] if ok else [f"resume changed the output: {again}"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res


class TextStats:
    """The six token-scanning queries through ``__ray_entry__.queries()``,
    each answer checked against its DuckDB or golden oracle."""

    def __init__(self, input_dir: str, cache: str, num_cpus: int):
        import __ray_entry__
        self.input_dir = input_dir
        self.queries = {n: __ray_entry__.queries()[n] for n in TEXT_QUERIES}
        self.oracles = read_oracles(input_dir)
        self.n_outputs = len(TEXT_QUERIES)
        self.n_docs = pq.ParquetDataset(
            os.path.join(input_dir, "documents.parquet")).read(
                columns=["doc_id"]).num_rows

    def answers(self, sf_dir: str, span=None) -> dict[str, pa.Table]:
        """Each query's answer; ``span(name)`` wraps each call when given."""
        span = span or (lambda _name: contextlib.nullcontext())
        out = {}
        for name, fn in self.queries.items():
            with span(f"query.{name}"):
                out[name] = consume(fn(sf_dir))
        return out

    def warm(self) -> None:
        self.answers(os.path.join(self.input_dir, "warm"))

    def job(self) -> Result:
        res = Result()
        t0 = time.perf_counter()
        answers = self.answers(self.input_dir)
        res.job_s = time.perf_counter() - t0
        res.add(*check_answers({n: sorted_frame(t)
                                for n, t in answers.items()}, self.oracles))
        return res


WORKLOADS = {
    "heavy_extract": HeavyExtract,
    "recrawl_checkpoint": RecrawlCheckpoint,
    "text_stats": TextStats,
}
