"""Pipeline configuration (SURVEY.md §2.10: the reference's knob
surface — CLI options CommandLineOptions.cs:5-34 + the merge flags
BluRaySupParserImageSharp.cs:15-16 — re-expressed as a dataclass)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PipelineConfig:
    # merge policy toggles (reference global flags :15-16)
    skip_merge: bool = False
    force_merge_all: bool = False
    # language filter (reference --tracklanguage, MkvUtilities.cs:76-96);
    # None = all languages
    lang: str | None = None
    # O2 model resolution (reference --tesseractlanguage + tessdata
    # scan, TesseractData.cs:18-66): when tessdata_dir is set the
    # engine validates ocr_language against the *.traineddata stems
    # (None = "+"-join of all available); resolution happens once per
    # actor/worker in the engine constructor
    ocr_language: str | None = None
    tessdata_dir: str | None = None
    # stage sizing — payload-heavy demux reads few rows per batch; the
    # extractor pool is the warm-engine stage (SURVEY §4). Demux tasks
    # reserve a fractional CPU so they interleave with the actor pool
    # (and fusion into the pool is blocked — uniform cue batching).
    demux_batch_size: int = 32
    demux_num_cpus: float = 0.5
    extract_batch_size: int = 128
    extract_concurrency: tuple[int, int] | int = (2, 8)
    extract_num_cpus: float = 1.0
    # "tasks": stateless map_batches with a per-worker-process engine
    #   singleton — elastic, no pool spin-up; the right choice when the
    #   engine constructor is cheap (ray_guide: "plain function ->
    #   stateless tasks"). The engine is still constructed once per
    #   worker process and reused across batches (warm).
    # "actors": the O1 warm actor pool (map_batches(ExtractorEngine,
    #   concurrency=N)) — the shape for engines with expensive init
    #   (real OCR models); costs pool spin-up per execution.
    extract_mode: str = "tasks"

    @staticmethod
    def sized_for(num_cpus: int) -> "PipelineConfig":
        """Pool ~0.8x CPUs, remainder for demux/read/shuffle stages."""
        return PipelineConfig(
            extract_concurrency=max(2, round(num_cpus * 0.8)))
    # checkpointed extraction (state/checkpoint.run_checkpointed): the
    # FLOOR of its unit count; each unit is one assembly bucket,
    # sha1(url) % reduce.buckets_for(input bytes, floor=num_partitions),
    # so this also floors that path's assembly parallelism
    num_partitions: int = 16
    # query-path assembly shuffle buckets (extract_docs: sha1(url) % B);
    # ~4x total cores. This is the parallelism FLOOR — extract_docs
    # raises B from the input bytes (reduce.buckets_for) so no assembly
    # bucket frame outgrows the per-task byte target at corpus scale
    assemble_buckets: int = 128
    # skew defense (SURVEY §4, north_star "explicit repartitioning to
    # defeat payload-size skew") on clusters with two or more CPUs:
    # when set, demux runs as its own operator and YIELDS cue blocks
    # bounded by this many cumulative bitmap bytes, and extract takes
    # one block per batch (batch_size=None); the input is read exactly
    # ONCE (the round-1 dual-lane design scanned the corpus twice). On
    # Ray 2.49 the map output buffer merges the yielded blocks back
    # into blocks of its own size, so the bound does not reach an
    # extract batch (ROADMAP "Known defects"). None = row-count
    # batching (demux_batch_size, extract_batch_size).
    # Ignored on a one-CPU cluster in "tasks" mode: there the read,
    # demux, extract and bucket tagging fuse into ONE operator, one
    # task per read block (bounded by Ray's target_max_block_size),
    # faster than the router on 1 vCPU (BASELINE.md "1-vCPU fused
    # page-to-span operator"; the router costs an extra operator and
    # buys nothing without a second worker, "1-vCPU flagship routing").
    skew_block_bytes: int | None = 512 * 1024

    def concurrency(self):
        c = self.extract_concurrency
        return tuple(c) if isinstance(c, (list, tuple)) else c


DEFAULT_CONFIG = PipelineConfig()
