"""CLI entry point (SURVEY §2.1 S10: the reference's CommandLineOptions
surface — input/output/track-language/merge flags — re-expressed for
the Ray pipeline; submit via ``ray job submit -- python -m
pgstosrt_ray.run ...`` on a cluster, or run directly).

Owns its Ray session (guarded init; queries()/entry() never init).

    python -m pgstosrt_ray.run --input <corpus_dir> --output /tmp/out \
        [--lang eng] [--skip-merge] [--force-merge-all] \
        [--partitions 16] [--num-cpus 32]

Re-running with the same --output resumes: completed partitions
(manifest present) are skipped (state/checkpoint.py). A rerun with
changed output-affecting flags (--partitions, --lang, --skip-merge,
--force-merge-all, --tesseractlanguage) or a different --input fails
loudly with a ValueError naming the changed field.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="pgstosrt_ray",
                                description=__doc__.split("\n")[0])
    p.add_argument("--input", required=True,
                   help="corpus directory (pages/*.parquet inside)")
    p.add_argument("--output", required=True,
                   help="output directory (part=K/ + _manifest/)")
    p.add_argument("--lang", default=None,
                   help="only extract pages with this lang (S6 filter)")
    p.add_argument("--skip-merge", action="store_true",
                   help="disable the near-dup neighbor merge (D2)")
    p.add_argument("--force-merge-all", action="store_true",
                   help="reference-compatible flag (NOTE: replicates the "
                        "reference's inverted semantics — it disables "
                        "merging, BluRaySupParserImageSharp.cs:538)")
    p.add_argument("--tessdata", default=None,
                   help="model data directory to scan for *.traineddata "
                        "(O2, TesseractData.cs:47-60)")
    p.add_argument("--tesseractlanguage", default=None,
                   help="OCR language; must exist in --tessdata; default "
                        "= '+'-join of all available (TesseractData.cs:18-45)")
    p.add_argument("--partitions", type=int, default=16,
                   help="extract mode: the floor of the checkpoint unit "
                        "count; each unit is one assembly bucket, "
                        "sha1(url) %% max(this, input bytes / 64 MiB)")
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--mode", choices=["extract", "dedup"],
                   default="extract",
                   help="extract: checkpointed extraction over a page "
                        "corpus; dedup: checkpointed MinHash dedup over "
                        "an sf-style dir with documents.parquet (both "
                        "resume from --output on rerun)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="dedup mode: MinHash Jaccard-estimate threshold")
    args = p.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    try:
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False

        if args.mode == "dedup":
            from .state.dedup_checkpoint import run_checkpointed_dedup
            keep_ds, metrics = run_checkpointed_dedup(
                args.input, args.output, threshold=args.threshold)
            metrics["n_keepers"] = sum(
                t.num_rows for t in ray.get(keep_ds.to_arrow_refs()))
            print(json.dumps(metrics))
            return 0

        from .config import PipelineConfig
        from .state.checkpoint import run_checkpointed

        cfg = PipelineConfig(
            skip_merge=args.skip_merge,
            force_merge_all=args.force_merge_all,
            lang=args.lang,
            ocr_language=args.tesseractlanguage,
            tessdata_dir=args.tessdata,
            num_partitions=args.partitions,
        )
        if args.tessdata is not None:
            # fail fast on the driver with the reference's error message
            # (the same resolution runs again inside each engine)
            from .models import resolve_language
            resolve_language(args.tessdata, args.tesseractlanguage)
        metrics = run_checkpointed(args.input, args.output, cfg)
        print(json.dumps(metrics))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
