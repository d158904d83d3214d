"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Plants one fault per workload between the program and the checks -- a
one-byte change in one url's text (heavy_extract), a dropped url
(recrawl_checkpoint) and a wrong row in one query answer (text_stats)
-- and asserts that each run reports a nonzero error rate, prints
``"correct": false`` and exits non-zero. Exit code 0 when every planted
fault was caught.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import run  # noqa: E402


def flip_one_byte(table):
    import pyarrow as pa
    texts = table.column("text").to_pylist()
    i = next(k for k, t in enumerate(texts) if t)
    t = texts[i]
    texts[i] = t[:-1] + chr(ord(t[-1]) ^ 1)
    return table.set_column(table.schema.get_field_index("text"), "text",
                            pa.array(texts, pa.string()))


def drop_one_url(table):
    return table.slice(1)


def wrong_query_row(table):
    """Replace the first row of the ``bigram_pmi`` answer with a copy of
    its second row."""
    import pyarrow as pa
    if table.num_rows < 2 or "pmi" not in table.column_names:
        return table
    return pa.concat_tables([table.slice(1, 1), table.slice(1)])


@contextlib.contextmanager
def planted(obj, attr: str, fault):
    original = getattr(obj, attr)
    setattr(obj, attr, lambda *a, **k: fault(original(*a, **k)))
    try:
        yield
    finally:
        setattr(obj, attr, original)


def run_with(workload: str, obj, attr: str, fault) -> tuple[int, dict, dict]:
    out = io.StringIO()
    with planted(obj, attr, fault), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0",
                         "--seconds", "1", "--trace", "0"])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    sys.path.insert(0, run.ROOT)
    import pgstosrt_ray.state.checkpoint as checkpoint
    run.SESSIONS = 1
    cases = [
        ("one-byte text change", "heavy_extract", jobs, "collect_docs",
         flip_one_byte),
        ("dropped url", "recrawl_checkpoint", checkpoint, "read_output",
         drop_one_url),
        ("wrong query row", "text_stats", jobs, "consume", wrong_query_row),
    ]
    ok = True
    for label, workload, obj, attr, fault in cases:
        code, report, result = run_with(workload, obj, attr, fault)
        caught = (code != 0 and result["correct"] is False
                  and result["failed"] > 0 and report["error_rate"] > 0)
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}: {label} on {workload} "
              f"(exit {code}, failed {result['failed']} of "
              f"{result['attempted']}, error_rate "
              f"{report['error_rate']:.4f})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
