"""Output checks: every timed output is compared with its oracle.

An output is one url's document on the page workloads and one query
answer on ``text_stats``. Each check returns (checked, failed, notes);
a raised run is counted by the caller as all of its outputs failed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def check_docs(docs: pa.Table, golden: dict[str, tuple[str, int]]
               ) -> tuple[int, int, list[str]]:
    """Url set, ``text`` and ``n_cues`` of each url, byte for byte.
    A missing url, a wrong one and an unexpected or repeated url each
    count as one failed output."""
    urls = docs.column("url").to_pylist()
    texts = docs.column("text").to_pylist()
    n_cues = docs.column("n_cues").to_pylist()
    seen: set[str] = set()
    failed, notes = 0, []
    for url, text, n in zip(urls, texts, n_cues):
        want = golden.get(url)
        if url in seen or want is None:
            failed += 1
            notes.append(f"unexpected or repeated url {url}")
        elif text != want[0] or n != want[1]:
            failed += 1
            notes.append(f"wrong document for {url}")
        seen.add(url)
    missing = len(golden.keys() - seen)
    if missing:
        notes.append(f"{missing} url(s) missing")
    return len(golden), failed + missing, notes


def frames_equal(got, want) -> bool:
    """Column-sorted, row-sorted frames compared with ``==`` (exact,
    floats included); dtype width may differ (int32 vs int64)."""
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    return all(bool(np.all(got[c].to_numpy() == want[c].to_numpy()))
               for c in got.columns)


def check_answers(answers: dict, oracles: dict
                  ) -> tuple[int, int, list[str]]:
    """``answers``/``oracles``: query name -> sorted frame."""
    bad = [name for name in oracles
           if name not in answers or not frames_equal(answers[name],
                                                      oracles[name])]
    return len(oracles), len(bad), [f"wrong answer for {n}" for n in bad]
