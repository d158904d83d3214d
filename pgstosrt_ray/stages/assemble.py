"""Assemble stage: spans -> docs (SURVEY.md §2.5 A2-A3, §2.6 R1, §2.7 D1-D2).

Runs inside ``groupby(_bucket).map_groups`` — the pipeline's ONE wide
shuffle, keyed on sha1(url) % B (small-int key, B groups) rather than
the raw url (millions of tiny groups at scale). Per url: order cues by
the deterministic key (warc_ts, row_key, seq), dedupe identical rows,
then apply the reference's list passes via the SAME functions the
oracle uses (merge.end_time_fill / merge.merge_cue_runs —
byte-identity by construction), then number cues 1..n and serialize
SRT (srt.py).

The merge's decode-dependent heuristics read the metadata the extract
stage precomputed (DecodeMeta), so no bitmaps are decoded here. Data
access is columnar (one to_pylist per column per bucket), not row-wise.
"""

from __future__ import annotations

import pyarrow as pa

from ..decode import DecodeMeta
from ..merge import CueView, end_time_fill, merge_cue_runs
from ..srt import serialize_srt, ticks_to_ms

DOCS_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("text", pa.string()),
    ("n_cues", pa.int32()),
])

_COLS = ["url", "warc_ts", "row_key", "seq", "start_ticks", "end_ticks",
         "width", "height", "n_objects", "palette_count", "obj_lens",
         "obj_shas", "dec_h", "dec_w", "nt_h", "nt_w", "pixel_sha", "text"]


def _assemble_one_url(c: dict, lo: int, hi: int, skip_merge: bool,
                      force_merge_all: bool) -> tuple[str, int]:
    """Columns dict + row range for ONE url -> (srt_text, n_cues)."""
    order = sorted(range(lo, hi), key=lambda i: (
        c["warc_ts"][i], c["row_key"][i], c["seq"][i]))
    # exact-duplicate payload drop (oracle step 1): duplicate
    # (warc_ts, html) rows produce identical (warc_ts, row_key, seq)
    # keys; keep the first of each
    rows = []
    seen = set()
    for i in order:
        if c["seq"][i] < 0:
            continue  # sentinel (all-unparseable payload): anchors the
            #           url in this group but carries no cue
        k = (c["warc_ts"][i], c["row_key"][i], c["seq"][i])
        if k in seen:
            continue
        seen.add(k)
        rows.append(i)

    views = [CueView(
        start_ticks=c["start_ticks"][i], end_ticks=c["end_ticks"][i],
        width=c["width"][i], height=c["height"][i],
        n_objects=c["n_objects"][i],
        obj_keys=tuple(((ln, sha),) for ln, sha in
                       zip(c["obj_lens"][i], c["obj_shas"][i])),
        palette_count=c["palette_count"][i],
    ) for i in rows]
    end_time_fill(views)
    keep_nonempty = [k for k, v in enumerate(views) if v.n_objects > 0]
    views_f = [views[k] for k in keep_nonempty]
    rows_f = [rows[k] for k in keep_nonempty]

    def get_meta(k: int) -> DecodeMeta:
        i = rows_f[k]
        return DecodeMeta(dec_h=c["dec_h"][i], dec_w=c["dec_w"][i],
                          nt_h=c["nt_h"][i], nt_w=c["nt_w"][i],
                          pixel_sha=c["pixel_sha"][i])

    kept = merge_cue_runs(views_f, get_meta, skip_merge=skip_merge,
                          force_merge_all=force_merge_all)
    triples = [(ticks_to_ms(views_f[k].start_ticks),
                ticks_to_ms(views_f[k].end_ticks),
                c["text"][rows_f[k]]) for k in kept]
    return serialize_srt(triples), len(triples)


def assemble_bucket(group: pa.Table, *, skip_merge: bool = False,
                    force_merge_all: bool = False) -> pa.Table:
    """One hash-bucket of spans -> one docs row per url in the bucket."""
    tbl = group.sort_by("url")
    c = {name: tbl.column(name).to_pylist() for name in _COLS}
    urls = c["url"]
    out_url, out_text, out_n = [], [], []
    start = 0
    n = len(urls)
    for i in range(1, n + 1):
        if i == n or urls[i] != urls[start]:
            text, n_cues = _assemble_one_url(c, start, i, skip_merge,
                                             force_merge_all)
            out_url.append(urls[start])
            out_text.append(text)
            out_n.append(n_cues)
            start = i
    return pa.Table.from_pydict(
        {"url": out_url, "text": out_text, "n_cues": out_n},
        schema=DOCS_SCHEMA)

