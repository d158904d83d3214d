"""Deterministic text <-> bitmap glyph codec — the "OCR engine".

The container has no Tesseract, so per SURVEY.md §2.3 O1 the OCR engine
is a deterministic region->text decoder with the same actor shape the
real engine would have (model "loaded" once per actor, batched decode
per call). The codec is fixture-defined:

Encoding (used only by the fixture generator): text of length n renders
as a palette-index bitmap of height 16*s and width (n+2)*s for integer
scale s >= 1. Column blocks, each s pixels wide:
  [marker][char 0][char 1]...[char n-1][marker]
The marker blocks are fully set (all 16*s rows). Char block i has the
pixel block at row r set iff bit r of ord(text[i]) is set (codepoints
must be < 0x10000; every codepoint >= 0x20 sets at least one bit).
Newlines are encoded like any other codepoint, so multi-line cue text
round-trips. The scale knob exists to exercise the merge heuristics'
decoded-extent thresholds (>110px high / >300px wide,
/root/reference/src/PgsToSrt/BluRaySup/BluRaySupParserImageSharp.cs:552-555).

Decoding ("OCR") works on the decoded canvas only through its opacity
(alpha > 0): a column whose longest vertical opaque run L satisfies
L >= 16 and L % 16 == 0 is a marker candidate with scale s = L // 16.
Adjacent candidate columns with the same (top, L) fuse into a marker
block; consecutive marker blocks with the same (top, L) delimit one
glyph block, decoded by sampling block centers. Multiple glyph blocks
(multi-object compositions) are decoded in (top, left) order and joined
with a newline. Anything unreadable decodes to "".

The decoder has two parts. The first finds each column's longest opaque
run, fuses the markers, pairs them and samples the glyph blocks into
``(top, x0, codepoints)`` segments: ``column_runs`` + ``ocr_runs`` here
over a bool mask (the reference, and the path without a C compiler),
or the one C kernel ``_native.scan_ocr`` straight from the
palette-index image, which the pipeline uses
(decode.cue_meta_and_text). The second, ``segments_text``, is shared:
it orders the segments by (top, left), decodes them and joins them.
"""

from __future__ import annotations

import numpy as np

GLYPH_ROWS = 16
# weight of glyph row r in a codepoint: bit r
_ROW_BITS = (1 << np.arange(GLYPH_ROWS, dtype=np.uint32))[:, None]


def render_text(text: str, scale: int = 1, color_index: int = 1) -> np.ndarray:
    """Render ``text`` to a palette-index bitmap (uint8), see module doc."""
    n = len(text)
    h, w = GLYPH_ROWS * scale, (n + 2) * scale
    cols = np.zeros((GLYPH_ROWS, n + 2), dtype=np.uint8)
    cols[:, 0] = color_index
    cols[:, -1] = color_index
    for i, ch in enumerate(text):
        cp = ord(ch)
        if cp >= 0x10000:
            raise ValueError(f"codepoint out of glyph range: {cp:#x}")
        for r in range(GLYPH_ROWS):
            if cp >> r & 1:
                cols[r, i + 1] = color_index
    return np.repeat(np.repeat(cols, scale, axis=0), scale, axis=1)


def column_runs(opaque: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-column longest vertical True-run of a bool mask
    (the numpy reference of ``_native.scan_ocr``'s column scan).
    Returns dense (tops, lens) int arrays, one entry per column (len 0:
    no run); ties broken by the earliest (topmost) run."""
    h, w = opaque.shape
    tops = np.zeros(w, np.int64)
    lens = np.zeros(w, np.int64)
    padded = np.zeros((h + 2, w), dtype=np.int8)
    padded[1:-1] = opaque
    d = np.diff(padded, axis=0)
    sr, sc = np.nonzero(d == 1)    # run starts, row-major => sorted by (row, col)
    er, _ec = np.nonzero(d == -1)  # run ends, same run order per column
    if sr.size == 0:
        return tops, lens
    order = np.lexsort((sr, sc))   # group by column, row ascending
    sc, sr, er = sc[order], sr[order], er[np.lexsort((er, _ec))]
    run_lens = er - sr
    # pick per-column max length, earliest on ties: sort by (col, -len, row)
    pick = np.lexsort((sr, -run_lens, sc))
    cols_sorted = sc[pick]
    first = np.concatenate(([0], np.flatnonzero(np.diff(cols_sorted)) + 1))
    sel = pick[first]
    tops[sc[sel]] = sr[sel]
    lens[sc[sel]] = run_lens[sel]
    return tops, lens


def ocr_bitmap(rgba: np.ndarray) -> str:
    """Decode text from an RGBA canvas via the alpha channel."""
    return ocr_mask(rgba[:, :, 3] > 0)


def ocr_mask(opaque: np.ndarray) -> str:
    """Decode text from a per-pixel opacity mask (numpy column scan;
    the pipeline scans the palette-index image instead, see decode.py)."""
    tops, lens = column_runs(opaque)
    return ocr_runs(tops, lens, lambda ys, xs: opaque[ys[:, None], xs])


def ocr_runs(tops: np.ndarray, lens: np.ndarray, sample) -> str:
    """Decode text from each column's longest opaque run (``tops``,
    ``lens``: one entry per column, len 0 for none). ``sample(ys, xs)``
    returns the bool opacity at rows ``ys`` x columns ``xs`` (shape
    ``(len(ys), len(xs))``); it is read only at glyph block centres.
    The numpy/Python reference of ``_native.scan_ocr``'s OCR."""
    keep = (lens >= GLYPH_ROWS) & (lens % GLYPH_ROWS == 0)
    cand = list(zip(np.flatnonzero(keep).tolist(), tops[keep].tolist(),
                    lens[keep].tolist()))
    if not cand:
        return ""
    # fuse adjacent candidates with identical (top, length) into marker blocks
    blocks = []  # (x_start, x_end_exclusive, top, length)
    for x, top, ln in cand:
        if blocks and blocks[-1][1] == x and blocks[-1][2] == top and blocks[-1][3] == ln:
            blocks[-1] = (blocks[-1][0], x + 1, top, ln)
        else:
            blocks.append((x, x + 1, top, ln))
    # pair consecutive marker blocks with the same (top, length)
    segments = []  # (top, x, codepoints)
    used = [False] * len(blocks)
    for i in range(len(blocks)):
        if used[i]:
            continue
        for j in range(i + 1, len(blocks)):
            if used[j]:
                continue
            if blocks[j][2] == blocks[i][2] and blocks[j][3] == blocks[i][3]:
                xa0, xa1, top, ln = blocks[i]
                xb0 = blocks[j][0]
                s = ln // GLYPH_ROWS
                if (xa1 - xa0) != s or (blocks[j][1] - blocks[j][0]) != s:
                    break
                span = xb0 - xa1
                if span % s != 0:
                    break
                n = span // s
                # vectorized glyph sampling: bits[r, c] at block centers
                cxs = xa1 + np.arange(n) * s + s // 2
                cys = top + np.arange(GLYPH_ROWS) * s + s // 2
                bits = sample(cys, cxs)
                cps = (bits * _ROW_BITS).sum(axis=0)
                if (cps != 0).all():
                    segments.append((top, xa0, cps))
                    used[i] = used[j] = True
                break
        # unpaired marker blocks are ignored
    return segments_text(segments)


def segments_text(segments: list) -> str:
    """Join decoded glyph blocks ``(top, x0, codepoints)`` in (top,
    left) order with a newline; the codepoints of each block are
    decoded as UTF-32, each invalid one (a lone surrogate) as U+FFFD,
    as a UTF-8 SRT writer emits it."""
    segments.sort(key=lambda t: (t[0], t[1]))
    return "\n".join(cps.astype("<u4").tobytes().decode("utf-32-le",
                                                         "replace")
                     for _top, _x0, cps in segments)
