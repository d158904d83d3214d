"""Optional C kernels for the per-pixel loops of the extract stage: a
single-object cue costs two calls, one per kernel.

- ``rle_decode_index``: the RLE opcode walk (~1.3us per opcode in
  CPython). It mirrors the cursor arithmetic of the Python loop in
  format.rle_decode_runs (reference semantics,
  BluRaySupParserExtensions.cs:55-134) and writes each run straight
  into the palette-index image, so no run arrays reach Python. The
  ``written`` mask is filled only once the runs stop tiling the image
  from pixel 0; an image the runs tile exactly never touches it.
  Reference: the numpy path in decode.decode_object_indexed over
  format.rle_decode_runs, which tests compare it against.
- ``scan_ocr``: the glyph OCR. One row-major pass over the
  palette-index image yields each column's longest vertical opaque run
  (topmost on ties) and the non-transparent extents, so the H x W
  opacity mask is never built; then the marker candidates are fused
  into blocks, the blocks paired, and each glyph block centre sampled
  through the opacity rule. It returns ``(top, x0, codepoints)``
  segments; Python only sorts, decodes and joins them
  (glyph.segments_text). Reference: glyph.column_runs +
  glyph.ocr_runs over decode.opacity_mask, plus decode.mask_extents.

Compiled on first use with the system C compiler into a shared object
cached under the temp dir (keyed by a hash of the source, so each
source version compiles once per temp dir). Without a compiler every
wrapper returns None and the caller runs the numpy/Python reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

_C_SRC = r"""
#include <stdint.h>
#include <string.h>

/* One run of ``len`` pixels of palette index ``v`` at ``pos``: written
   into img (and the written mask when ``mark``), clamped at n. */
static void put_run(uint8_t* img, uint8_t* written, long long n,
                    long long pos, long long len, uint8_t v, int mark)
{
    long long e = pos + len;
    if (e > n) e = n;
    if (pos >= e) return;
    memset(img + pos, v, (size_t) (e - pos));
    if (mark) memset(written + pos, 1, (size_t) (e - pos));
}

/* Walk the PGS RLE opcode stream with the exact cursor arithmetic of
   the decoder (incl. the end-of-line snap) and write every run into
   the n-pixel index image ``img``, last write wins, clamped at n.
   ``written`` (n zeroed bytes) gets the covered pixels, but only once
   some run no longer starts where the previous ones ended: until
   then the covered pixels are the prefix [0, total), backfilled at
   the first gap or at the end. out[0] = summed run length (total),
   out[1] = 1 when ``written`` is redundant and left untouched (no
   runs, or runs tiling [0, n) exactly). Returns 0, or -1 when the
   stream ends inside a 0xC0 opcode (the Python walk raises there). */
int rle_decode_index(const uint8_t* buf, long long nbuf, long long width,
                     long long n, uint8_t* img, uint8_t* written,
                     long long* out)
{
    long long pos = 0, col = 0, i = 0, total = 0, nruns = 0;
    int contig = 1;
    while (i < nbuf) {
        long long len;
        uint8_t v = 0;
        uint8_t b = buf[i++];
        if (b != 0 || i >= nbuf) {
            len = 1; v = b;
        } else {
            uint8_t op = buf[i++];
            uint8_t kind = op & 0xC0;
            if (op == 0) {
                pos = pos / width * width;
                if (col < width) pos += width;
                col = 0;
                continue;
            }
            if (kind == 0x80) {
                if (i >= nbuf) continue;
                len = op - 0x80; v = buf[i++];
            } else if (kind == 0x40) {
                if (i >= nbuf) continue;
                len = ((op - 0x40) << 8) + buf[i++];
            } else if (kind == 0xC0) {
                if (i >= nbuf) continue;
                if (i + 1 >= nbuf) return -1;
                len = ((op - 0xC0) << 8) + buf[i]; v = buf[i + 1];
                i += 2;
            } else {
                len = op;
            }
        }
        if (contig && pos != total) {
            contig = 0;
            memset(written, 1, (size_t) (total < n ? total : n));
        }
        put_run(img, written, n, pos, len, v, !contig);
        pos += len; col += len; total += len; nruns++;
    }
    out[0] = total;
    out[1] = contig && (nruns == 0 || total == n);
    if (contig && !out[1])
        memset(written, 1, (size_t) (total < n ? total : n));
    return 0;
}

#define GLYPH_ROWS 16

/* Glyph OCR of an h x w palette-index image (the codec in glyph.py).
   A pixel is opaque when opaque_lut[idx] is set and, if ``written``
   is non-NULL, the pixel was written.
   work (5w ints): tops[w], lens[w] (len 0: no opaque pixel in the
   column; a later run replaces the kept one only when strictly
   longer, so ties keep the topmost), then 3w of scratch.
   out[0..3) = (nt_h, nt_w, number of segments), then cap ints of
   segments, each (top, x0, ncp, ncp codepoints), in pairing order.
   Returns the ints the segments need; when that exceeds cap only
   the segments that fit are written and the caller calls again. */
int scan_ocr(const uint8_t* idx, const uint8_t* written,
             const uint8_t* opaque_lut, int h, int w,
             int32_t* work, int32_t* out, int cap)
{
    int32_t* tops = work;
    int32_t* lens = work + w;
    int32_t* cur = work + 2 * w;
    int r0 = -1, r1 = -1;
    for (int c = 0; c < 3 * w; c++) work[c] = 0;
    for (int r = 0; r < h; r++) {
        const uint8_t* row = idx + (long) r * w;
        const uint8_t* wrow = written ? written + (long) r * w : 0;
        int any = 0;
        for (int c = 0; c < w; c++) {
            int o = opaque_lut[row[c]] && (!wrow || wrow[c]);
            if (o) {
                cur[c]++;
                any = 1;
            } else if (cur[c]) {
                if (cur[c] > lens[c]) { lens[c] = cur[c]; tops[c] = r - cur[c]; }
                cur[c] = 0;
            }
        }
        if (any) { if (r0 < 0) r0 = r; r1 = r; }
    }
    int c0 = -1, c1 = -1;
    for (int c = 0; c < w; c++) {
        if (cur[c] > lens[c]) { lens[c] = cur[c]; tops[c] = h - cur[c]; }
        if (lens[c]) { if (c0 < 0) c0 = c; c1 = c; }
    }
    out[0] = r0 < 0 ? 0 : r1 - r0 + 1;
    out[1] = c0 < 0 ? 0 : c1 - c0 + 1;
    out[2] = 0;

    /* marker blocks: runs of adjacent candidate columns (length a
       positive multiple of GLYPH_ROWS) with one (top, length) */
    int32_t* bx0 = work + 2 * w;
    int32_t* bx1 = work + 3 * w;
    int32_t* used = work + 4 * w;
    int nb = 0;
    for (int x = 0; x < w; x++) {
        int ln = lens[x];
        if (ln < GLYPH_ROWS || ln % GLYPH_ROWS) continue;
        if (nb && bx1[nb - 1] == x && tops[bx0[nb - 1]] == tops[x]
                && lens[bx0[nb - 1]] == ln) {
            bx1[nb - 1] = x + 1;
        } else {
            bx0[nb] = x; bx1[nb] = x + 1; used[nb] = 0; nb++;
        }
    }

    /* pair each block with the next unused one of the same (top,
       length); decode the glyph blocks between them at their centres */
    int32_t* seg = out + 3;
    int need = 0;
    for (int i = 0; i < nb; i++) {
        if (used[i]) continue;
        int top = tops[bx0[i]], ln = lens[bx0[i]];
        for (int j = i + 1; j < nb; j++) {
            if (used[j] || tops[bx0[j]] != top || lens[bx0[j]] != ln)
                continue;
            int s = ln / GLYPH_ROWS;
            if (bx1[i] - bx0[i] != s || bx1[j] - bx0[j] != s) break;
            int span = bx0[j] - bx1[i];
            if (span % s) break;
            int ncp = span / s, ok = 1;
            for (int k = 0; k < ncp && ok; k++) {
                long x = bx1[i] + (long) k * s + s / 2;
                int32_t cp = 0;
                for (int r = 0; r < GLYPH_ROWS; r++) {
                    long p = (top + (long) r * s + s / 2) * w + x;
                    if (opaque_lut[idx[p]] && (!written || written[p]))
                        cp |= 1 << r;
                }
                if (cp == 0) ok = 0;
                else if (need + 3 + k < cap) seg[need + 3 + k] = cp;
            }
            if (ok) {
                if (need + 3 + ncp <= cap) {
                    seg[need] = top; seg[need + 1] = bx0[i];
                    seg[need + 2] = ncp;
                    out[2]++;
                }
                need += 3 + ncp;
                used[i] = used[j] = 1;
            }
            break;
        }
    }
    return need;
}
"""


def _build() -> str | None:
    cache = os.path.join(tempfile.gettempdir(), "pgstosrt_native")
    os.makedirs(cache, exist_ok=True)
    tag = hashlib.sha1(_C_SRC.encode()).hexdigest()[:12]
    so_path = os.path.join(cache, f"rle_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    # per-process temp names: workers that build at the same moment
    # must never write into (or load) another's half-written file
    fd, c_path = tempfile.mkstemp(dir=cache, suffix=".c")
    with os.fdopen(fd, "w") as f:
        f.write(_C_SRC)
    fd, tmp_so = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o",
                        tmp_so, c_path],
                       check=True, capture_output=True)
        os.replace(tmp_so, so_path)
        return so_path
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    finally:
        for p in (c_path, tmp_so):
            if os.path.exists(p):
                os.remove(p)


_LIB = None
_TRIED = False


def _lib():
    global _LIB, _TRIED
    if not _TRIED:
        _TRIED = True
        so = _build()
        if so is not None:
            lib = ctypes.CDLL(so)
            # raw pointer ints: data_as() costs ~2us per argument and
            # both kernels run once per cue
            lib.rle_decode_index.restype = ctypes.c_int
            lib.rle_decode_index.argtypes = [
                ctypes.c_char_p, ctypes.c_longlong, ctypes.c_longlong,
                ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p,
                ctypes.c_void_p]
            lib.scan_ocr.restype = ctypes.c_int
            lib.scan_ocr.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                ctypes.c_int, ctypes.c_int, ctypes.c_void_p,
                ctypes.c_void_p, ctypes.c_int]
            _LIB = lib
    return _LIB


def available() -> bool:
    return _lib() is not None


def rle_decode_index(buf: bytes, width: int, height: int):
    """``(idx_img, written, total)`` of one RLE object via the C walk,
    or None when the kernel is unavailable or the stream ends inside an
    opcode (the Python path then raises exactly like the reference
    would). ``idx_img`` is (height, width) uint8; ``written`` is the
    bool mask of pixels the cursor covered, or None when the runs tile
    the image exactly (or there are none); ``total`` is the summed run
    length. Needs width, height >= 1."""
    lib = _lib()
    if lib is None:
        return None
    if width < 1 or height < 1:
        raise ValueError(f"image must be at least 1 x 1, got "
                         f"{width} x {height}")
    n = width * height
    img = np.zeros(n, dtype=np.uint8)
    written = np.zeros(n, dtype=np.uint8)
    res = np.empty(2, dtype=np.int64)
    if lib.rle_decode_index(buf, len(buf), width, n, img.ctypes.data,
                            written.ctypes.data, res.ctypes.data) < 0:
        return None
    mask = None if res[1] else written.view(bool).reshape(height, width)
    return img.reshape(height, width), mask, int(res[0])


def scan_ocr(idx: np.ndarray, written: np.ndarray | None,
             opaque_lut: np.ndarray):
    """Glyph OCR of the opacity image ``opaque_lut[idx]`` (ANDed with
    ``written`` when given) via C, or None when the kernel is
    unavailable. Returns ``(tops, lens, nt_h, nt_w, segments)``:
    tops/lens are int32 per column (len 0: no run), segments a list of
    ``(top, x0, codepoints)`` for glyph.segments_text."""
    lib = _lib()
    if lib is None:
        return None
    if idx.ndim != 2 or idx.dtype != np.uint8:
        raise ValueError(f"idx must be a 2-D uint8 image, got "
                         f"{idx.ndim}-D {idx.dtype}")
    if opaque_lut.shape != (256,) or opaque_lut.dtype != np.bool_:
        raise ValueError("opaque_lut must be 256 bools")
    if written is not None and (written.shape != idx.shape
                                or written.dtype != np.bool_):
        raise ValueError("written must be a bool mask shaped like idx")
    h, w = idx.shape
    # the names keep every buffer alive across the call
    idx = np.ascontiguousarray(idx)
    lut = np.ascontiguousarray(opaque_lut)
    wr = None if written is None else np.ascontiguousarray(written)
    work = np.empty(5 * w, dtype=np.int32)
    # room for glyph blocks that do not overlap; overlapping pairs
    # (interleaved markers of different heights) may need a second call
    cap = 2 * w + 8
    while True:
        out = np.empty(3 + cap, dtype=np.int32)
        need = lib.scan_ocr(idx.ctypes.data,
                            None if wr is None else wr.ctypes.data,
                            lut.ctypes.data, h, w, work.ctypes.data,
                            out.ctypes.data, cap)
        if need <= cap:
            break
        cap = need
    segments = []
    k = 3
    for _ in range(int(out[2])):
        top, x0, ncp = out[k:k + 3].tolist()
        segments.append((top, x0, out[k + 3:k + 3 + ncp]))
        k += 3 + ncp
    return work[:w], work[w:2 * w], int(out[0]), int(out[1]), segments
