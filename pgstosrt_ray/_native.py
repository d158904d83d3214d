"""Optional C kernels for the two per-pixel loops of the extract stage.

- ``rle_decode_runs`` / ``expand_runs``: the RLE opcode walk (~1.3us
  per opcode in CPython, tens of millions of opcodes per batch). A
  LINE-FOR-LINE mirror of the Python loop in format.rle_decode_runs
  (reference semantics, BluRaySupParserExtensions.cs:55-134), covered
  by the same round-trip/property tests through decode_object_indexed.
- ``column_runs``: the glyph OCR column scan. One row-major pass over
  the palette-index image yields each column's longest vertical opaque
  run (topmost on ties) and the non-transparent extents, so the H x W
  opacity mask is never built. Reference: glyph.column_runs plus
  decode.mask_extents over decode.opacity_mask, which tests compare
  it against.

Compiled on first use with the system C compiler into a shared object
cached under the temp dir (keyed by a hash of the source). Every
kernel has a numpy/Python fallback that runs when no compiler is
available.
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

/* Walk the PGS RLE opcode stream; emit (pos, idx, len) runs with the
   exact cursor arithmetic of the decoder (incl. end-of-line snap).
   Returns the number of runs. out arrays must hold >= n entries. */
int rle_decode_runs(const uint8_t* buf, int n, int width,
                    int32_t* out_pos, int32_t* out_idx, int32_t* out_len)
{
    int pos = 0, col = 0, i = 0, r = 0;
    while (i < n) {
        uint8_t b = buf[i++];
        if (b != 0 || i >= n) {
            out_pos[r] = pos; out_idx[r] = b; out_len[r] = 1; r++;
            pos += 1; col += 1;
            continue;
        }
        uint8_t op = buf[i++];
        if (op == 0) {
            pos = pos / width * width;
            if (col < width) pos += width;
            col = 0;
            continue;
        }
        uint8_t kind = op & 0xC0;
        if (kind == 0x80) {
            if (i < n) {
                int ln = op - 0x80;
                out_pos[r] = pos; out_idx[r] = buf[i]; out_len[r] = ln; r++;
                i += 1; pos += ln; col += ln;
            }
        } else if (kind == 0x40) {
            if (i < n) {
                int ln = ((op - 0x40) << 8) + buf[i];
                out_pos[r] = pos; out_idx[r] = 0; out_len[r] = ln; r++;
                i += 1; pos += ln; col += ln;
            }
        } else if (kind == 0xC0) {
            if (i + 1 < n) {
                int ln = ((op - 0xC0) << 8) + buf[i];
                out_pos[r] = pos; out_idx[r] = buf[i + 1]; out_len[r] = ln; r++;
                i += 2; pos += ln; col += ln;
            } else if (i < n) {
                /* mirror Python: reads buf[i+1] would raise; stop */
                return -1;
            }
        } else {
            out_pos[r] = pos; out_idx[r] = 0; out_len[r] = op; r++;
            pos += op; col += op;
        }
    }
    return r;
}

/* Expand runs into the index image: last-write-wins scatter with
   bounds clamping, matching the numpy path. Returns total pixels the
   cursor covered (sum of in-bounds run lengths written). */
void expand_runs(const int32_t* pos, const int32_t* idx,
                 const int32_t* len, int nruns,
                 uint8_t* img, uint8_t* written, int n)
{
    for (int r = 0; r < nruns; r++) {
        int p = pos[r];
        int e = p + len[r];
        if (e > n) e = n;
        if (p < 0 || p >= e) continue;
        uint8_t v = (uint8_t) idx[r];
        for (int k = p; k < e; k++) { img[k] = v; written[k] = 1; }
    }
}

/* Per-column longest vertical opaque run of an h x w palette-index
   image, plus the non-transparent extents. A pixel is opaque when
   opaque_lut[idx] is set and, if ``written`` is non-NULL, the pixel
   was written. ``out`` holds 3w + 2 ints: tops[w], lens[w] (len 0:
   no opaque pixel in the column), w of scratch, then (nt_h, nt_w).
   A later run replaces the kept one only when strictly longer, so
   ties keep the topmost. */
void column_runs(const uint8_t* idx, const uint8_t* written,
                 const uint8_t* opaque_lut, int h, int w, int32_t* out)
{
    int32_t* tops = out;
    int32_t* lens = out + w;
    int32_t* cur = out + 2 * w;
    int r0 = -1, r1 = -1;
    for (int c = 0; c < 3 * w; c++) out[c] = 0;
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
    out[3 * w] = r0 < 0 ? 0 : r1 - r0 + 1;
    out[3 * w + 1] = c0 < 0 ? 0 : c1 - c0 + 1;
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
            lib.rle_decode_runs.restype = ctypes.c_int
            lib.rle_decode_runs.argtypes = [
                ctypes.c_char_p, ctypes.c_int, ctypes.c_int,
                ctypes.POINTER(ctypes.c_int32),
                ctypes.POINTER(ctypes.c_int32),
                ctypes.POINTER(ctypes.c_int32)]
            lib.expand_runs.restype = None
            lib.expand_runs.argtypes = [
                ctypes.POINTER(ctypes.c_int32),
                ctypes.POINTER(ctypes.c_int32),
                ctypes.POINTER(ctypes.c_int32), ctypes.c_int,
                ctypes.POINTER(ctypes.c_uint8),
                ctypes.POINTER(ctypes.c_uint8), ctypes.c_int]
            # raw pointer ints: data_as() costs ~2us per argument and
            # this kernel runs once per cue
            lib.column_runs.restype = None
            lib.column_runs.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                ctypes.c_int, ctypes.c_int, ctypes.c_void_p]
            _LIB = lib
    return _LIB


def available() -> bool:
    return _lib() is not None


_I32P = ctypes.POINTER(ctypes.c_int32)
_U8P = ctypes.POINTER(ctypes.c_uint8)


def rle_decode_runs_arrays(buf: bytes, width: int):
    """(pos, idx, len) int32 arrays via the C kernel, or None if the
    kernel is unavailable or the stream is truncated mid-opcode (the
    Python path then raises exactly like the reference would)."""
    lib = _lib()
    if lib is None:
        return None
    n = len(buf)
    pos = np.empty(n + 1, dtype=np.int32)
    idx = np.empty(n + 1, dtype=np.int32)
    ln = np.empty(n + 1, dtype=np.int32)
    r = lib.rle_decode_runs(buf, n, width,
                            pos.ctypes.data_as(_I32P),
                            idx.ctypes.data_as(_I32P),
                            ln.ctypes.data_as(_I32P))
    if r < 0:
        return None
    return pos[:r], idx[:r], ln[:r]


def expand_runs_into(pos: np.ndarray, idx: np.ndarray, ln: np.ndarray,
                     img: np.ndarray, written: np.ndarray) -> bool:
    """Scatter runs into flat uint8 ``img`` (+``written``) via C."""
    lib = _lib()
    if lib is None:
        return False
    lib.expand_runs(pos.ctypes.data_as(_I32P), idx.ctypes.data_as(_I32P),
                    ln.ctypes.data_as(_I32P), len(pos),
                    img.ctypes.data_as(_U8P), written.ctypes.data_as(_U8P),
                    img.size)
    return True


def column_runs(idx: np.ndarray, written: np.ndarray | None,
                opaque_lut: np.ndarray):
    """(tops, lens, nt_h, nt_w) of the opacity image ``opaque_lut[idx]``
    (ANDed with ``written`` when given) via C, or None when the kernel
    is unavailable. tops/lens are int32 per column (len 0: no run)."""
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
    out = np.empty(3 * w + 2, dtype=np.int32)
    lib.column_runs(idx.ctypes.data,
                    None if wr is None else wr.ctypes.data,
                    lut.ctypes.data, h, w, out.ctypes.data)
    return out[:w], out[w:2 * w], int(out[3 * w]), int(out[3 * w + 1])
