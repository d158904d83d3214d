"""Display set -> decoded bitmap + derived merge metadata.

Replicates the reference decode chain (studied, not copied):
  - RLE run expansion + transparent-pixel skip:
    /root/reference/src/PgsToSrt/BluRaySup/BluRaySupParserExtensions.cs:43-134
    (PutPixel writes only when alpha > 0, :149-155)
  - +50px canvas padding with a 25px offset: same file :136-140
  - multi-object union-rect compositing: :12-34. NOTE the reference
    passes opacity 0 to DrawImage at :30, which makes the merged canvas
    fully transparent — an apparent upstream bug. We composite at full
    opacity (source-over, overwrite where source alpha > 0), which is
    the clearly intended semantics and what SURVEY.md §2 M11 specifies.
  - non-transparent extent metrics:
    /root/reference/src/PgsToSrt/BluRaySup/ImageExtensions.cs:36-70
  - pixel equality: ImageExtensions.cs:72-92

Memory-traffic design (the extract stage is this engine's hot loop and
is memory-bandwidth-sensitive): the hot path works on the PALETTE-INDEX
image (1 byte/pixel) plus the 256x4 LUT and never materializes the
dense RGBA canvas, nor (with the C kernels) the H x W opacity mask.
A single-object cue is two native calls: ``_native.rle_decode_index``
writes the index image straight from the RLE opcodes (the ``written``
mask only when the runs do not tile the image), and
``_native.scan_ocr`` reads it once for the column runs, the extents,
the marker pairing and the glyph samples. Derived quantities:
  - opacity         = lut_alpha[idx] > 0, ANDed with the written mask
    only when LUT entry 0 is set (``_opacity_gate``); the OCR reads
    it straight from the index image and reads glyph bits through the
    same rule at block centres only. Without a C compiler the RLE
    walk, the column scan and the OCR fall back to numpy/Python
    (``format.rle_decode_runs``, ``opacity_mask`` +
    ``glyph.column_runs`` + ``glyph.ocr_runs``).
  - canvas dims     = content + 50 pad (padding carries no content, so
    padded-image equality == content equality AND dims equality)
  - pixel identity  = SHA-256 over (dims, index image, LUT[, written
    mask]) — equal keys imply byte-equal RGBA canvases. This is a
    FINER equivalence than the reference's RGBA compare (two cues whose
    different palettes happen to render identical pixels hash unequal);
    the oracle and the Ray stage share this exact function, so the
    byte-identity gate is unaffected. Documented deviation.

``decode_display_set`` still returns the RGBA canvas for tests and
external use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import _native
from .format import build_palette_lut, rle_decode_runs
from .glyph import column_runs, ocr_runs, segments_text
from .parse import DisplaySet

PAD = 50          # canvas grows by +50 in each dimension (reference :136)
PAD_OFF = 25      # bitmap drawn at (25, 25) (reference :138)


def _pad_canvas(img: np.ndarray) -> np.ndarray:
    """+50px padding with the bitmap at (25, 25) (reference :136-140)."""
    h, w = img.shape[:2]
    canvas = np.zeros((h + PAD, w + PAD, 4), dtype=np.uint8)
    canvas[PAD_OFF:PAD_OFF + h, PAD_OFF:PAD_OFF + w] = img
    return canvas


def decode_object_indexed(rle: bytes, width: int, height: int
                          ) -> tuple[np.ndarray, np.ndarray | None]:
    """Decode one reassembled ODS buffer into a palette-INDEX image
    (H, W) uint8, replicating DecodeImage's RLE walk (:55-134).

    Returns (idx_img, written): ``written`` is a bool mask of pixels the
    cursor actually covered, or None when there are no runs or the runs
    tile the image exactly (from pixel 0 to the last, contiguously).
    Unwritten pixels are index 0; whether they RENDER transparent is
    the LUT's business (entry 0 is transparent-black in well-formed
    palettes)."""
    if width <= 0 or height <= 0 or len(rle) == 0:
        return np.zeros((1, 1), dtype=np.uint8), None
    nat = _native.rle_decode_index(rle, width, height)
    if nat is not None:
        return nat[0], nat[1]
    # numpy reference over the Python walk (no compiler, or a stream
    # truncated mid-opcode, which raises here like the reference)
    runs = rle_decode_runs(rle, width)
    n = width * height
    idx_img = np.zeros(n, dtype=np.uint8)
    if not runs:
        return idx_img.reshape(height, width), None
    arr = np.array(runs, dtype=np.int32)
    pos_arr, idx_arr, len_arr = arr[:, 0], arr[:, 1], arr[:, 2]
    ends = np.cumsum(len_arr, dtype=np.int32)
    starts = ends - len_arr
    total = int(ends[-1])
    if total <= n and np.array_equal(pos_arr, starts):
        # runs tile the image contiguously from pixel 0: one repeat
        idx_img[:total] = np.repeat(idx_arr.astype(np.uint8), len_arr)
        if total == n:
            return idx_img.reshape(height, width), None
        written = np.zeros(n, dtype=bool)
        written[:total] = True
        return idx_img.reshape(height, width), written.reshape(height, width)
    within = np.arange(total, dtype=np.int32) - np.repeat(starts, len_arr)
    positions = np.repeat(pos_arr, len_arr) + within
    values = np.repeat(idx_arr.astype(np.uint8), len_arr)
    ok = positions < n  # overflow would raise in C#; clamp-safe
    positions, values = positions[ok], values[ok]
    idx_img[positions] = values
    written = np.zeros(n, dtype=bool)
    written[positions] = True
    return idx_img.reshape(height, width), written.reshape(height, width)


def _resolve_lut(ds: DisplaySet, lut_cache: dict | None) -> np.ndarray:
    """LUT for a cue, memoized per distinct last-version palette buffer
    (build_palette_lut uses only the last version, :627)."""
    if lut_cache is None:
        return build_palette_lut(ds.palette_buffers)
    key = ds.palette_buffers[-1] if ds.palette_buffers else b""
    lut = lut_cache.get(key)
    if lut is None:
        lut = build_palette_lut(ds.palette_buffers)
        if len(lut_cache) < 256:
            lut_cache[key] = lut
    return lut


def decode_display_set_indexed(ds: DisplaySet,
                               lut_cache: dict | None = None
                               ) -> tuple[np.ndarray, np.ndarray | None,
                                          np.ndarray]:
    """GetRgba32 equivalent (BluRaySupParserExtensions.cs:12-34) in
    index space, unpadded. Returns (idx_img, written_or_None, lut).

    Multi-object composition overwrites destination pixels where the
    source pixel is opaque under the shared palette (see module
    docstring for the documented deviation from the reference's
    opacity-0 no-op draw)."""
    lut = _resolve_lut(ds, lut_cache)
    if len(ds.objects) == 1:
        f0 = ds.bitmap_objects[0][0]
        idx, written = decode_object_indexed(f0.data, f0.width, f0.height)
        return idx, written, lut
    alpha_pos = lut[:, 3] > 0
    rects = []
    for i, obj in enumerate(ds.objects):
        f0 = ds.bitmap_objects[i][0]
        rects.append((obj.x, obj.y, f0.width, f0.height))
    x0 = min(r[0] for r in rects)
    y0 = min(r[1] for r in rects)
    x1 = max(r[0] + r[2] for r in rects)
    y1 = max(r[1] + r[3] for r in rects)
    canvas = np.zeros((y1 - y0, x1 - x0), dtype=np.uint8)
    written_c = np.zeros_like(canvas, dtype=bool)
    for i, obj in enumerate(ds.objects):
        f0 = ds.bitmap_objects[i][0]
        sub, sub_written = decode_object_indexed(f0.data, f0.width, f0.height)
        ox, oy = obj.x - x0, obj.y - y0
        src = sub[:canvas.shape[0] - oy, :canvas.shape[1] - ox]
        dst = canvas[oy:oy + src.shape[0], ox:ox + src.shape[1]]
        dw = written_c[oy:oy + src.shape[0], ox:ox + src.shape[1]]
        mask = alpha_pos[src]
        if sub_written is not None:
            mask &= sub_written[:src.shape[0], :src.shape[1]]
        dst[mask] = src[mask]
        dw[mask] = True
    return canvas, written_c, lut


def _opacity_gate(written: np.ndarray | None,
                  lut: np.ndarray) -> np.ndarray | None:
    """The ``written`` mask when it can change opacity, else None:
    unwritten pixels are idx 0, which renders transparent anyway
    unless LUT entry 0 is set."""
    return written if written is not None and lut[0].any() else None


def opacity_mask(idx: np.ndarray, written: np.ndarray | None,
                 lut: np.ndarray) -> np.ndarray:
    """Per-pixel opacity (alpha > 0) of the rendered canvas."""
    mask = (lut[:, 3] > 0)[idx]
    gate = _opacity_gate(written, lut)
    if gate is not None:
        mask &= gate
    return mask


def rgba_of(idx: np.ndarray, written: np.ndarray | None,
            lut: np.ndarray) -> np.ndarray:
    """Materialize the RGBA canvas (tests / external API)."""
    img = lut[idx]
    if written is not None and lut[0].any():
        img[~written] = 0
    return img


def decode_display_set(ds: DisplaySet, lut_cache: dict | None = None
                       ) -> np.ndarray:
    """RGBA canvas of a display set (unpadded; see module docstring)."""
    idx, written, lut = decode_display_set_indexed(ds, lut_cache)
    return rgba_of(idx, written, lut)


def non_transparent_extents(img: np.ndarray) -> tuple[int, int]:
    """(height, width) of the image minus fully-transparent leading and
    trailing rows/columns (ImageExtensions.cs:36-70). Note the reference
    counts *trailing* transparent lines via a run that resets on any
    opaque line — equivalent to trimming leading+trailing only."""
    return mask_extents(img[:, :, 3] > 0)


def mask_extents(opaque: np.ndarray) -> tuple[int, int]:
    rows = np.flatnonzero(opaque.any(axis=1))
    cols = np.flatnonzero(opaque.any(axis=0))
    nt_h = 0 if rows.size == 0 else int(rows[-1] - rows[0] + 1)
    nt_w = 0 if cols.size == 0 else int(cols[-1] - cols[0] + 1)
    return nt_h, nt_w


@dataclass(frozen=True)
class DecodeMeta:
    """Everything the near-dup merge heuristics need about a decoded cue
    (QualifiesForMerge, BluRaySupParserImageSharp.cs:533-558) so they can
    run after a shuffle without the dense bitmap."""
    dec_h: int
    dec_w: int
    nt_h: int
    nt_w: int
    pixel_sha: bytes  # canvas-identity key (see module docstring)


def cue_meta_and_text(ds: DisplaySet, lut_cache: dict | None = None
                      ) -> tuple[DecodeMeta, str]:
    """THE shared decode+OCR kernel: used verbatim by the oracle and the
    Ray extract stage, so merge decisions and text are identical by
    construction. Returns (DecodeMeta, trimmed text) — trim per the
    reference's post-OCR Trim (PgsOcr.cs:122)."""
    idx, written, lut = decode_display_set_indexed(ds, lut_cache)
    alpha = lut[:, 3] > 0
    scan = _native.scan_ocr(idx, _opacity_gate(written, lut), alpha)
    if scan is None:
        mask = opacity_mask(idx, written, lut)
        tops, lens = column_runs(mask)
        nt_h, nt_w = mask_extents(mask)
        text = ocr_runs(tops, lens, lambda ys, xs: mask[ys[:, None], xs])
    else:
        _tops, _lens, nt_h, nt_w, segments = scan
        text = segments_text(segments)
    # buffers straight into the hash, no bytes copies
    h = hashlib.sha256(np.array(idx.shape, dtype=np.int64))
    h.update(np.ascontiguousarray(idx))
    h.update(lut)
    if written is not None:
        h.update(np.ascontiguousarray(written))
    meta = DecodeMeta(dec_h=idx.shape[0] + PAD, dec_w=idx.shape[1] + PAD,
                      nt_h=nt_h, nt_w=nt_w, pixel_sha=h.digest())
    return meta, text.strip()
