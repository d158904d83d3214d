"""Extract stage: cues -> spans (SURVEY.md §2.3 O1, §2.2 M9-M16).

The ONE stateful stage: a callable class run as a ``map_batches`` actor
pool. The engine is constructed once per actor in ``__init__`` and
reused across batches — the correct form of what the reference
approximates (it builds a Tesseract Engine per item inside the
parallel loop, PgsOcr.cs:84, and binds native libs once per process,
TesseractApi.cs:16-53).

Decode (RLE -> RGBA, palette LUT, compositing; BluRaySupParser
Extensions.cs:43-141) is FUSED with OCR inside the actor so dense RGBA
bitmaps never cross the object store (SURVEY §4). The stage also
computes all merge-relevant decode metadata (non-transparent extents,
pixel hash, per-object buffer keys) so the downstream merge never
needs the bitmaps — the spans row is small and cheap to shuffle.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..decode import cue_meta_and_text
from ..parse import DisplaySet, OdsFrag, PcsObj

PASSTHROUGH = ["url", "row_key", "warc_ts", "seq", "comp_num",
               "start_ticks", "end_ticks", "width", "height",
               "n_objects", "forced", "palette_count"]

SPANS_SCHEMA = pa.schema(
    [f for f in (
        ("url", pa.string()), ("row_key", pa.binary()),
        ("warc_ts", pa.int64()), ("seq", pa.int32()),
        ("comp_num", pa.int32()),
        ("start_ticks", pa.int64()), ("end_ticks", pa.int64()),
        ("width", pa.int32()), ("height", pa.int32()),
        ("n_objects", pa.int32()), ("forced", pa.bool_()),
        ("palette_count", pa.int32()),
    )] + [
        ("obj_lens", pa.list_(pa.int64())),
        ("obj_shas", pa.list_(pa.binary())),
        ("dec_h", pa.int32()), ("dec_w", pa.int32()),
        ("nt_h", pa.int32()), ("nt_w", pa.int32()),
        ("pixel_sha", pa.binary()),
        ("text", pa.string()),
    ])


class ExtractorEngine:
    """Deterministic region->text engine with the warm-actor shape.

    ``__init__`` is the once-per-actor model load (here: nothing heavy —
    the glyph decoder is pure — but the shape is the contract: real OCR
    would load traineddata here, passed via fn_constructor_kwargs)."""

    def __init__(self, language: str | None = "eng", cache_size: int = 512,
                 tessdata_dir: str | None = None):
        # O2 model resolution (TesseractData.cs:18-66 semantics): scan
        # the data dir, validate the wanted language, "+"-join default.
        # Resolution happens HERE — once per actor/worker — not per
        # batch; a bad language fails the pool at construction.
        # engine-version preflight (Runner.cs:55-76 analogue): fail
        # the pool at construction on an unsupported engine
        from ..models import validate_engine_version
        self.engine_version = validate_engine_version()
        if tessdata_dir is not None:
            from ..models import resolve_language
            self.language = resolve_language(tessdata_dir, language)
        else:
            self.language = language or "eng"
        # per-actor decode+OCR memo: duplicate bitmaps are common in
        # subtitle-style streams (merge-run candidates repeat the same
        # RLE buffer), so identical (geometry, palette, buffers) cues
        # reuse the decoded result. Bounded FIFO to cap actor heap.
        self._cache: dict = {}
        self._cache_size = cache_size
        self._lut_cache: dict = {}  # palette bytes -> 256x4 LUT

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        n_objects = batch.column("n_objects").to_pylist()
        palette_last = batch.column("palette_last").to_pylist()
        # list columns as flat values + row offsets: row i of a column
        # is values[off[i]:off[i + 1]], no per-row Python lists
        bitmaps, bm_off = _flat(batch, "bitmaps")
        xs, x_off = _flat(batch, "obj_x")
        ys, y_off = _flat(batch, "obj_y")
        ws, w_off = _flat(batch, "obj_w")
        hs, h_off = _flat(batch, "obj_h")

        texts: list[str] = []
        dec_h = [0] * n
        dec_w = [0] * n
        nt_h = [0] * n
        nt_w = [0] * n
        pixel_sha: list[bytes] = []
        for i in range(n):
            bufs = bitmaps[bm_off[i]:bm_off[i + 1]]
            if n_objects[i] == 0 or not bufs:
                texts.append("")
                pixel_sha.append(b"")
                continue
            x = xs[x_off[i]:x_off[i + 1]]
            y = ys[y_off[i]:y_off[i + 1]]
            w = ws[w_off[i]:w_off[i + 1]]
            h = hs[h_off[i]:h_off[i + 1]]
            key = (tuple(bufs), palette_last[i], tuple(x), tuple(y),
                   tuple(w), tuple(h))
            hit = self._cache.get(key)
            if hit is not None:
                dec_h[i], dec_w[i], nt_h[i], nt_w[i], sha_v, text_v = hit
                pixel_sha.append(sha_v)
                texts.append(text_v)
                continue
            ds = DisplaySet(
                comp_num=0, comp_state=0, palette_update=False,
                start_ticks=0,
                objects=[PcsObj(object_id=0, window_id=0, forced=False,
                                x=x[k], y=y[k])
                         for k in range(n_objects[i])],
                bitmap_objects=[[OdsFrag(object_id=0, version=0,
                                         is_first=True, width=w[k],
                                         height=h[k], data=bufs[k])]
                                for k in range(len(bufs))],
                palette_buffers=[palette_last[i]] if palette_last[i] else [],
            )
            meta, text_v = cue_meta_and_text(ds, self._lut_cache)
            dec_h[i], dec_w[i] = meta.dec_h, meta.dec_w
            nt_h[i], nt_w[i] = meta.nt_h, meta.nt_w
            sha_v = meta.pixel_sha
            pixel_sha.append(sha_v)
            texts.append(text_v)
            if len(self._cache) >= self._cache_size:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = (dec_h[i], dec_w[i], nt_h[i], nt_w[i],
                                sha_v, text_v)

        offsets = pa.array(bm_off, pa.int32())
        out: dict[str, object] = {name: batch.column(name)
                                  for name in PASSTHROUGH}
        out.update({
            "obj_lens": pa.ListArray.from_arrays(
                offsets, pa.array([len(b) for b in bitmaps], pa.int64())),
            "obj_shas": pa.ListArray.from_arrays(
                offsets, pa.array([hashlib.sha256(b).digest()
                                   for b in bitmaps], pa.binary())),
            "dec_h": dec_h, "dec_w": dec_w, "nt_h": nt_h, "nt_w": nt_w,
            "pixel_sha": pixel_sha, "text": texts,
        })
        arrays = [out[name] if isinstance(out[name], (pa.Array,
                                                      pa.ChunkedArray))
                  else pa.array(out[name], SPANS_SCHEMA.field(name).type)
                  for name in SPANS_SCHEMA.names]
        return pa.Table.from_arrays(
            [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
             for a in arrays], schema=SPANS_SCHEMA)


def _flat(batch: pa.Table, name: str) -> tuple[list, list[int]]:
    """A list column as (its values as one flat Python list, row
    offsets into it): row i holds values[off[i]:off[i + 1]]."""
    col = batch.column(name).combine_chunks()
    off = col.offsets.to_numpy()
    values = col.values.slice(off[0], off[-1] - off[0])
    return values.to_pylist(), (off - off[0]).tolist()
