"""Demux stage: pages -> cues (SURVEY.md §2.2 M1-M6, §3 step 2).

A stateless ``map_batches`` task (plain function, not an actor): each
row's ``html`` payload is self-contained, so the reference's segment
walk (BluRaySupParserImageSharp.cs:259-398) runs per row with
row-local state and flat_map semantics (1 page -> N cue rows).
Fragment reassembly (:399-422) is row-local and happens here so the
object store only ever carries one compressed buffer per object.

One column builder, two producers of the flat arrays it takes:

- ``_native.demux_walk``: one C pass over the whole batch buffer walks
  every SUP payload's 13-byte framing with the state machine of
  ``parse.parse_segment_stream`` and emits per-cue, per-object and
  byte arrays, reassembled RLE included;
- ``_walk_python``: ``parse.parse_payload`` + ``reassemble_fragments``
  per payload, for Matroska payloads (``F.MKV_MAGIC``, which the
  kernel leaves to it) and for every payload without a C compiler.

``url``, ``row_key`` and ``warc_ts`` are a ``take`` of the page columns
by each cue's page index; list and binary columns are built from
offsets plus values.

End-time fill / empty filter / merge are NOT done here — they need the
url's complete time-ordered cue list and live in the assemble stage
after the groupby(url) shuffle (see stages/assemble.py).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .. import _native
from ..merge import reassemble_fragments
from ..parse import parse_payload

CUES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("row_key", pa.binary()),      # sha256(html): order-independent row id
    ("warc_ts", pa.int64()),       # microseconds
    ("seq", pa.int32()),           # cue index within the payload
    ("comp_num", pa.int32()),
    ("start_ticks", pa.int64()),
    ("end_ticks", pa.int64()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("n_objects", pa.int32()),
    ("forced", pa.bool_()),
    ("palette_count", pa.int32()),
    ("palette_last", pa.binary()),           # last palette version buffer
    ("obj_x", pa.list_(pa.int32())),         # per PCS object
    ("obj_y", pa.list_(pa.int32())),
    ("obj_w", pa.list_(pa.int32())),         # per found bitmap object
    ("obj_h", pa.list_(pa.int32())),
    ("bitmaps", pa.list_(pa.binary())),      # reassembled RLE, per object
])


def _offsets(counts: list[int]) -> np.ndarray:
    out = np.zeros(len(counts) + 1, np.int32)
    np.cumsum(counts, out=out[1:])
    return out


def _walk_python(html: pa.Array, rows) -> dict[str, np.ndarray]:
    """The arrays of ``_native.demux_walk`` for payloads ``rows`` from
    the Python walk: one row per display set, or one seq = -1 sentinel
    row for a payload with none, which must still anchor its url
    through the shuffle so assemble emits an empty doc, matching the
    oracle's (url, "", 0)."""
    ints: list[tuple] = []     # (page, seq, comp_num, width, height,
    ticks: list[tuple] = []    #  n_objects, forced, palette_count)
    pal: list[bytes] = []
    xs: list[int] = []
    ys: list[int] = []
    ws: list[int] = []
    hs: list[int] = []
    bms: list[bytes] = []
    n_xy: list[int] = []
    n_bm: list[int] = []
    for row in rows:
        sets = parse_payload(html[row].as_py())
        if not sets:
            ints.append((row, -1, 0, 0, 0, 0, 0, 0))
            ticks.append((0, 0))
            pal.append(b"")
            n_xy.append(0)
            n_bm.append(0)
            continue
        for seq, ds in enumerate(sets):
            reassemble_fragments(ds)
            ints.append((row, seq, ds.comp_num, ds.width, ds.height,
                         len(ds.objects), ds.is_forced,
                         len(ds.palette_buffers)))
            ticks.append((ds.start_ticks, ds.end_ticks))
            pal.append(ds.palette_buffers[-1] if ds.palette_buffers
                       else b"")
            xs += [o.x for o in ds.objects]
            ys += [o.y for o in ds.objects]
            n_xy.append(len(ds.objects))
            ws += [fr[0].width for fr in ds.bitmap_objects]
            hs += [fr[0].height for fr in ds.bitmap_objects]
            bms += [fr[0].data for fr in ds.bitmap_objects]
            n_bm.append(len(ds.bitmap_objects))
    cue = np.array(ints, np.int32).reshape(-1, 8).T
    tk = np.array(ticks, np.int64).reshape(-1, 2).T
    out = {name: cue[k] for k, name in enumerate(_native._CUE_INTS)}
    out.update(
        start_ticks=tk[0], end_ticks=tk[1],
        pal_offsets=_offsets([len(b) for b in pal]),
        pal_values=np.frombuffer(b"".join(pal), np.uint8),
        xy_offsets=_offsets(n_xy), obj_x=np.array(xs, np.int32),
        obj_y=np.array(ys, np.int32),
        bm_offsets=_offsets(n_bm), obj_w=np.array(ws, np.int32),
        obj_h=np.array(hs, np.int32),
        bm_value_offsets=_offsets([len(b) for b in bms]),
        bm_values=np.frombuffer(b"".join(bms), np.uint8))
    return out


def _flat(values: np.ndarray) -> pa.Array:
    """A contiguous int32/int64 numpy array as an Arrow array, zero-copy
    (``pa.array`` pays its pandas-compat checks per call)."""
    values = np.ascontiguousarray(values)
    return pa.Array.from_buffers(pa.from_numpy_dtype(values.dtype),
                                 len(values), [None, pa.py_buffer(values)])


def _binary(offsets: np.ndarray, values: np.ndarray) -> pa.Array:
    return pa.Array.from_buffers(
        pa.binary(), len(offsets) - 1,
        [None, pa.py_buffer(offsets), pa.py_buffer(values)])


def _list(offsets: np.ndarray, values: pa.Array) -> pa.Array:
    return pa.Array.from_buffers(
        pa.list_(values.type), len(offsets) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(offsets))],
        children=[values])


def _cues_table(pages: dict[str, pa.Array], c: dict) -> pa.Table:
    """The one column builder: ``CUES_SCHEMA`` rows from a producer's
    arrays; the page columns are taken by each cue's page index."""
    page = _flat(c["page"])
    cols = [pages["url"].take(page), pages["row_key"].take(page),
            pages["warc_ts"].take(page)]
    cols += [_flat(c[name]) for name in
             ("seq", "comp_num", "start_ticks", "end_ticks", "width",
              "height", "n_objects")]
    cols += [pa.array(c["forced"].astype(bool)),
             _flat(c["palette_count"]),
             _binary(c["pal_offsets"], c["pal_values"]),
             _list(c["xy_offsets"], _flat(c["obj_x"])),
             _list(c["xy_offsets"], _flat(c["obj_y"])),
             _list(c["bm_offsets"], _flat(c["obj_w"])),
             _list(c["bm_offsets"], _flat(c["obj_h"])),
             _list(c["bm_offsets"],
                   _binary(c["bm_value_offsets"], c["bm_values"]))]
    return pa.Table.from_arrays(cols, schema=CUES_SCHEMA)


def _html_buffers(html: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(data, int64 offsets) of a binary column, zero-copy."""
    off_type = np.int64 if pa.types.is_large_binary(html.type) else np.int32
    _validity, off_buf, data_buf = html.buffers()
    offsets = np.frombuffer(off_buf, off_type)[
        html.offset:html.offset + len(html) + 1].astype(np.int64)
    data = (np.frombuffer(data_buf, np.uint8) if data_buf is not None
            else np.zeros(0, np.uint8))
    return data, offsets


def demux_batch(batch: pa.Table) -> pa.Table:
    """pages batch (url, warc_ts, html) -> cues rows."""
    html = batch.column("html").combine_chunks()
    data, offsets = _html_buffers(html)
    view, bounds = memoryview(data), offsets.tolist()
    pages = {
        "url": batch.column("url").cast(pa.string()),
        "row_key": pa.array([hashlib.sha256(view[a:b]).digest()
                             for a, b in zip(bounds, bounds[1:])],
                            pa.binary()),
        "warc_ts": batch.column("warc_ts").cast(pa.int64()),
    }
    walked = _native.demux_walk(data, offsets) if len(html) else None
    if walked is None:
        return _cues_table(pages, _walk_python(html, range(len(html))))
    table = _cues_table(pages, walked)
    mkv_rows = np.flatnonzero(walked["mkv"])
    if not len(mkv_rows):
        return table
    # Matroska payloads: the Python walk's rows, back in page order
    rest = _walk_python(html, mkv_rows.tolist())
    order = np.argsort(np.concatenate([walked["page"], rest["page"]]),
                       kind="stable")
    return pa.concat_tables([table, _cues_table(pages, rest)]).take(order)
