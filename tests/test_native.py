"""The C kernels in _native.py against their numpy/Python references:
the RLE walk on random opcode streams, the scan-and-OCR kernel on
random images and glyph renders, the whole extract path against the
no-compiler fallback, the number of kernel calls per cue, and the
first build racing across processes."""

import os
import random
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pgstosrt_ray import _native
from pgstosrt_ray import format as F
from pgstosrt_ray.decode import (_opacity_gate, cue_meta_and_text,
                                 decode_object_indexed, mask_extents,
                                 opacity_mask)
from pgstosrt_ray.glyph import (GLYPH_ROWS, column_runs, ocr_mask,
                                render_text, segments_text)
from pgstosrt_ray.parse import DisplaySet, OdsFrag, PcsObj

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

needs_kernel = pytest.mark.skipif(not _native.available(),
                                  reason="no C compiler")


def _no_kernel():
    """Run the numpy/Python reference: every wrapper sees no library."""
    return mock.patch.object(_native, "_lib", lambda: None)


def _lut(alphas, entry0):
    """256x4 LUT: entries 1..len(alphas) opaque where alphas says so,
    entry 0 = ``entry0`` (RGBA)."""
    lut = np.zeros((256, 4), np.uint8)
    lut[0] = entry0
    for i, a in enumerate(alphas, start=1):
        lut[i] = (200, 100, 50, 255 if a else 0)
    return lut


def _check(idx, written, lut):
    """Kernel on the index image (the pipeline's call) == the numpy
    scan and OCR over the opacity mask, for every column that has a
    run."""
    mask = opacity_mask(idx, written, lut)
    ref_tops, ref_lens = column_runs(mask)
    tops, lens, nt_h, nt_w, segments = _native.scan_ocr(
        idx, _opacity_gate(written, lut), lut[:, 3] > 0)
    np.testing.assert_array_equal(lens, ref_lens)
    has = ref_lens > 0
    np.testing.assert_array_equal(tops[has], ref_tops[has])
    assert (nt_h, nt_w) == mask_extents(mask)
    assert segments_text(segments) == ocr_mask(mask)


@st.composite
def _cases(draw):
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 24))
    idx = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 3)))
    written = None
    if draw(st.booleans()):
        written = draw(arrays(np.bool_, (h, w)))
        idx[~written] = 0   # the decoder leaves unwritten pixels at 0
    alphas = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    entry0 = draw(st.sampled_from([(0, 0, 0, 0), (9, 9, 9, 0),
                                   (0, 0, 0, 255), (9, 9, 9, 128)]))
    return idx, written, _lut(alphas, entry0)


@needs_kernel
@given(_cases())
@settings(max_examples=400, deadline=None)
def test_column_scan_matches_numpy_reference(case):
    _check(*case)


def _bottom_run():
    idx = np.zeros((6, 3), np.uint8)
    idx[1, :] = 1
    idx[3:, 1] = 1   # rows 3-5: reaches the bottom row, longer
    idx[4:, 2] = 1   # rows 4-5 vs row 1: the longer bottom run wins
    return idx


def _partial_written():
    idx = np.zeros((5, 4), np.uint8)
    idx[2, 1] = 1
    written = np.zeros((5, 4), bool)
    written[1:4, 1:3] = True
    return idx, written


def _wide_middle_marker():
    """Three marker blocks of one (top, length) at scale 1, the middle
    one two columns wide: the first block's pair is the middle one,
    which has the wrong width, so nothing decodes (the first block is
    never paired with the third)."""
    idx = np.zeros((GLYPH_ROWS, 7), np.uint8)
    idx[:, [0, 3, 4, 6]] = 1
    idx[0, [1, 2, 5]] = 1
    return idx


def _interleaved_markers(k=12, glyphs=4):
    """k marker pairs of scale 1 at tops 0..k-1, all left markers
    before all right ones: every pair decodes, and their glyph blocks
    overlap, so the codepoints outgrow the kernel's first buffer."""
    h = k + GLYPH_ROWS + 3     # glyph columns: not a marker length
    w = 2 * k + glyphs
    idx = np.zeros((h, w), np.uint8)
    for i in range(k):
        idx[i:i + GLYPH_ROWS, i] = 1
        idx[i:i + GLYPH_ROWS, k + glyphs + i] = 1
    idx[:, k:k + glyphs] = 1
    return idx


@needs_kernel
@pytest.mark.parametrize("idx,written,lut", [
    (np.ones((1, 1), np.uint8), None, _lut([1], (0, 0, 0, 0))),
    (np.zeros((1, 1), np.uint8), None, _lut([1], (0, 0, 0, 0))),
    (np.array([[1], [0], [1], [1]], np.uint8), None,
     _lut([1], (0, 0, 0, 0))),
    (np.array([[1], [1], [0], [1], [1], [0]], np.uint8), None,  # tie
     _lut([1], (0, 0, 0, 0))),
    (np.full((7, 5), 2, np.uint8), None, _lut([0, 1], (0, 0, 0, 0))),
    (_bottom_run(), None, _lut([1], (0, 0, 0, 0))),
    (*_partial_written(), _lut([1], (0, 0, 0, 255))),
    (*_partial_written(), _lut([0], (0, 0, 0, 255))),
    (render_text("two\nlines", 3), None, _lut([1], (0, 0, 0, 0))),
    (_interleaved_markers(), None, _lut([1], (0, 0, 0, 0))),
    (_wide_middle_marker(), None, _lut([1], (0, 0, 0, 0))),
    (np.zeros((4, 0), np.uint8), None, _lut([1], (0, 0, 0, 0))),
], ids=["1x1", "1x1-clear", "w1", "w1-tie", "all-opaque", "bottom-run",
        "lut0-opaque-partial-written", "lut0-only-opaque", "glyphs",
        "overlapping-pairs", "wide-middle-marker", "zero-width"])
def test_column_scan_edge_cases(idx, written, lut):
    _check(idx, written, lut)


@needs_kernel
def test_overlapping_pairs_outgrow_first_buffer():
    idx = _interleaved_markers()
    alpha = _lut([1], (0, 0, 0, 0))[:, 3] > 0
    segments = _native.scan_ocr(idx, None, alpha)[4]
    assert len(segments) == 12
    first_cap = 2 * idx.shape[1] + 8
    assert sum(3 + len(cps) for _t, _x, cps in segments) > first_cap


# -- the RLE walk ----------------------------------------------------------

# one opcode each: literal pixel, end of line, short transparent run,
# long transparent run, short coloured run, long coloured run
# (lengths 0 included: zero-length runs)
_OPCODE = st.one_of(
    st.integers(1, 255).map(lambda b: bytes([b])),
    st.just(b"\x00\x00"),
    st.integers(1, 63).map(lambda n: bytes([0, n])),
    st.tuples(st.integers(0, 1), st.integers(0, 255)).map(
        lambda t: bytes([0, 0x40 | t[0], t[1]])),
    st.tuples(st.integers(0, 63), st.integers(0, 255)).map(
        lambda t: bytes([0, 0x80 | t[0], t[1]])),
    st.tuples(st.integers(0, 1), st.integers(0, 255),
              st.integers(0, 255)).map(
        lambda t: bytes([0, 0xC0 | t[0], t[1], t[2]])),
)
# how a stream may end: cleanly, or inside an opcode (a lone 0x00 is a
# literal pixel; 0x80/0x40/0xC0 without their operand are skipped;
# 0xC0 with one operand raises in the reference walk)
_TAIL = st.sampled_from([b"", b"\x00", b"\x00\x80", b"\x00\x40",
                         b"\x00\xc0", b"\x00\xc0\x05"])


@st.composite
def _streams(draw):
    w = draw(st.integers(1, 24))
    h = draw(st.integers(1, 24))
    if draw(st.booleans()):
        # an encoded image: the runs tile it exactly, or its prefix
        img = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 4)))
        rle = F.rle_encode(img)
        rle = rle[:draw(st.integers(0, len(rle)))]
    else:
        rle = b"".join(draw(st.lists(_OPCODE, max_size=40)))
    return rle + draw(_TAIL), w, h


def _decode_or_error(rle, w, h):
    try:
        return decode_object_indexed(rle, w, h)
    except Exception as e:   # compared by type and message below
        return type(e), str(e)


def _assert_same_decode(rle, w, h):
    got = _decode_or_error(rle, w, h)
    with _no_kernel():
        ref = _decode_or_error(rle, w, h)
    if isinstance(ref[0], type):
        assert got == ref
        return
    np.testing.assert_array_equal(got[0], ref[0])
    assert (got[1] is None) == (ref[1] is None)
    if ref[1] is not None:
        np.testing.assert_array_equal(got[1], ref[1])
    nat = _native.rle_decode_index(rle, w, h)
    assert nat[2] == sum(ln for _p, _i, ln in F.rle_decode_runs(rle, w))


@needs_kernel
@given(_streams())
@settings(max_examples=600, deadline=None)
def test_rle_walk_matches_python_reference(case):
    _assert_same_decode(*case)


@needs_kernel
@pytest.mark.parametrize("rle,w,h", [
    (b"\x00\x00\x00\x00", 4, 2),               # no runs at all
    (b"\x00\x80\x05", 4, 2),                   # one zero-length run
    (b"\x01\x00\x80\x05\x02", 2, 1),           # zero-length run inside
    (b"\x01\x01\x00\x00\x02\x02", 2, 2),       # snap that keeps tiling
    (b"\x01\x00\x00\x02", 2, 2),               # snap past a short line
    (b"\x01\x01\x01", 2, 2),                   # total < n
    (b"\x00\x88\x03\x00\x00", 2, 2),           # total > n, contiguous
    (b"\x00\x43\x00\x01\x02\x00\x00\x03", 4, 4),  # overflow, then a snap
    (b"\x00\xc0\x05", 4, 4),                   # ends inside 0xC0
    (b"\x07", 1, 1),                           # one literal tiles 1x1
    # tiles [0, n), then two snaps move the cursor past n, where a
    # zero-length run still breaks the tiling: ``written`` is kept
    (b"\x01\x01\x00\x00\x00\x00\x00\x80\x05", 2, 1),
], ids=["eol-only", "zero-len", "zero-len-inside", "snap-tiles",
        "snap-gap", "short", "long-contiguous", "overflow-snap",
        "truncated", "1x1", "zero-len-after-snaps"])
def test_rle_walk_edge_cases(rle, w, h):
    _assert_same_decode(rle, w, h)


@needs_kernel
def test_truncated_stream_raises_like_the_reference():
    with pytest.raises(IndexError) as got:
        decode_object_indexed(b"\x01\x00\xc0\x05", 4, 4)
    with _no_kernel(), pytest.raises(IndexError) as ref:
        decode_object_indexed(b"\x01\x00\xc0\x05", 4, 4)
    assert str(got.value) == str(ref.value)


# -- whole cues: DecodeMeta and text ---------------------------------------

def _palette(entry0_alpha, alphas):
    """A palette buffer: (idx, Y, Cr, Cb, A) for entry 0 and 1..n."""
    buf = bytes((0, 16, 128, 128, entry0_alpha))
    for i, a in enumerate(alphas, start=1):
        buf += bytes((i, 235, 128, 128, a))
    return buf


def _display_set(objects, palette):
    """objects: (x, y, width, height, rle) per object."""
    return DisplaySet(
        comp_num=0, comp_state=0, palette_update=False, start_ticks=0,
        objects=[PcsObj(object_id=k, window_id=0, forced=False, x=x, y=y)
                 for k, (x, y, _w, _h, _rle) in enumerate(objects)],
        bitmap_objects=[[OdsFrag(object_id=k, version=0, is_first=True,
                                 width=w, height=h, data=rle)]
                        for k, (_x, _y, w, h, rle) in enumerate(objects)],
        palette_buffers=[palette])


def _meta_and_text_or_error(ds):
    try:
        return cue_meta_and_text(ds)
    except Exception as e:   # compared by type and message
        return type(e), str(e)


def _assert_same_cue(ds):
    got = _meta_and_text_or_error(ds)
    with _no_kernel():
        ref = _meta_and_text_or_error(ds)
    assert got == ref


_PALETTES = st.tuples(st.sampled_from([0, 0, 200]),   # entry 0 set or not
                      st.lists(st.sampled_from([0, 13, 14, 255]),
                               min_size=4, max_size=4)).map(
    lambda t: _palette(*t))


@st.composite
def _stream_cues(draw):
    """1-3 objects of random opcode streams at random offsets."""
    objects = []
    for _ in range(draw(st.integers(1, 3))):
        rle, w, h = draw(_streams())
        objects.append((draw(st.integers(0, 12)), draw(st.integers(0, 12)),
                        w, h, rle))
    return _display_set(objects, draw(_PALETTES))


@needs_kernel
@given(_stream_cues())
@settings(max_examples=300, deadline=None)
def test_stream_cues_match_fallback(ds):
    _assert_same_cue(ds)


_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x2FFF,
                              blacklist_categories=("Cs",)),
                min_size=1, max_size=12)


@st.composite
def _glyph_cues(draw):
    """1-3 rendered texts (scale 1-4), some pixels flipped, composited
    at offsets that may overlap."""
    objects = []
    for _ in range(draw(st.integers(1, 3))):
        bm = render_text(draw(_TEXT), scale=draw(st.integers(1, 4)),
                         color_index=draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(0, 3))):
            y = draw(st.integers(0, bm.shape[0] - 1))
            x = draw(st.integers(0, bm.shape[1] - 1))
            bm[y, x] = draw(st.integers(0, 4))
        objects.append((draw(st.integers(0, 40)), draw(st.integers(0, 80)),
                        bm.shape[1], bm.shape[0], F.rle_encode(bm)))
    return _display_set(objects, draw(_PALETTES))


@needs_kernel
@given(_glyph_cues())
@settings(max_examples=200, deadline=None)
def test_glyph_cues_match_fallback(ds):
    _assert_same_cue(ds)


class _CallSpy:
    """A stand-in for the loaded library that records each kernel call."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(self._lib, name)

        def call(*args):
            self.calls.append(name)
            return fn(*args)
        return call


@needs_kernel
@pytest.mark.parametrize("scale", [1, 4])
def test_single_object_cue_is_two_kernel_calls(monkeypatch, scale):
    bm = render_text("one cue", scale=scale)
    ds = _display_set([(10, 20, bm.shape[1], bm.shape[0],
                        F.rle_encode(bm))], _palette(0, [255]))
    spy = _CallSpy(_native._lib())
    monkeypatch.setattr(_native, "_lib", lambda: spy)
    _meta, text = cue_meta_and_text(ds)
    assert text == "one cue"
    assert spy.calls == ["rle_decode_index", "scan_ocr"]


# -- the segment walk: demux_batch ----------------------------------------

_OBJ_IDS = st.integers(0, 2)
_PAL_IDS = st.integers(0, 1)
_PTS = st.sampled_from([0, 1, 90_000, 180_000, 2 ** 32 - 1])


def _seg(draw, seg_type, pts, body):
    """One segment; one in six bodies is cut short (a short PCS, ODS
    or PDS body)."""
    if not draw(st.integers(0, 5)):
        body = body[:draw(st.integers(0, len(body)))]
    return F.encode_sup_segment(seg_type, pts, body)


@st.composite
def _display_set_segments(draw):
    """PCS, [WDS], PDS*, ODS*, [END] of one display set: random
    composition states (0x10 is invalid), palette updates, first and
    continuation fragments of a few shared object ids."""
    pts = draw(_PTS)
    pcs = F.encode_pcs_payload(
        draw(st.integers(0, 2000)), draw(st.integers(0, 2000)), 0x10,
        draw(st.integers(0, 9)), F.STATE_NORMAL, draw(st.booleans()),
        draw(_PAL_IDS),
        draw(st.lists(st.tuples(_OBJ_IDS, st.just(0), st.booleans(),
                                st.integers(0, 999), st.integers(0, 999)),
                      max_size=3)))
    state = draw(st.sampled_from([0x00, 0x40, 0x80, 0x80, 0xC0, 0x10]))
    segs = [_seg(draw, F.SEG_PCS, pts,
                 pcs[:7] + bytes((state,)) + pcs[8:])]
    if draw(st.booleans()):
        segs.append(_seg(draw, F.SEG_WDS, pts, draw(st.binary(max_size=12))))
    for _ in range(draw(st.integers(0, 2))):
        segs.append(_seg(draw, F.SEG_PDS, pts, F.encode_pds_payload(
            draw(_PAL_IDS), draw(st.integers(0, 3)),
            draw(st.lists(st.tuples(*[st.integers(0, 255)] * 5),
                          max_size=3)))))
    for _ in range(draw(st.integers(0, 3))):
        data = draw(st.binary(max_size=24))
        if draw(st.booleans()):
            body = F.encode_ods_payloads(draw(_OBJ_IDS), 0,
                                         draw(st.integers(1, 40)),
                                         draw(st.integers(1, 40)), data)[0]
        else:   # a continuation fragment
            body = F.pack_be16(draw(_OBJ_IDS)) + bytes((0, 0x40)) + data
        segs.append(_seg(draw, F.SEG_ODS, pts, body))
    if draw(st.integers(0, 4)):
        segs.append(F.encode_sup_segment(F.SEG_END, pts, b""))
    return segs


@st.composite
def _stray_segment(draw):
    """A header without the "PG" magic (a 13-byte type-0 segment) or a
    segment of a type no arm matches."""
    if draw(st.booleans()):
        hdr = draw(st.binary(min_size=13, max_size=13))
        return hdr if hdr[:2] != b"PG" else b"XX" + hdr[2:]
    return F.encode_sup_segment(draw(st.integers(0, 255)), draw(_PTS),
                                draw(st.binary(max_size=6)))


def _mkv():
    from pgstosrt_ray import fixtures as FX
    return FX.mkv_payload([(1000, 2000, FX.text_ds("mk", 0)),
                           (3000, 4000, FX.clear_ds(0))])


@st.composite
def _payloads(draw):
    """A SUP stream of random display sets and stray segments, possibly
    cut anywhere (a body that runs past the payload end), or a
    Matroska payload."""
    if not draw(st.integers(0, 9)):
        return _mkv()
    segs = [seg for ds in draw(st.lists(_display_set_segments(),
                                        max_size=5)) for seg in ds]
    for _ in range(draw(st.integers(0, 2))):
        segs.insert(draw(st.integers(0, len(segs))), draw(_stray_segment()))
    stream = b"".join(segs)
    if not draw(st.integers(0, 3)):
        stream = stream[:draw(st.integers(0, len(stream)))]
    return stream


def _pages(payloads):
    n = len(payloads)
    return pa.table({
        "url": pa.array([f"https://example.org/{i % 3}" for i in range(n)],
                        pa.string()),
        "warc_ts": pa.array(range(n), pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array(payloads, pa.binary())})


def _demux_both(pages, monkeypatch):
    from pgstosrt_ray.stages.demux import demux_batch
    got = demux_batch(pages)
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", lambda: None)
        ref = demux_batch(pages)
    return got, ref


@needs_kernel
@given(st.lists(_payloads(), min_size=1, max_size=4), st.integers(0, 2))
@settings(max_examples=400, deadline=None)
def test_demux_walk_matches_python_walk(payloads, offset):
    """The kernel's cue table equals the Python walk's, column for
    column, on streams with junk headers, short and cut bodies,
    palette updates, epoch starts, continuation fragments across cues,
    zero-set payloads and Matroska payloads, on a sliced batch too."""
    pages = _pages([_mkv()] * offset + payloads).slice(offset)
    with pytest.MonkeyPatch.context() as mp:
        got, ref = _demux_both(pages, mp)
    assert got.equals(ref)
    assert got.num_rows >= len(payloads)


@needs_kernel
def test_demux_walk_outgrows_first_buffers(monkeypatch):
    """One bitmap and one palette that many cues reference: their bytes
    outgrow the first guess, so the kernel is called a second time."""
    from pgstosrt_ray import fixtures as FX
    spy = _CallSpy(_native._lib())
    monkeypatch.setattr(_native, "_lib", lambda: spy)
    big = FX.text_ds("a long line of text", FX.TICK, scale=4)
    again = [FX.DsSpec(start_ticks=(2 + k) * FX.TICK, emit_palette=False,
                       wds=False, objects=[FX.ObjSpec(obj_id=0, bitmap=None,
                                                      x=k, y=k)])
             for k in range(60)]
    got, ref = _demux_both(_pages([FX.sup_payload([big] + again)]),
                           monkeypatch)
    assert spy.calls == ["demux_walk", "demux_walk"]
    assert got.equals(ref) and got.num_rows == 61
    assert len({b[0] for b in got.column("bitmaps").to_pylist()}) == 1


@needs_kernel
def test_demux_tiny_corpus_matches_python_walk(monkeypatch):
    """The tiny corpus (Matroska, malformed and zero-set payloads among
    its urls) as one batch and as 7-row slices: the kernel's cue table
    equals the Python walk's."""
    from pgstosrt_ray.fixtures import build_tiny
    pages, _golden = build_tiny()
    for batch in [pages] + [pages.slice(i, 7)
                            for i in range(0, pages.num_rows, 7)]:
        got, ref = _demux_both(batch, monkeypatch)
        assert got.equals(ref)


# -- the no-compiler fallback over whole corpora ---------------------------

def _tiny_urls():
    from pgstosrt_ray.fixtures import build_tiny
    pages, _golden = build_tiny()
    urls: dict = {}
    for u, ts, html in zip(pages.column("url").to_pylist(),
                           pages.column("warc_ts").to_pylist(),
                           pages.column("html").to_pylist()):
        urls.setdefault(u, []).append((ts, html))
    return urls


def _heavy_urls():
    """Three heavy-profile urls: glyph scale 1-4, 4-12 cues a payload."""
    from pgstosrt_ray.fixtures import random_payload_rows
    return {f"https://example.org/heavy/{j}":
            random_payload_rows(random.Random(f"heavy:1:{j}"), j,
                                profile="heavy")
            for j in range(3)}


def _spans_of(urls):
    """(text per url, DecodeMeta per surviving cue)."""
    from pgstosrt_ray.oracle import extract_corpus, prepare_url_cues
    metas = [cue_meta_and_text(c)[0] for rows in urls.values()
             for c in prepare_url_cues(rows)]
    return extract_corpus(urls), metas


@needs_kernel
def test_fallback_matches_kernel(monkeypatch):
    """Without a compiler (no kernel at all) the oracle gives the same
    text and the same merge metadata, pixel_sha included, on the tiny
    corpus and on heavy-profile urls."""
    corpora = [_tiny_urls(), _heavy_urls()]
    spans = [_spans_of(urls) for urls in corpora]
    monkeypatch.setattr(_native, "_lib", lambda: None)
    assert not _native.available()
    for urls, (texts, metas) in zip(corpora, spans):
        fb_texts, fb_metas = _spans_of(urls)
        assert fb_texts == texts
        assert fb_metas == metas
        assert any(m.pixel_sha for m in metas)
        assert any(text for text, _n in texts.values())


_PROBE = """
import sys, time
import numpy as np
time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
from pgstosrt_ray import _native
ok = _native.available()
if ok:
    tops, lens, nt_h, nt_w, segs = _native.scan_ocr(
        np.ones((3, 2), np.uint8), None, np.ones(256, bool))
    ok = lens.tolist() == [3, 3] and (nt_h, nt_w) == (3, 2)
print(ok)
"""


@needs_kernel
def test_concurrent_first_build(tmp_path):
    """Processes that build the kernel at the same moment into one
    fresh cache all load a complete shared object."""
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=REPO)
    start = time.time() + 2.0
    procs = [subprocess.Popen([sys.executable, "-c", _PROBE, str(start)],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(4)]
    outs = [p.communicate(timeout=180) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert out.strip() == "True", (out, err)
    left = sorted(os.listdir(tmp_path / "pgstosrt_native"))
    assert len(left) == 1 and left[0].endswith(".so"), left


# -- codepoints that are not Unicode scalar values ------------------------

def _surrogate_pages():
    """One url whose cue reads a lone surrogate, beside normal urls."""
    from pgstosrt_ray import fixtures as FX
    rows = [("https://example.org/surrogate", 1, FX.sup_payload(
        [FX.text_ds("a\ud800b", 90000), FX.clear_ds(2 * FX.TICK)]))]
    rows += [(f"https://example.org/plain/{i}", 2 + i, FX.sup_payload(
        [FX.text_ds(f"plain {i}", FX.TICK), FX.clear_ds(2 * FX.TICK)]))
        for i in range(3)]
    return pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.int64())
        .cast(pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.binary())})


@pytest.mark.parametrize("kernel", [
    pytest.param(True, marks=needs_kernel), False])
def test_lone_surrogate_reads_as_replacement_char(kernel):
    """A glyph that decodes to U+D800 is U+FFFD in the oracle and in
    the engine, with and without the kernels; it does not fail the
    batch it rides in."""
    from pgstosrt_ray.oracle import extract_url
    from pgstosrt_ray.stages.demux import demux_batch
    from pgstosrt_ray.stages.extract import ExtractorEngine
    pages = _surrogate_pages()
    with (mock.patch.object(_native, "_lib", _native._lib) if kernel
          else _no_kernel()):
        assert _native.available() == kernel
        srt, n = extract_url([(1, pages.column("html")[0].as_py())])
        spans = ExtractorEngine()(demux_batch(pages))
    assert n == 1 and srt.splitlines()[2] == "a�b"
    texts = {u: t for u, t in zip(spans.column("url").to_pylist(),
                                  spans.column("text").to_pylist()) if t}
    assert texts["https://example.org/surrogate"] == "a�b"
    assert texts["https://example.org/plain/2"] == "plain 2"


@pytest.mark.parametrize("cpus", [1, 4])
def test_lone_surrogate_through_pipeline(ray_session, monkeypatch, cpus):
    """The surrogate url beside normal urls, on the one-CPU plan and
    the router plan: every doc equals the oracle."""
    import ray.data
    from pgstosrt_ray.oracle import extract_url
    from pgstosrt_ray.pipelines import reduce
    from pgstosrt_ray.pipelines.extract import docs_to_table, extract_docs
    monkeypatch.setattr(reduce, "cluster_cpus", lambda default=8: cpus)
    pages = _surrogate_pages()
    docs = docs_to_table(extract_docs(ray.data.from_arrow(pages)))
    exp = {u: extract_url([(ts, html)]) for u, ts, html in zip(
        pages.column("url").to_pylist(),
        pages.column("warc_ts").cast(pa.int64()).to_pylist(),
        pages.column("html").to_pylist())}
    assert {u: (t, n) for u, t, n in zip(
        docs.column("url").to_pylist(), docs.column("text").to_pylist(),
        docs.column("n_cues").to_pylist())} == exp
    assert "a�b" in exp["https://example.org/surrogate"][0]
