"""The C kernels in _native.py: the column scan against its numpy
reference, the whole extract path against the no-compiler fallback,
and the first build racing across processes."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pgstosrt_ray import _native
from pgstosrt_ray.decode import (_opacity_gate, cue_meta_and_text,
                                 mask_extents, opacity_mask)
from pgstosrt_ray.glyph import column_runs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

needs_kernel = pytest.mark.skipif(not _native.available(),
                                  reason="no C compiler")


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
    scan over the opacity mask, for every column that has a run."""
    mask = opacity_mask(idx, written, lut)
    ref_tops, ref_lens = column_runs(mask)
    tops, lens, nt_h, nt_w = _native.column_runs(
        idx, _opacity_gate(written, lut), lut[:, 3] > 0)
    np.testing.assert_array_equal(lens, ref_lens)
    has = ref_lens > 0
    np.testing.assert_array_equal(tops[has], ref_tops[has])
    assert (nt_h, nt_w) == mask_extents(mask)


@st.composite
def _cases(draw):
    h = draw(st.integers(1, 24))
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
], ids=["1x1", "1x1-clear", "w1", "w1-tie", "all-opaque", "bottom-run",
        "lut0-opaque-partial-written", "lut0-only-opaque"])
def test_column_scan_edge_cases(idx, written, lut):
    _check(idx, written, lut)


def _spans_of_tiny():
    """(text per url, pixel_sha per surviving cue) for the tiny corpus."""
    from pgstosrt_ray.fixtures import build_tiny
    from pgstosrt_ray.oracle import extract_corpus, prepare_url_cues
    pages, _golden = build_tiny()
    urls: dict = {}
    for u, ts, html in zip(pages.column("url").to_pylist(),
                           pages.column("warc_ts").to_pylist(),
                           pages.column("html").to_pylist()):
        urls.setdefault(u, []).append((ts, html))
    metas = [cue_meta_and_text(c)[0] for rows in urls.values()
             for c in prepare_url_cues(rows)]
    return extract_corpus(urls), metas


@needs_kernel
def test_fallback_matches_kernel(monkeypatch):
    """Without a compiler (no kernel at all) the oracle gives the same
    text and the same merge metadata, pixel_sha included."""
    texts, metas = _spans_of_tiny()
    monkeypatch.setattr(_native, "_lib", lambda: None)
    assert not _native.available()
    fb_texts, fb_metas = _spans_of_tiny()
    assert fb_texts == texts
    assert fb_metas == metas
    assert any(m.pixel_sha for m in metas)


_PROBE = """
import sys, time
import numpy as np
time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
from pgstosrt_ray import _native
ok = _native.available()
if ok:
    tops, lens, nt_h, nt_w = _native.column_runs(
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
