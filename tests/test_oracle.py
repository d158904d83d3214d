"""Oracle invariants (SURVEY §5.2/§5.4): determinism, row-order
independence, SRT formatting, and golden-corpus sanity."""

import random

import pytest

from pgstosrt_ray import _native
from pgstosrt_ray import fixtures as FX
from pgstosrt_ray.oracle import extract_url
from pgstosrt_ray.srt import format_timestamp, serialize_srt


class TestSrtFormat:
    def test_timestamp(self):
        assert format_timestamp(0.0) == "00:00:00,000"
        assert format_timestamp(3_600_000 + 61_001) == "01:01:01,001"
        assert format_timestamp(999.5) == "00:00:01,000"   # half-up
        assert format_timestamp(999.4) == "00:00:00,999"

    def test_serialize(self):
        out = serialize_srt([(0.0, 1000.0, "hi"), (2000.0, 3000.0, "a\nb")])
        assert out == ("1\n00:00:00,000 --> 00:00:01,000\nhi\n\n"
                       "2\n00:00:02,000 --> 00:00:03,000\na\nb\n\n")


class TestOracle:
    def test_known_text_roundtrip(self):
        rows = [(1, FX.sup_payload([FX.text_ds("Hello!", FX.TICK),
                                    FX.clear_ds(2 * FX.TICK)]))]
        text, n = extract_url(rows)
        assert n == 1
        assert text == "1\n00:00:01,000 --> 00:00:02,000\nHello!\n\n"

    def test_row_order_independence(self):
        urls = FX.tiny_corpus_payloads()
        rng = random.Random(0)
        for url, rows in urls.items():
            base = extract_url(rows)
            for _ in range(3):
                shuffled = rows[:]
                rng.shuffle(shuffled)
                assert extract_url(shuffled) == base, url

    def test_duplicate_rows_deduped(self):
        payload = FX.sup_payload([FX.text_ds("once", FX.TICK),
                                  FX.clear_ds(2 * FX.TICK)])
        assert extract_url([(5, payload)]) == extract_url(
            [(5, payload), (5, payload)])

    def test_corpus_deterministic(self):
        p1, g1 = FX.build_corpus(10, seed=3)
        p2, g2 = FX.build_corpus(10, seed=3)
        assert p1.equals(p2) and g1.equals(g2)
        p3, _ = FX.build_corpus(10, seed=4)
        assert not p1.equals(p3)

    def test_tiny_corpus_all_urls_extract(self, tiny_corpus):
        pages, golden = tiny_corpus
        assert golden.num_rows >= 40
        n_cues = golden.column("n_cues").to_pylist()
        assert all(n >= 0 for n in n_cues)
        texts = golden.column("text").to_pylist()
        assert sum(1 for t in texts if t) > 40  # nearly all non-empty


class TestDemuxMetaGolden:
    @pytest.mark.parametrize("kernel", [
        pytest.param(True, marks=pytest.mark.skipif(
            not _native.available(), reason="no C compiler")),
        False], ids=["kernel", "fallback"])
    def test_demux_meta_rows_matches_stage(self, kernel, monkeypatch):
        """golden_cues comes from oracle.demux_meta_rows while the
        driver query runs stages.demux.demux_batch + projection — pin
        their equivalence per payload (incl. sentinel rows and the
        Matroska urls), with the native segment walk and without."""
        import pyarrow as pa
        from pgstosrt_ray import fixtures as FX
        from pgstosrt_ray.format import MKV_MAGIC
        from pgstosrt_ray.oracle import demux_meta_rows
        from pgstosrt_ray.stages.demux import demux_batch
        if not kernel:
            monkeypatch.setattr(_native, "_lib", lambda: None)
        urls = FX.tiny_corpus_payloads()
        assert any(html[:4] == MKV_MAGIC
                   for rows in urls.values() for _ts, html in rows)
        for url, rows in urls.items():
            golden = demux_meta_rows(url, rows)
            pages = pa.table({
                "url": pa.array([url] * len(rows), pa.string()),
                "warc_ts": pa.array([r[0] for r in rows], pa.int64())
                .cast(pa.timestamp("us")),
                "html": pa.array([r[1] for r in rows], pa.binary()),
            })
            cues = demux_batch(pages)
            got = []
            for i in range(cues.num_rows):
                row = {name: cues.column(name)[i].as_py()
                       for name in ["url", "seq", "comp_num",
                                    "start_ticks", "end_ticks", "width",
                                    "height", "n_objects", "forced",
                                    "palette_count"]}
                xs = cues.column("obj_x")[i].as_py()
                ys = cues.column("obj_y")[i].as_py()
                row["pos_x"] = min(xs) if xs else 0
                row["pos_y"] = min(ys) if ys else 0
                got.append(row)
            assert got == golden, url
