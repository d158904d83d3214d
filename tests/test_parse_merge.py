"""Parser state-machine + merge decision-table tests (SURVEY §5.1)."""

import numpy as np
import pytest

from pgstosrt_ray import format as F
from pgstosrt_ray import fixtures as FX
from pgstosrt_ray.merge import (CueView, cue_view_of, end_time_fill,
                                merge_cue_runs, reassemble_fragments)
from pgstosrt_ray.decode import DecodeMeta
from pgstosrt_ray.parse import parse_payload, parse_segment_stream


def _simple_payload(**kw):
    return FX.sup_payload([FX.text_ds("abc", FX.TICK, **kw),
                           FX.clear_ds(2 * FX.TICK)])


class TestParse:
    def test_happy_fields(self):
        sets = parse_payload(_simple_payload())
        # clear_ds emits an (empty) composition too; filter is per-url
        assert len(sets) == 2
        ds = sets[0]
        assert ds.start_ticks == FX.TICK
        assert ds.end_ticks == 2 * FX.TICK  # in-walk fill (:333-334)
        assert ds.width == 1920 and ds.height == 1080
        assert len(ds.objects) == 1 and len(ds.bitmap_objects) == 1
        assert len(sets[1].objects) == 0

    def test_forced_flag(self):
        sets = parse_payload(_simple_payload(forced=True))
        assert sets[0].is_forced

    def test_fragmented_ods_reassembly(self):
        sets = parse_payload(_simple_payload(max_fragment=16))
        ds = sets[0]
        assert len(ds.bitmap_objects[0]) > 1
        whole = parse_payload(_simple_payload())[0]
        reassemble_fragments(ds)
        assert len(ds.bitmap_objects[0]) == 1
        assert ds.bitmap_objects[0][0].data == whole.bitmap_objects[0][0].data

    def test_missing_palette_drops_composition(self):
        ghost = FX.DsSpec(start_ticks=FX.TICK, palette_id=9,
                          emit_palette=False, state=F.STATE_NORMAL,
                          objects=[FX.ObjSpec(obj_id=0,
                                              bitmap=FX.render_text("x"))])
        sets = parse_payload(FX.sup_payload([ghost]))
        assert sets == []

    def test_epoch_start_clears_state(self):
        # second epoch references object id from the first: must be gone
        keep = FX.text_ds("first", FX.TICK)
        stale = FX.DsSpec(start_ticks=2 * FX.TICK, state=F.STATE_EPOCH_START,
                          objects=[FX.ObjSpec(obj_id=0, bitmap=None)])
        sets = parse_payload(FX.sup_payload([keep, stale]))
        assert len(sets) == 1  # stale composition has no bitmap => dropped

    def test_truncated_stream_stops_cleanly(self):
        good = _simple_payload()
        trunc = F.encode_sup_segment(F.SEG_ODS, 0, b"\x00" * 400)[:20]
        sets = parse_payload(good + trunc)
        assert len(sets) == 2

    def test_mkv_container_times(self):
        payload = FX.mkv_payload([(1000, 2000, FX.text_ds("a", 0))])
        sets = parse_payload(payload)
        assert len(sets) == 1
        assert sets[0].start_ticks == int(999 * 90.0)
        assert sets[0].end_ticks == int(1999 * 90.0)

    def test_mkv_overlap_clip(self):
        payload = FX.mkv_payload([(1000, 3000, FX.text_ds("a", 0)),
                                  (2500, 4000, FX.text_ds("b", 0))])
        sets = parse_payload(payload)
        assert sets[0].end_ticks == sets[1].start_ticks - 1

    def test_palette_update_replaces_last_version(self):
        specs = [FX.text_ds("t", FX.TICK),
                 FX.DsSpec(start_ticks=2 * FX.TICK, palette_update=True,
                           state=F.STATE_NORMAL,
                           palette_versions=[[(1, 99, 128, 128, 255)]],
                           objects=[FX.ObjSpec(obj_id=0, bitmap=None)])]
        sets = parse_payload(FX.sup_payload(specs))
        assert len(sets) == 2
        # update replaced the single previous version: still 1 version
        assert len(sets[1].palette_buffers) == 1
        assert sets[1].palette_buffers[0][1] == 99  # new Y


class TestEndTimeFill:
    def test_fill(self):
        sets = parse_payload(FX.sup_payload([FX.text_ds("a", FX.TICK)]))
        more = parse_payload(FX.sup_payload(
            [FX.text_ds("b", 5 * FX.TICK), FX.clear_ds(6 * FX.TICK)]))
        cues = sets + more
        end_time_fill(cues)
        assert cues[0].end_ticks == 5 * FX.TICK


def _view(start, end, key=b"K", w=1920, h=1080, pal=1):
    return CueView(start_ticks=start, end_ticks=end, width=w, height=h,
                   n_objects=1, obj_keys=(((1, key),),), palette_count=pal)


def _meta(nt_h=16, nt_w=60, sha=b"m"):
    return DecodeMeta(dec_h=66, dec_w=110, nt_h=nt_h, nt_w=nt_w,
                      pixel_sha=sha)


class TestMergeDecisionTable:
    def test_no_merge_below_three_groups(self):
        # two duplicate runs only => mergeCount<3 => nothing merges (:538)
        views = [_view(0, 90), _view(90, 180),
                 _view(9000, 9090), _view(9090, 9180)]
        keep = merge_cue_runs(views, lambda i: _meta())
        assert keep == [0, 1, 2, 3]

    def _three_groups(self, pair_override=None):
        views = []
        for g in range(3):
            base = g * 100000
            a = _view(base, base + 90000)
            b = _view(base + 90000, base + 180000)
            if g == 0 and pair_override:
                a, b = pair_override(a, b)
            views += [a, b]
        return views

    def test_pair_merges_by_default(self):
        views = self._three_groups()
        keep = merge_cue_runs(views, lambda i: _meta())
        assert len(keep) == 3  # each pair collapsed
        # merged cue spans the run (min start / max end)
        assert views[keep[0]].start_ticks == 0
        assert views[keep[0]].end_ticks == 180000

    def test_short_duration_pair_merges(self):
        def ov(a, b):
            a.end_ticks = a.start_ticks + 9000   # 100 ms < 400
            b.start_ticks = a.end_ticks
            return a, b
        views = self._three_groups(ov)
        assert len(merge_cue_runs(views, lambda i: _meta())) == 3

    def test_many_palettes_pair_merges(self):
        def ov(a, b):
            a.palette_count = 3
            return a, b
        views = self._three_groups(ov)
        assert len(merge_cue_runs(views, lambda i: _meta())) == 3

    def test_large_extent_pair_merges(self):
        views = self._three_groups()
        metas = {i: _meta(nt_h=120) for i in range(len(views))}
        assert len(merge_cue_runs(views, metas.__getitem__)) == 3

    def test_pixel_difference_blocks_pair_merge(self):
        views = self._three_groups()
        # group 0 pair decodes differently; groups 1/2 identical
        metas = {0: _meta(sha=b"x"), 1: _meta(sha=b"y")}
        keep = merge_cue_runs(views, lambda i: metas.get(i, _meta()))
        assert keep[:2] == [0, 1] and len(keep) == 4

    def test_triple_run_merges_to_one(self):
        views = [_view(i * 90000, (i + 1) * 90000) for i in range(3)]
        views += self._three_groups()[2:]  # two more pair groups
        keep = merge_cue_runs(views, lambda i: _meta())
        assert len(keep) == 1 + 2

    def test_byte_difference_blocks_run(self):
        views = [_view(0, 90000), _view(90000, 180000, key=b"OTHER")]
        views += self._three_groups()[2:]
        keep = merge_cue_runs(views, lambda i: _meta())
        assert 0 in keep and 1 in keep

    def test_skip_merge_flag(self):
        views = self._three_groups()
        keep = merge_cue_runs(views, lambda i: _meta(), skip_merge=True)
        assert len(keep) == 6

    def test_force_merge_all_disables_merge(self):
        # replicates the reference's inverted flag (:538)
        views = self._three_groups()
        keep = merge_cue_runs(views, lambda i: _meta(), force_merge_all=True)
        assert len(keep) == 6


class TestMalformedSegments:
    def test_pcs_claims_more_objects_than_bytes(self):
        # PCS body with object count 5 but bytes for none: the segment
        # is skipped like the reference's IndexOutOfRange catch
        # (:380-383) and the stream keeps parsing
        bad_pcs = F.encode_pcs_payload(1920, 1080, 0x10, 1, F.STATE_NORMAL,
                                       False, 0, [])[:11]
        bad_pcs = bad_pcs[:10] + bytes([5])  # count=5, no entries
        payload = (F.encode_sup_segment(F.SEG_PCS, 100, bad_pcs)
                   + FX.sup_payload([FX.text_ds("ok", FX.TICK),
                                     FX.clear_ds(2 * FX.TICK)]))
        sets = parse_payload(payload)
        assert [d.comp_num for d in sets if d.objects] == [0]

    def test_malformed_pcs_preserves_force_first(self):
        # reference mutation order (:329-331): forceFirst=true is set
        # BEFORE the throw-capable ParsePicture and survives the catch,
        # so a continuation-flagged ODS right after a malformed PCS is
        # parsed as a FIRST fragment (width/height at offsets 7/9)
        pal = F.encode_pds_payload(0, 0, [(1, 120, 128, 128, 255)])
        rle = F.rle_encode(np.ones((4, 8), dtype=np.uint8))
        first_ods = F.encode_ods_payloads(0, 0, 8, 4, rle)[0]
        bad_pcs = F.encode_pcs_payload(
            1920, 1080, 0x10, 2, F.STATE_NORMAL, False, 0,
            [])[:10] + bytes([5])  # claims 5 objects, has none
        cont = (F.pack_be16(0) + bytes((0, 0x00)) + b"\x00\x00\x00"
                + F.pack_be16(99) + F.pack_be16(77) + b"XY")
        stream = (
            F.encode_sup_segment(F.SEG_PCS, FX.TICK, F.encode_pcs_payload(
                1920, 1080, 0x10, 1, F.STATE_EPOCH_START, False, 0,
                [(0, 0, False, 10, 20)]))
            + F.encode_sup_segment(F.SEG_PDS, FX.TICK, pal)
            + F.encode_sup_segment(F.SEG_ODS, FX.TICK, first_ods)
            + F.encode_sup_segment(F.SEG_PCS, 2 * FX.TICK, bad_pcs)
            + F.encode_sup_segment(F.SEG_ODS, 2 * FX.TICK, cont)
            + F.encode_sup_segment(F.SEG_END, 2 * FX.TICK, b""))
        sets = parse_segment_stream(stream)
        frags = [fr for d in sets for obj in d.bitmap_objects for fr in obj]
        assert any(f.is_first and f.width == 99 and f.height == 77
                   for f in frags)

    def test_short_ods_body_skipped(self):
        good = FX.sup_payload([FX.text_ds("ok", FX.TICK)])
        bad_ods = F.encode_sup_segment(F.SEG_ODS, 0, b"\x00\x01\x00\x80")
        trailer = FX.sup_payload([FX.clear_ds(2 * FX.TICK)])
        sets = parse_payload(good[:-16] + bad_ods + good[-16:] + trailer)
        # stream survives; the well-formed cue still extracts
        assert any(d.objects for d in sets)

    def test_continuation_ods_extends_completed_cue(self):
        # a completed display set holds each object's LIVE fragment
        # list: a later continuation ODS for the same object id (after
        # another object's first fragment cleared force_first) grows
        # the earlier cue's bitmap, and reassembly sees both fragments
        pal = F.encode_pds_payload(0, 0, [(1, 120, 128, 128, 255)])
        first = F.encode_ods_payloads(1, 0, 8, 4, bytes(range(20)))[0]
        other = F.encode_ods_payloads(2, 0, 8, 4, bytes(20))[0]
        cont = F.pack_be16(1) + bytes((0, 0x00)) + bytes(range(20, 40))
        stream = (
            F.encode_sup_segment(F.SEG_PCS, FX.TICK, F.encode_pcs_payload(
                1920, 1080, 0x10, 1, F.STATE_EPOCH_START, False, 0,
                [(1, 0, False, 10, 20)]))
            + F.encode_sup_segment(F.SEG_PDS, FX.TICK, pal)
            + F.encode_sup_segment(F.SEG_ODS, FX.TICK, first)
            + F.encode_sup_segment(F.SEG_END, FX.TICK, b"")
            + F.encode_sup_segment(F.SEG_PCS, 2 * FX.TICK,
                                   F.encode_pcs_payload(
                                       1920, 1080, 0x10, 2, F.STATE_NORMAL,
                                       False, 0, [(2, 0, False, 30, 40)]))
            + F.encode_sup_segment(F.SEG_ODS, 2 * FX.TICK, other)
            + F.encode_sup_segment(F.SEG_ODS, 2 * FX.TICK, cont)
            + F.encode_sup_segment(F.SEG_END, 2 * FX.TICK, b""))
        sets = parse_segment_stream(stream)
        assert [d.comp_num for d in sets] == [1, 2]
        assert [[len(f.data) for f in obj]
                for obj in sets[0].bitmap_objects] == [[20, 20]]
        assert [[len(f.data) for f in obj]
                for obj in sets[1].bitmap_objects] == [[20]]
        reassemble_fragments(sets[0])
        assert sets[0].bitmap_objects[0][0].data == bytes(range(40))

    def test_bad_pcs_emits_completed_set_twice(self):
        # a PCS whose body raises right after the open set completed
        # leaves that set open: the next PCS completes it a second time,
        # so the walk's output holds the same object twice, and one
        # end-time close updates both rows
        sets = parse_segment_stream(
            FX.sup_payload([FX.text_ds("one", FX.TICK)])[:-13]  # no END
            + F.encode_sup_segment(F.SEG_PCS, 2 * FX.TICK, F.encode_pcs_payload(
                1920, 1080, 0x10, 7, F.STATE_NORMAL, False, 0,
                [])[:10] + bytes([3]))           # claims 3 objects, has none
            + FX.sup_payload([FX.clear_ds(3 * FX.TICK)]))
        assert len(sets) == 3
        assert sets[0] is sets[1]
        assert [d.end_ticks for d in sets[:2]] == [3 * FX.TICK] * 2
        assert sets[2].start_ticks == 3 * FX.TICK and not sets[2].objects
