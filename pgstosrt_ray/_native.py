"""Optional C kernels for the per-byte loops of the demux and extract
stages: a demux batch costs one call, a single-object cue two.

- ``demux_walk``: the SUP segment walk of a whole batch of payloads
  (~2us per segment in CPython). One pass over the batch buffer walks
  each payload's 13-byte framing with the state machine of
  parse.parse_segment_stream + _process_segment, malformed-body skips,
  live fragment lists and twice-completed sets included, and emits
  flat arrays: per cue its scalars and the last palette version, per
  PCS object x and y, per found bitmap object w, h and the RLE bytes
  merge.reassemble_fragments would join. stages/demux.py builds the
  cue columns from them. Matroska payloads are flagged, not walked.
  Reference: parse.parse_payload + merge.reassemble_fragments, which
  tests compare it against and which demux runs for Matroska
  payloads.
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
wrapper returns None and the caller runs the Python/numpy reference:
demux walks every payload with parse.parse_payload, extract decodes
with numpy.
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

/* ---- demux: the SUP segment walk (parse.parse_segment_stream) ---- */

#include <stdlib.h>

#define SEG_PDS 0x14
#define SEG_ODS 0x15
#define SEG_PCS 0x16
#define SEG_END 0x80
#define ST_EPOCH_START 2
#define ST_INVALID 4

/* one ODS fragment: a byte range of the batch buffer, chained into
   its object's fragment list */
typedef struct { long long off, len; int next; } Frag;
/* an object's live fragment list: a later continuation ODS appends to
   it, and every cue that completed with it sees the append */
typedef struct { int head, tail, w, h; } FragList;
typedef struct { int id, x, y, forced; } PcsObj;
/* one parsed PCS (a DisplaySet); ``out`` holds slot indices, so a set
   completed twice is one slot and a later end-time close changes both
   rows */
typedef struct {
    long long start, end, pal_off, pal_len;
    int comp_num, state, pal_update, width, height, pal_id;
    int obj0, nobj, pal_count, ref0, nref;
} Slot;

typedef struct {
    Slot* slot; int nslot, cslot;
    int* out; int nout, cout;
    PcsObj* obj; int nobj, cobj;
    int* ref; int nref, cref;          /* completion -> fragment lists */
    Frag* frag; int nfrag, cfrag;
    FragList* list; int nlist, clist;
    int* dict_list;                    /* object id -> list, valid when */
    unsigned* dict_gen;                /* dict_gen[id] == gen */
    unsigned gen;
    int pal_count[256];                /* palette id -> versions held */
    long long pal_off[256], pal_len[256];   /* ... and the last one */
    int oom;
} Walk;

/* index of a new element at the end of *arr (n used of *cap), or -1
   when the array cannot grow */
static int push(void** arr, int* n, int* cap, size_t sz)
{
    if (*n == *cap) {
        int nc = *cap ? 2 * *cap : 64;
        void* q = realloc(*arr, (size_t) nc * sz);
        if (!q) return -1;
        *arr = q; *cap = nc;
    }
    return (*n)++;
}

#define PUSH(w, a, n, c) push((void**) &(w)->a, &(w)->n, &(w)->c, \
                              sizeof(*(w)->a))

static int be16p(const uint8_t* p) { return (p[0] << 8) | p[1]; }

/* parse._complete_pcs on slot s. For a SUP stream last_palettes stays
   empty, so ``palettes if palettes else last_palettes`` is palettes. */
static int complete(Walk* w, int s)
{
    Slot* sl = &w->slot[s];
    if (sl->state == ST_INVALID) return 0;
    if (sl->nobj == 0) return 1;
    int pid = sl->pal_id;
    if (!w->pal_count[pid]) return 0;
    sl->pal_count = w->pal_count[pid];
    sl->pal_off = w->pal_off[pid];
    sl->pal_len = w->pal_len[pid];
    sl->ref0 = w->nref;
    sl->nref = 0;
    for (int k = 0; k < sl->nobj; k++) {
        int id = w->obj[sl->obj0 + k].id;
        if (w->dict_gen[id] != w->gen) continue;
        int r = PUSH(w, ref, nref, cref);
        if (r < 0) { w->oom = 1; return 0; }
        w->ref[r] = w->dict_list[id];
        sl->nref++;
    }
    return sl->nref > 0;
}

static void emit_out(Walk* w, int s)
{
    int i = PUSH(w, out, nout, cout);
    if (i < 0) w->oom = 1; else w->out[i] = s;
}

static void clear_state(Walk* w)
{
    w->gen++;
    memset(w->pal_count, 0, sizeof(w->pal_count));
}

/* The walk of one payload data[0:n) (absolute offset ``base`` in the
   batch buffer) with the state machine of parse.parse_segment_stream
   and _process_segment. A body the Python arm would index past (an
   IndexError there) is skipped here after the same partial effects. */
static void walk_payload(Walk* w, const uint8_t* data, long long n,
                         long long base)
{
    int open = -1, force_first = 1;
    long long pos = 0;
    w->nslot = w->nout = w->nobj = w->nref = w->nfrag = w->nlist = 0;
    clear_state(w);
    while (pos + 13 <= n && !w->oom) {
        const uint8_t* hdr = data + pos;
        int type = 0;
        long long size = 0, pts = 0;
        if (hdr[0] == 0x50 && hdr[1] == 0x47) {
            pts = ((long long) hdr[2] << 24) | (hdr[3] << 16)
                  | (hdr[4] << 8) | hdr[5];
            type = hdr[10];
            size = be16p(hdr + 11);
        }
        long long bs = pos + 13;
        if (bs + size > n) break;
        const uint8_t* b = data + bs;
        pos = bs + size;
        if (type == SEG_PDS) {
            if (open < 0) continue;
            /* (size - 2) // 5 <= 0 for every size < 7, as in Python */
            long long ps = size < 7 ? 0 : (size - 2) / 5;
            if (ps <= 0) continue;
            int pid = b[0];
            if (!w->pal_count[pid]) w->pal_count[pid] = 1;
            else if (!w->slot[open].pal_update) w->pal_count[pid]++;
            /* else: pop the last version, append the new one */
            w->pal_off[pid] = base + bs + 2;
            w->pal_len[pid] = ps * 5;
        } else if (type == SEG_ODS) {
            if (open < 0 || size < 4) continue;
            int id = be16p(b);
            int first = (b[3] & 0x80) || force_first;
            long long d0 = first ? 11 : 4;
            if (first && size < 11) continue;
            if (!w->slot[open].pal_update) {
                int f = -1, l = -1;
                if (first || w->dict_gen[id] == w->gen) {
                    f = PUSH(w, frag, nfrag, cfrag);
                    if (f < 0) { w->oom = 1; return; }
                    w->frag[f].off = base + bs + d0;
                    w->frag[f].len = size - d0;
                    w->frag[f].next = -1;
                }
                if (first) {
                    l = PUSH(w, list, nlist, clist);
                    if (l < 0) { w->oom = 1; return; }
                    w->list[l].head = w->list[l].tail = f;
                    w->list[l].w = be16p(b + 7);
                    w->list[l].h = be16p(b + 9);
                    w->dict_list[id] = l;
                    w->dict_gen[id] = w->gen;
                } else if (f >= 0) {
                    l = w->dict_list[id];
                    w->frag[w->list[l].tail].next = f;
                    w->list[l].tail = f;
                }
            }
            force_first = 0;
        } else if (type == SEG_PCS) {
            if (open >= 0 && complete(w, open)) emit_out(w, open);
            force_first = 1;
            int state = ST_INVALID, nobj = 0;
            if (size >= 11) {
                switch (b[7]) {
                case 0x00: state = 0; break;
                case 0x40: state = 1; break;
                case 0x80: state = 2; break;
                case 0xC0: state = 3; break;
                }
                if (state != ST_INVALID) nobj = b[10];
                if (nobj && size < 11 + 8LL * nobj) continue;
            }
            int s = PUSH(w, slot, nslot, cslot);
            if (s < 0) { w->oom = 1; return; }
            Slot* sl = &w->slot[s];
            memset(sl, 0, sizeof(*sl));
            sl->start = pts;
            sl->state = state;
            if (size >= 11) {
                sl->width = be16p(b);
                sl->height = be16p(b + 2);
                sl->comp_num = be16p(b + 5);
                sl->pal_update = b[8] == 0x80;
                sl->pal_id = b[9];
            }
            sl->obj0 = w->nobj;
            for (int k = 0; k < nobj; k++) {
                int o = PUSH(w, obj, nobj, cobj);
                if (o < 0) { w->oom = 1; return; }
                const uint8_t* e = b + 11 + 8 * k;
                w->obj[o].id = be16p(e);
                w->obj[o].forced = (e[3] & 0x40) != 0;
                w->obj[o].x = be16p(e + 4);
                w->obj[o].y = be16p(e + 6);
            }
            w->slot[s].nobj = nobj;
            if (pts > 0 && w->nout && w->slot[w->out[w->nout - 1]].end == 0)
                w->slot[w->out[w->nout - 1]].end = pts;
            open = s;
            if (state == ST_EPOCH_START) clear_state(w);
        } else if (type == SEG_END) {
            force_first = 1;
            if (open >= 0) {
                if (complete(w, open)) emit_out(w, open);
                open = -1;
            }
        }
    }
    if (open >= 0 && complete(w, open)) emit_out(w, open);
}

/* The segment walk of every payload of a batch: payload r is
   data[offsets[r]:offsets[r + 1]]. A payload with the Matroska magic
   is not walked (mkv[r] = 1; the caller parses it), any other emits
   one row per completed display set, or one seq = -1 sentinel row.
   cap = (cues, PCS objects, bitmap objects, palette bytes, bitmap
   bytes) sizes the outputs, which follow each other in i32, ticks and
   bytes:
     i32:   cue[8][cap0]      page, seq, comp_num, width, height,
                              n_objects, forced, palette_count
            offs[3][cap0 + 1] per cue: palette byte, PCS object and
                              bitmap object offsets
            xy[2][cap1]       per PCS object: x, y
            wh[2][cap2]       per bitmap object: w, h
            boffs[cap2 + 1]   per bitmap object: RLE byte offsets
     ticks: [2][cap0]         start, end
     bytes: palb[cap3]        each cue's last palette version
            bmb[cap4]         each bitmap object's fragments joined,
                              as merge.reassemble_fragments does
   need gets the same five counts, and nothing is written past a cap:
   when a need exceeds its cap the caller calls again with larger
   buffers. Returns 0, or -1 when the walk state could not be
   allocated. */
int demux_walk(const uint8_t* data, const long long* offsets, int nrows,
               const long long* cap, long long* need, uint8_t* mkv,
               int32_t* i32, long long* ticks, uint8_t* bytes)
{
    Walk w;
    memset(&w, 0, sizeof(w));
    w.dict_list = calloc(65536, sizeof(int));
    w.dict_gen = calloc(65536, sizeof(unsigned));
    long long nc = 0, nxy = 0, nbm = 0, npal = 0, nbmb = 0;
    long long c0 = cap[0], c1 = cap[1], c2 = cap[2];
    int32_t* cue = i32;
    int32_t* poffs = cue + 8 * c0;
    int32_t* xoffs = poffs + (c0 + 1);
    int32_t* moffs = xoffs + (c0 + 1);
    int32_t* xy = moffs + (c0 + 1);
    int32_t* wh = xy + 2 * c1;
    int32_t* boffs = wh + 2 * c2;
    uint8_t* palb = bytes;
    uint8_t* bmb = bytes + cap[3];
    if (!w.dict_list || !w.dict_gen) w.oom = 1;
    poffs[0] = xoffs[0] = moffs[0] = boffs[0] = 0;
    for (int r = 0; r < nrows && !w.oom; r++) {
        const uint8_t* p = data + offsets[r];
        long long n = offsets[r + 1] - offsets[r];
        mkv[r] = n >= 4 && p[0] == 'M' && p[1] == 'K' && p[2] == 'P'
                 && p[3] == 'G';
        if (mkv[r]) continue;
        walk_payload(&w, p, n, offsets[r]);
        if (w.oom) break;
        int rows = w.nout ? w.nout : 1;
        for (int i = 0; i < rows; i++, nc++) {
            Slot* sl = w.nout ? &w.slot[w.out[i]] : 0;
            int forced = 0;
            for (int k = 0; sl && k < sl->nobj; k++, nxy++) {
                PcsObj* o = &w.obj[sl->obj0 + k];
                forced |= o->forced;
                if (nxy < c1) { xy[nxy] = o->x; xy[c1 + nxy] = o->y; }
            }
            for (int k = 0; sl && k < sl->nref; k++, nbm++) {
                FragList* l = &w.list[w.ref[sl->ref0 + k]];
                for (int f = l->head; f >= 0; f = w.frag[f].next) {
                    long long len = w.frag[f].len;
                    if (nbmb + len <= cap[4])
                        memcpy(bmb + nbmb, data + w.frag[f].off, len);
                    nbmb += len;
                }
                if (nbm < c2) {
                    wh[nbm] = l->w; wh[c2 + nbm] = l->h;
                    boffs[nbm + 1] = (int32_t) nbmb;
                }
            }
            long long plen = sl ? sl->pal_len : 0;
            if (plen && npal + plen <= cap[3])
                memcpy(palb + npal, data + sl->pal_off, plen);
            npal += plen;
            if (nc >= c0) continue;
            int32_t v[8] = {r, sl ? i : -1, sl ? sl->comp_num : 0,
                            sl ? sl->width : 0, sl ? sl->height : 0,
                            sl ? sl->nobj : 0, forced,
                            sl ? sl->pal_count : 0};
            for (int k = 0; k < 8; k++) cue[k * c0 + nc] = v[k];
            ticks[nc] = sl ? sl->start : 0;
            ticks[c0 + nc] = sl ? sl->end : 0;
            poffs[nc + 1] = (int32_t) npal;
            xoffs[nc + 1] = (int32_t) nxy;
            moffs[nc + 1] = (int32_t) nbm;
        }
    }
    need[0] = nc; need[1] = nxy; need[2] = nbm;
    need[3] = npal; need[4] = nbmb;
    int oom = w.oom;
    free(w.slot); free(w.out); free(w.obj); free(w.ref); free(w.frag);
    free(w.list); free(w.dict_list); free(w.dict_gen);
    return oom ? -1 : 0;
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
            lib.demux_walk.restype = ctypes.c_int
            lib.demux_walk.argtypes = (
                [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int]
                + [ctypes.c_void_p] * 6)
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


# the per-cue int32 columns of demux_walk, in its ``cue`` order
_CUE_INTS = ("page", "seq", "comp_num", "width", "height", "n_objects",
             "forced", "palette_count")


def demux_walk(data: np.ndarray, offsets: np.ndarray):
    """The segment walk of every payload ``data[offsets[r]:offsets[r +
    1]]`` via C, or None when the kernel is unavailable. ``data`` is
    uint8, ``offsets`` int64 (nrows + 1). Returns a dict of numpy
    arrays: ``mkv`` (bool per row: a Matroska payload, not walked),
    then per cue ``page`` (its row), ``seq`` (-1 on a zero-set row's
    sentinel), ``comp_num``, ``width``, ``height``, ``n_objects``,
    ``forced``, ``palette_count``, ``start_ticks``, ``end_ticks``; the
    int32 offsets ``pal_offsets`` into ``pal_values`` (the last palette
    version), ``xy_offsets`` into ``obj_x``/``obj_y`` (per PCS object)
    and ``bm_offsets`` into ``obj_w``/``obj_h``/``bm_value_offsets``
    (per bitmap object; its reassembled RLE is a range of
    ``bm_values``)."""
    lib = _lib()
    if lib is None:
        return None
    if data.dtype != np.uint8 or offsets.dtype != np.int64:
        raise ValueError("data must be uint8 and offsets int64")
    nrows = len(offsets) - 1
    data = np.ascontiguousarray(data) if len(data) else np.zeros(1, np.uint8)
    offsets = np.ascontiguousarray(offsets)
    total = int(offsets[-1] - offsets[0])
    # first guesses, sized to leave most batches one call: a batch
    # past one (many cues a page, a bitmap or palette many cues
    # reference) gets exact buffers on a second call
    cues = 16 * nrows + 64
    caps = np.array([cues, cues, cues, total // 8 + 1024, total + 1024],
                    np.int64)
    need = np.zeros(5, np.int64)
    mkv = np.zeros(max(nrows, 1), np.uint8)
    while True:
        c0, c1, c2, c3, c4 = (int(c) for c in caps)
        i32 = np.empty(11 * c0 + 3 + 2 * c1 + 3 * c2 + 1, np.int32)
        ticks = np.empty((2, c0), np.int64)
        buf = np.empty(c3 + c4, np.uint8)
        if lib.demux_walk(data.ctypes.data, offsets.ctypes.data, nrows,
                          caps.ctypes.data, need.ctypes.data,
                          mkv.ctypes.data, i32.ctypes.data,
                          ticks.ctypes.data, buf.ctypes.data) < 0:
            return None
        if (need <= caps).all():
            break
        caps = np.maximum(caps, need)
    n, nxy, nbm, npal, nbmb = (int(c) for c in need)
    if max(npal, nbmb) >= 2 ** 31:
        return None     # past int32 offsets: the Python walk decides
    e0 = 8 * c0
    e1 = e0 + 3 * (c0 + 1)
    e2 = e1 + 2 * c1
    e3 = e2 + 2 * c2
    cue, offs = i32[:e0].reshape(8, c0), i32[e0:e1].reshape(3, c0 + 1)
    xy, wh = i32[e1:e2].reshape(2, c1), i32[e2:e3].reshape(2, c2)
    boffs = i32[e3:]
    out = {name: cue[k, :n] for k, name in enumerate(_CUE_INTS)}
    out.update(
        mkv=mkv[:nrows].view(bool),
        start_ticks=ticks[0, :n], end_ticks=ticks[1, :n],
        pal_offsets=offs[0, :n + 1], pal_values=buf[:npal],
        xy_offsets=offs[1, :n + 1], obj_x=xy[0, :nxy], obj_y=xy[1, :nxy],
        bm_offsets=offs[2, :n + 1], obj_w=wh[0, :nbm], obj_h=wh[1, :nbm],
        bm_value_offsets=boffs[:nbm + 1], bm_values=buf[c3:c3 + nbmb])
    return out
