"""Resume test (SURVEY §5.6): kill after K partitions, restart, assert
completed partitions aren't reprocessed and final output equals a
clean run."""

import pytest

from pgstosrt_ray.config import PipelineConfig
from pgstosrt_ray.sources.pages import materialize_corpus, read_golden
from pgstosrt_ray.state.checkpoint import (completed_partitions,
                                           partition_of, read_output,
                                           run_checkpointed)


@pytest.fixture(scope="module")
def small_dir():
    return materialize_corpus("tiny", 30, seed=7)


def _cfg():
    return PipelineConfig(num_partitions=8, extract_concurrency=2)


def test_clean_run_writes_all_partitions(ray_session, small_dir, tmp_path):
    out = str(tmp_path / "clean")
    metrics = run_checkpointed(small_dir, out, _cfg())
    assert metrics["skipped_partitions"] == 0
    got = read_output(out)
    golden = read_golden(small_dir)
    exp = dict(zip(golden.column("url").to_pylist(),
                   golden.column("text").to_pylist()))
    ours = dict(zip(got.column("url").to_pylist(),
                    got.column("text").to_pylist()))
    assert ours == exp


def test_kill_and_resume(ray_session, small_dir, tmp_path):
    out = str(tmp_path / "resume")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed(small_dir, out, _cfg(), fail_after_parts=3)
    done_before = completed_partitions(out)
    assert len(done_before) == 3

    # sizing fields do not change the output, so they may differ on
    # resume without tripping the parameter guard
    cfg = _cfg()
    cfg.extract_concurrency, cfg.extract_batch_size = 3, 64
    metrics = run_checkpointed(small_dir, out, cfg)
    assert metrics["skipped_partitions"] == 3
    # completed partitions were not rewritten: only the remainder
    assert metrics["written_partitions"] == 8 - 3

    got = read_output(out)
    golden = read_golden(small_dir)
    exp = dict(zip(golden.column("url").to_pylist(),
                   golden.column("text").to_pylist()))
    ours = dict(zip(got.column("url").to_pylist(),
                    got.column("text").to_pylist()))
    assert ours == exp  # resumed output equals a clean run


def test_lang_filter_restricts_output(ray_session, small_dir, tmp_path):
    """cfg.lang filters pages at the read (the guard records it because
    it changes the output): only that language's urls are written."""
    import pyarrow.parquet as pq
    pages = pq.read_table(f"{small_dir}/pages", columns=["url", "lang"])
    eng = {u for u, lang in zip(pages.column("url").to_pylist(),
                                pages.column("lang").to_pylist())
           if lang == "eng"}
    cfg = _cfg()
    cfg.lang = "eng"
    out = str(tmp_path / "eng")
    run_checkpointed(small_dir, out, cfg)
    got = read_output(out)
    golden = read_golden(small_dir)
    exp = {u: t for u, t in zip(golden.column("url").to_pylist(),
                                golden.column("text").to_pylist())
           if u in eng}
    assert 0 < len(exp) < golden.num_rows
    assert dict(zip(got.column("url").to_pylist(),
                    got.column("text").to_pylist())) == exp


@pytest.fixture(scope="module")
def killed_dir(ray_session, small_dir, tmp_path_factory):
    """A flagship output dir killed after 3 of 8 partitions."""
    out = str(tmp_path_factory.mktemp("killed") / "out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed(small_dir, out, _cfg(), fail_after_parts=3)
    return out


@pytest.mark.parametrize("field,value", [
    ("num_partitions", 4), ("skip_merge", True),
    ("force_merge_all", True), ("lang", "eng")])
def test_resume_with_changed_parameters_raises(killed_dir, small_dir,
                                               field, value):
    """Resuming with a different partition count remaps url -> part
    and silently drops urls (33 of 49 written, nothing raised); a
    different merge flag or language filter would mix outputs of two
    configurations. The resume must refuse and name the field."""
    cfg = _cfg()
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match=f"'{field}'"):
        run_checkpointed(small_dir, killed_dir, cfg)
    assert len(completed_partitions(killed_dir)) == 3


def test_resume_with_different_input_raises(killed_dir):
    other = materialize_corpus("tiny", 30, seed=8)
    with pytest.raises(ValueError, match="'input'"):
        run_checkpointed(other, killed_dir, _cfg())
    assert len(completed_partitions(killed_dir)) == 3


def test_partition_assignment_stable(ray_session):
    assert partition_of("https://example.org/x", 16) == \
        partition_of("https://example.org/x", 16)
    assert 0 <= partition_of("anything", 16) < 16


def test_run_manifest_has_stage_metrics(ray_session, small_dir, tmp_path):
    """SURVEY §4: the run manifest carries per-stage rows/s and task
    wall-time percentiles (p50/p99) — the 100 TB progress surface."""
    import json
    import os

    from pgstosrt_ray.state.checkpoint import run_checkpointed
    out = str(tmp_path / "out")
    run_checkpointed(small_dir, out)
    path = os.path.join(out, "_manifest", "_run.json")
    assert os.path.exists(path)
    run = json.load(open(path))
    assert run["written_partitions"] > 0
    stages = run["stages"]
    assert len(stages) >= 1
    for st in stages:
        for field in ("stage", "rows", "wall_p50_s", "wall_p99_s",
                      "rows_per_s", "n_blocks"):
            assert field in st, (st, field)
    # the extract stage must be among the reported stages
    assert any("xtract" in st["stage"] or "MapBatches" in st["stage"]
               for st in stages)
    # one shuffle on the router plan too: assembly and write share it
    names = [st["stage"] for st in stages]
    assert [n for n in names if "Sort" in n] == ["SortMap", "SortReduce"]
    assert not any("add_pid" in n for n in names), names


def test_assembly_buckets_sized_from_input(ray_session, small_dir,
                                           tmp_path, monkeypatch):
    """The checkpointed run sizes its assembly shuffle from the input
    bytes, as extract_corpus_docs does, not from the bucket floor."""
    import os

    from pgstosrt_ray.pipelines import reduce
    seen = []
    real = reduce.buckets_for

    def spy(est_bytes=None, **kw):
        seen.append(est_bytes)
        return real(est_bytes, **kw)

    monkeypatch.setattr(reduce, "buckets_for", spy)
    run_checkpointed(small_dir, str(tmp_path / "out"), _cfg())
    want = reduce.input_bytes(os.path.join(small_dir, "pages"))
    assert want > 0
    assert seen == [want]


def test_units_sized_from_input(ray_session, small_dir, tmp_path,
                                monkeypatch):
    """Above num_partitions x the bucket byte target the unit count
    follows the input: every unit is one assembly bucket, its manifest
    hashes its own rows, and the guard records the resolved count."""
    import hashlib
    import json
    import os

    import pyarrow.parquet as pq

    from pgstosrt_ray.pipelines import reduce
    n = 11
    monkeypatch.setattr(reduce, "buckets_for",
                        lambda est_bytes=None, **kw: n)
    out = str(tmp_path / "out")
    metrics = run_checkpointed(small_dir, out, _cfg())
    assert metrics["written_partitions"] == n
    with open(os.path.join(out, "_stage.json")) as f:
        assert json.load(f)["num_partitions"] == n
    got = read_output(out)
    golden = read_golden(small_dir)
    assert got.sort_by("url").equals(golden.sort_by("url"))
    for k in range(n):
        with open(os.path.join(out, "_manifest", f"{k}.json")) as f:
            manifest = json.load(f)
        path = os.path.join(out, f"part={k}", "data.parquet")
        rows = (pq.read_table(path).to_pylist() if os.path.exists(path)
                else [])
        assert manifest["n_rows"] == len(rows)
        assert all(partition_of(r["url"], n) == k for r in rows)
        if rows:
            sha = hashlib.sha256()
            for r in rows:
                sha.update(r["url"].encode())
                sha.update(r["text"].encode())
            assert manifest["content_sha256"] == sha.hexdigest()
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"'num_partitions': \(11, 8\)"):
        run_checkpointed(small_dir, out, _cfg())
