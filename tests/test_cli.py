"""CLI smoke: `python -m pgstosrt_ray.run` end to end in a fresh
process (its own Ray session), including O2 flag validation."""

import json
import os
import subprocess
import sys

import pytest

from pgstosrt_ray.sources.pages import materialize_corpus, read_golden

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO
    return subprocess.run([sys.executable, "-m", "pgstosrt_ray.run", *args],
                          capture_output=True, text=True, cwd=REPO,
                          env=env, timeout=240, **kw)


def test_cli_end_to_end(tmp_path):
    corpus = materialize_corpus("tiny", 30, seed=7)
    out = str(tmp_path / "out")
    res = _run_cli(["--input", corpus, "--output", out,
                    "--num-cpus", "4", "--partitions", "4"])
    assert res.returncode == 0, res.stderr[-2000:]
    metrics = json.loads(res.stdout.strip().splitlines()[-1])
    assert metrics["written_partitions"] == 4
    assert metrics["skipped_partitions"] == 0
    # output equals golden
    from pgstosrt_ray.state.checkpoint import read_output
    got = read_output(out).sort_by("url")
    exp = read_golden(corpus).sort_by("url")
    assert got.equals(exp)
    # re-run resumes: everything skipped
    res2 = _run_cli(["--input", corpus, "--output", out,
                     "--num-cpus", "4", "--partitions", "4"])
    assert res2.returncode == 0, res2.stderr[-2000:]
    m2 = json.loads(res2.stdout.strip().splitlines()[-1])
    assert m2["skipped_partitions"] == 4
    assert m2["written_partitions"] == 0
    # a rerun with a different partition count must refuse, not remap
    res3 = _run_cli(["--input", corpus, "--output", out,
                     "--num-cpus", "4", "--partitions", "8"])
    assert res3.returncode != 0
    assert "num_partitions" in res3.stderr


def test_cli_one_cpu_runs_the_fused_operator(tmp_path):
    """On a real one-CPU cluster the run records ONE operator from the
    read to the bucket tag and ONE sort shuffle, writes the golden and
    resumes."""
    corpus = materialize_corpus("tiny", 30, seed=7)
    out = str(tmp_path / "out")
    args = ["--input", corpus, "--output", out,
            "--num-cpus", "1", "--partitions", "4"]
    res = _run_cli(args)
    assert res.returncode == 0, res.stderr[-2000:]
    assert json.loads(res.stdout.strip().splitlines()[-1])[
        "written_partitions"] == 4
    from pgstosrt_ray.state.checkpoint import read_output
    assert read_output(out).sort_by("url").equals(
        read_golden(corpus).sort_by("url"))
    with open(os.path.join(out, "_manifest", "_run.json")) as f:
        stages = [s["stage"] for s in json.load(f)["stages"]]
    sort = next(i for i, n in enumerate(stages) if n.startswith("Sort"))
    assert stages[:sort] == [
        "ReadParquet->MapBatches(demux_batch)->MapBatches(_task_extract)"
        "->MapBatches(add_bucket)"], stages
    # one shuffle: the assembly bucket is the checkpoint unit
    assert [n for n in stages if "Sort" in n] == [
        "SortMap", "SortReduce"], stages
    assert not any("add_pid" in n for n in stages), stages
    res2 = _run_cli(args)
    assert res2.returncode == 0, res2.stderr[-2000:]
    m2 = json.loads(res2.stdout.strip().splitlines()[-1])
    assert (m2["written_partitions"], m2["skipped_partitions"]) == (0, 4)


def test_cli_rejects_bad_tesseract_language(tmp_path):
    corpus = materialize_corpus("tiny", 30, seed=7)
    tess = tmp_path / "tessdata"
    tess.mkdir()
    (tess / "eng.traineddata").write_bytes(b"fake")
    res = _run_cli(["--input", corpus, "--output", str(tmp_path / "o"),
                    "--num-cpus", "4", "--tessdata", str(tess),
                    "--tesseractlanguage", "xyz"])
    assert res.returncode != 0
    assert "not available" in (res.stderr + res.stdout)
