"""ingest CLI: JSONL and CSV corpora -> normalized documents parquet
(column renaming, extras passthrough, missing-column failure)."""

import json

import pyarrow.parquet as pq
import pytest

from jamie_ray.__main__ import main


def _run(capsys, *argv):
    main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def test_ingest_jsonl(ray_session, tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    src.write_text(
        "\n".join(
            json.dumps({"id": i, "body": f"doc {i} text", "lang": "en"})
            for i in range(5)
        )
    )
    out = str(tmp_path / "docs")
    res = _run(
        capsys,
        "ingest", "--in", str(src), "--out", out,
        "--id-col", "id", "--text-col", "body",
    )
    assert res["n_docs"] == 5 and res["format"] == "jsonl"
    t = pq.read_table(out)
    assert {"doc_id", "text", "lang"} <= set(t.column_names)
    rows = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))
    assert rows[3] == "doc 3 text"


def test_ingest_name_collision_with_targets(ray_session, tmp_path, capsys):
    """An input that carries BOTH a custom text column and a field
    literally named 'text' must not let the latter clobber the
    normalized column."""
    src = tmp_path / "c.jsonl"
    src.write_text(
        "\n".join(
            json.dumps({"id": i, "body": f"real {i}", "text": "WRONG", "doc_id": 999})
            for i in range(3)
        )
    )
    out = str(tmp_path / "docs2")
    res = _run(
        capsys,
        "ingest", "--in", str(src), "--out", out,
        "--id-col", "id", "--text-col", "body",
    )
    assert res["n_docs"] == 3
    t = pq.read_table(out)
    assert t.column_names.count("text") == 1
    assert t.column_names.count("doc_id") == 1
    assert sorted(t.column("text").to_pylist()) == ["real 0", "real 1", "real 2"]
    assert sorted(t.column("doc_id").to_pylist()) == [0, 1, 2]


def test_ingest_csv_and_missing_column(ray_session, tmp_path, capsys):
    src = tmp_path / "corpus.csv"
    src.write_text("doc_id,text\n1,alpha\n2,beta\n")
    out = str(tmp_path / "docs_csv")
    res = _run(capsys, "ingest", "--in", str(src), "--out", out)
    assert res["n_docs"] == 2 and res["format"] == "csv"
    t = pq.read_table(out)
    assert sorted(t.column("text").to_pylist()) == ["alpha", "beta"]
    with pytest.raises(Exception, match="missing"):
        _run(
            capsys,
            "ingest", "--in", str(src), "--out", str(tmp_path / "bad"),
            "--text-col", "nope",
        )


def test_export_jsonl_roundtrip(ray_session, tmp_path):
    """export (parquet -> JSONL) inverts ingest: re-ingesting the
    exported shards reproduces the rows exactly."""
    import json
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ['line "quoted"\ttab', "plain text", ""],
            "lang": ["en", "ja", "en"],
        }
    )
    src = tmp_path / "docs.parquet"
    pq.write_table(t, src)
    out = tmp_path / "jsonl"
    r = subprocess.run(
        [sys.executable, "-m", "jamie_ray", "export",
         "--in", str(src), "--out", str(out), "--columns", "doc_id,text"],
        capture_output=True, text=True, check=True,
    )
    info = json.loads(r.stdout.strip().splitlines()[-1])
    assert info["n_files"] >= 1
    back = tmp_path / "back"
    subprocess.run(
        [sys.executable, "-m", "jamie_ray", "ingest",
         "--in", str(out) + "/", "--format", "jsonl", "--out", str(back)],
        capture_output=True, text=True, check=True,
    )
    got = sorted(pq.read_table(back).to_pylist(), key=lambda r: r["doc_id"])
    assert got == t.select(["doc_id", "text"]).to_pylist()


def test_export_csv_roundtrip(ray_session, tmp_path):
    """CSV direction of the export CLI: re-ingest the exported shards
    and compare rows exactly (column pruning at the read included)."""
    import json
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "docs.parquet"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(["alpha one", "beta two", "gamma three"]),
                "extra": pa.array([10, 20, 30], pa.int64()),
            }
        ),
        src,
    )
    out = tmp_path / "csv_out"
    r = subprocess.run(
        [
            sys.executable, "-m", "jamie_ray", "export",
            "--in", str(src), "--out", str(out),
            "--format", "csv", "--columns", "doc_id,text",
        ],
        capture_output=True, text=True, check=True,
    )
    info = json.loads(r.stdout.strip().splitlines()[-1])
    assert info["n_files"] >= 1
    import csv
    import glob

    rows = []
    for f in sorted(glob.glob(str(out / "*"))):
        with open(f, newline="") as fh:
            rows.extend(csv.DictReader(fh))
    got = sorted((int(x["doc_id"]), x["text"]) for x in rows)
    assert got == [(1, "alpha one"), (2, "beta two"), (3, "gamma three")]
    assert all(set(x) == {"doc_id", "text"} for x in rows)  # pruned


def _write_jsonl_dir(d, parts):
    d.mkdir()
    for i, rows in enumerate(parts):
        (d / f"part-{i}.jsonl").write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n"
        )


def test_ingest_auto_format_of_a_directory(ray_session, tmp_path, capsys):
    """--format auto on a directory picks the format from its files'
    suffixes: two .jsonl files ingest exactly as with --format jsonl."""
    src = tmp_path / "jsonl_dir"
    _write_jsonl_dir(
        src,
        [
            [{"doc_id": 1, "text": "one"}, {"doc_id": 2, "text": "two"}],
            [{"doc_id": 3, "text": "three"}],
        ],
    )
    auto, forced = str(tmp_path / "auto"), str(tmp_path / "forced")
    res = _run(capsys, "ingest", "--in", str(src), "--out", auto)
    assert res["format"] == "jsonl" and res["n_docs"] == 3
    _run(capsys, "ingest", "--in", str(src), "--out", forced, "--format", "jsonl")

    def rows(p):
        return sorted(pq.read_table(p).to_pylist(), key=lambda r: r["doc_id"])

    assert rows(auto) == rows(forced)
    assert [r["text"] for r in rows(auto)] == ["one", "two", "three"]


def test_ingest_auto_format_rejects_mixed_directory(ray_session, tmp_path):
    src = tmp_path / "mixed"
    _write_jsonl_dir(src, [[{"doc_id": 1, "text": "one"}]])
    (src / "extra.csv").write_text("doc_id,text\n2,two\n")
    with pytest.raises(SystemExit, match="--format"):
        main(["ingest", "--in", str(src), "--out", str(tmp_path / "o")])
