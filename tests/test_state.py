"""Tests for artifacts (vocab IO), splits, lineage manifest."""

import pyarrow as pa

from jamie_ray.state import artifacts, splits
from jamie_ray.state.lineage import append_manifest, read_manifest


def test_build_vocab_insertion_order():
    v = artifacts.build_vocab([["B-d", "O", "B-a"], ["B-d", "I-d"]], default={"O": 0})
    assert v == {"O": 0, "B-d": 1, "B-a": 2, "I-d": 3}


def test_build_vocab_ignore():
    v = artifacts.build_vocab([["x", "y"]], ignore_lab="y")
    assert v == {"x": 0}


def test_artifacts_roundtrip(tmp_path):
    d = artifacts.save_artifacts(str(tmp_path / "model"))
    loaded = artifacts.load_artifacts(d)
    assert loaded["ner2ix"]["O"] == 0
    assert loaded["mod2ix"]["_"] == 0
    assert loaded["rel2ix"]["N"] == 0
    assert "B-d" in loaded["ner2ix"]
    assert loaded == artifacts.default_vocabs()


def test_split_column_deterministic():
    b = pa.table({"url": [f"u{i}" for i in range(100)]})
    f1 = splits.split_column(b, "url", 5)
    f2 = splits.split_column(b, "url", 5)
    assert f1.column("fold").to_pylist() == f2.column("fold").to_pylist()
    folds = set(f1.column("fold").to_pylist())
    assert folds <= set(range(5)) and len(folds) == 5


def test_train_dev_partition():
    b = pa.table({"url": [f"u{i}" for i in range(500)]})
    train = splits.train_dev_filter(b, "url", 0.2, "train")
    dev = splits.train_dev_filter(b, "url", 0.2, "dev")
    assert train.num_rows + dev.num_rows == 500
    assert 50 < dev.num_rows < 150  # ~20%
    # disjoint
    assert not set(train.column("url").to_pylist()) & set(dev.column("url").to_pylist())


def test_kfold(ray_session):
    import ray.data

    ds = ray.data.from_items([{"url": f"u{i}", "x": i} for i in range(100)])
    pairs = splits.kfold(ds, "url", n_folds=4)
    assert len(pairs) == 4
    total = 0
    seen = set()
    for train, test in pairs:
        test_urls = {r["url"] for r in test.take_all()}
        train_urls = {r["url"] for r in train.take_all()}
        assert not test_urls & train_urls
        assert len(test_urls) + len(train_urls) == 100
        assert not test_urls & seen  # folds partition the keys
        seen |= test_urls
        total += len(test_urls)
    assert total == 100


def test_manifest_atomic_append(tmp_path):
    d = str(tmp_path)
    append_manifest(d, {"shard": 0, "n_triples": 5})
    append_manifest(d, {"shard": 2, "n_triples": 7})
    recs = read_manifest(d)
    assert set(recs) == {0, 2}
    assert recs[2]["n_triples"] == 7


def test_pipeline_config_analyzer_and_decode(ray_session, tmp_path):
    """build_graph's analyzer (juman|mecab) and decode_errors keywords
    reach build_triples: the juman run produces the same triples on the
    (digit-free) fixture corpus, and a page with a stray invalid byte
    is quarantined under strict decoding but kept under
    decode_errors='replace'."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from jamie_ray import fixtures
    from jamie_ray.pipelines import kg

    pages = fixtures.generate(30)["pages"]
    pq.write_table(pages, tmp_path / "pages.parquet")
    path = str(tmp_path / "pages.parquet")

    def surfaces(rows):
        return sorted((r["subj"], r["pred"], r["obj"], r["url"]) for r in rows)

    base = kg.build_graph(path).take_all()
    juman = kg.build_graph(path, analyzer="juman").take_all()
    assert surfaces(base) == surfaces(juman) and base

    # a page whose html has a stray invalid byte: strict -> quarantine,
    # replace -> extracted with U+FFFD
    from jamie_ray.stages.extract import extract_batch

    page = pa.table(
        {
            "url": ["http://x/1"],
            "html": [b"<html><body><p>ab\xffcd</p></body></html>"],
        }
    )
    strict = extract_batch(page)
    assert strict.column("error")[0].as_py() != ""
    lossy = extract_batch(page, decode_errors="replace")
    assert lossy.column("error")[0].as_py() == ""
    assert "�" in lossy.column("text")[0].as_py()

    # corrupt one page that yields a triple: a stray byte before </body>
    url = base[0]["url"]
    html = pages.column("html").to_pylist()
    i = pages.column("url").to_pylist().index(url)
    html[i] = html[i].replace(b"</body>", b"\xff</body>")
    pages = pages.set_column(
        pages.schema.get_field_index("html"), "html", pa.array(html, pa.binary())
    )
    pq.write_table(pages, tmp_path / "bad.parquet")
    bad = str(tmp_path / "bad.parquet")

    strict = kg.build_graph(bad).take_all()
    assert all(r["url"] != url for r in strict)
    lossy = kg.build_graph(bad, decode_errors="replace").take_all()
    assert surfaces(lossy) == surfaces(base)
