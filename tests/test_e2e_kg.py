"""End-to-end KG pipeline tests on the deterministic fixture corpus.

The expected tables are computed by the fixture generator straight from
sentence structure (no BIO/subword machinery), so equality here is a
real test of the full distributed decode/alignment path. P/R must be
1.0 at this scale (BASELINE.md gate is >= 0.95).
"""

import pyarrow as pa
import pytest

from jamie_ray import fixtures
from jamie_ray.pipelines import kg

N_PAGES = 150


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    out = tmp_path_factory.mktemp("pages")
    tables = fixtures.generate(N_PAGES)
    import pyarrow.parquet as pq

    for name, tab in tables.items():
        pq.write_table(tab, out / f"{name}.parquet")
    return out, tables


def _rows(table_like, cols):
    if isinstance(table_like, pa.Table):
        tab = table_like
    else:  # ray Dataset
        tab = pa.Table.from_pylist(table_like.take_all())
    return sorted(zip(*[tab.column(c).to_pylist() for c in cols]))


def test_extract_byte_identical(corpus):
    pages_dir, tables = corpus
    ds = kg.extracted_pages(kg.read_pages(str(pages_dir / "pages.parquet")), lang="ja")
    got = {r["url"]: r["text"] for r in ds.take_all()}
    exp_pages = tables["pages"]
    for url, text, lang in zip(
        exp_pages["url"].to_pylist(),
        exp_pages["text"].to_pylist(),
        exp_pages["lang"].to_pylist(),
    ):
        if lang == "ja":
            assert got[url] == text, f"extraction not byte-identical for {url}"


def test_chunks_match_oracle(corpus):
    pages_dir, tables = corpus
    ds = kg.chunk_pages(
        kg.extracted_pages(kg.read_pages(str(pages_dir / "pages.parquet")))
    )
    cols = ["url", "chunk_id", "text", "n_subwords"]
    assert _rows(ds, cols) == _rows(tables["expected_chunks"], cols)


def test_triples_match_oracle(corpus):
    pages_dir, tables = corpus
    ds = kg.build_triples(str(pages_dir / "pages.parquet"))
    cols = ["subj", "pred", "obj", "subj_type", "obj_type", "subj_mod", "url", "chunk_id"]
    got = _rows(ds, cols)
    exp = _rows(tables["expected_triples"], cols)
    assert got == exp, (
        f"P/R != 1.0: {len(set(got) - set(exp))} spurious, "
        f"{len(set(exp) - set(got))} missing of {len(exp)}"
    )


def test_entities_match_oracle(corpus):
    pages_dir, tables = corpus
    ds = kg.build_entities(str(pages_dir / "pages.parquet"))
    cols = ["url", "chunk_id", "mention", "ner_tag", "mod"]
    assert _rows(ds, cols) == _rows(tables["expected_entities"], cols)


def test_graph_dedup_invariants(corpus):
    pages_dir, tables = corpus
    graph = pa.Table.from_pylist(
        kg.build_graph(str(pages_dir / "pages.parquet")).take_all()
    )
    exp = tables["expected_triples"]
    # n_sources conservation: dedup only merges, never drops
    assert sum(graph["n_sources"].to_pylist()) == exp.num_rows
    # keys unique
    keys = list(
        zip(
            graph["subj_id"].to_pylist(),
            graph["pred"].to_pylist(),
            graph["obj_id"].to_pylist(),
        )
    )
    assert len(keys) == len(set(keys))
    # surface-level dedup upper-bounds the id-level row count (linking
    # can only merge more)
    surf_keys = {
        (s, p, o)
        for s, p, o in zip(
            exp["subj"].to_pylist(), exp["pred"].to_pylist(), exp["obj"].to_pylist()
        )
    }
    assert len(keys) <= len(surf_keys)


def test_graph_ids_match_oracle(corpus):
    """Full value check of the deduplicated graph INCLUDING canonical
    entity ids vs the generator's independently-derived expected_graph
    (keeps the id-level check the driver lost when kg_graph was folded
    into kg_graph_surface — the surface query drops subj_id/obj_id)."""
    pages_dir, tables = corpus
    graph = kg.build_graph(str(pages_dir / "pages.parquet"))
    cols = [
        "subj_id", "pred", "obj_id", "subj", "obj", "subj_type",
        "obj_type", "subj_mod", "n_sources", "url", "chunk_id",
    ]
    assert _rows(graph, cols) == _rows(tables["expected_graph"], cols)


def test_writer_sinks_match_fixture_oracle(corpus):
    """The generator's expected writer strings (computed straight from
    sentence structure, fixtures._expected_format_rows) equal the
    pipeline's score->decode->writer output BYTE-EXACTLY — the r4
    value oracle for kg_xml_out / kg_brat_out / kg_pmhs_out."""
    from jamie_ray.stages.format_out import (
        tagged_to_brat_batch,
        tagged_to_xml_batch,
    )
    from jamie_ray.stages.pmhs import tagged_to_pmhs_batch

    pages_dir, tables = corpus
    chunks = kg.chunk_pages(
        kg.extracted_pages(kg.read_pages(str(pages_dir / "pages.parquet")))
    )
    tagged = kg.score_chunks(chunks).materialize()
    xml = tagged.map_batches(tagged_to_xml_batch, batch_format="pyarrow")
    assert _rows(xml, ["url", "chunk_id", "xml"]) == _rows(
        tables["expected_xml"], ["url", "chunk_id", "xml"]
    )
    brat = tagged.map_batches(tagged_to_brat_batch, batch_format="pyarrow")
    assert _rows(brat, ["url", "chunk_id", "brat_txt", "brat_ann"]) == _rows(
        tables["expected_brat"], ["url", "chunk_id", "brat_txt", "brat_ann"]
    )
    pmhs = tagged.map_batches(tagged_to_pmhs_batch, batch_format="pyarrow")
    assert _rows(pmhs, ["url", "chunk_id", "pmhs"]) == _rows(
        tables["expected_pmhs"], ["url", "chunk_id", "pmhs"]
    )


def test_config_attrib_task(corpus):
    """PipelineConfig.attrib_task (reference clinical_cert.py -a):
    graph subj_mod carries ONLY the selected family's attribute."""
    from jamie_ray.config import PipelineConfig, build_graph_with_config

    pages_dir, _ = corpus
    graph = build_graph_with_config(
        str(pages_dir / "pages.parquet"), PipelineConfig(attrib_task="cert")
    )
    rows = graph.select_columns(["subj_type", "subj_mod"]).take_all()
    assert any(r["subj_type"] == "d" and r["subj_mod"] != "_" for r in rows)
    assert all(
        r["subj_mod"] == "_" for r in rows if r["subj_type"] != "d"
    )


def test_materialize_resumable(corpus, tmp_path):
    pages_dir, _ = corpus
    out = tmp_path / "graph_out"
    s1 = kg.materialize_graph(
        str(pages_dir / "pages.parquet"), str(out), n_shards=3
    )
    assert s1["shards_run"] == 3
    # rerun: all shards skipped, identical final rows
    s2 = kg.materialize_graph(
        str(pages_dir / "pages.parquet"), str(out), n_shards=3
    )
    assert s2["shards_run"] == 0 and s2["shards_skipped"] == 3
    assert s1["n_triples"] == s2["n_triples"] > 0
    # both summaries carry the finalize link's blocking-cap truncation
    # counts (empty dict = no recall lost to caps on this corpus)
    assert all("n_truncated_candidates" in s for s in (s1, s2))
    assert all(isinstance(s["n_truncated_candidates"], dict) for s in (s1, s2))


def test_materialize_resume_rejects_changed_shards(corpus, tmp_path):
    """A rerun with a different n_shards (or input path) must refuse to
    resume: the old partitioning's manifest shards would be skipped and
    the finalize pass would silently drop their triples."""
    import pytest

    pages_dir, _ = corpus
    out = tmp_path / "graph_guard"
    kg.materialize_graph(str(pages_dir / "pages.parquet"), str(out), n_shards=3)
    with pytest.raises(ValueError, match="different run configuration"):
        kg.materialize_graph(
            str(pages_dir / "pages.parquet"), str(out), n_shards=2
        )
    with pytest.raises(ValueError, match="different run configuration"):
        kg.materialize_graph("/some/other/pages.parquet", str(out), n_shards=3)


def test_build_triples_pipeline_mode_rejects_model_args(ray_session):
    import pytest

    with pytest.raises(ValueError, match="mode='pipeline'"):
        kg.build_triples("/nonexistent", mode="pipeline", model="hf:/ckpt")


def test_materialize_survives_kill(corpus, tmp_path, monkeypatch):
    """Kill mid-run (after 1 shard) -> rerun -> identical final graph."""
    pages_dir, _ = corpus
    out = tmp_path / "graph_kill"
    calls = {"n": 0}
    import jamie_ray.pipelines.kg as kgmod

    real_append = kgmod.append_manifest

    def dying_append(out_dir, record):
        real_append(out_dir, record)
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("simulated crash after first shard")

    monkeypatch.setattr(kgmod, "append_manifest", dying_append)
    with pytest.raises(RuntimeError):
        kg.materialize_graph(str(pages_dir / "pages.parquet"), str(out), n_shards=3)
    monkeypatch.setattr(kgmod, "append_manifest", real_append)

    s = kg.materialize_graph(str(pages_dir / "pages.parquet"), str(out), n_shards=3)
    assert s["shards_skipped"] == 1 and s["shards_run"] == 2

    # final graph must equal a clean single-pass run
    clean = tmp_path / "graph_clean"
    s2 = kg.materialize_graph(str(pages_dir / "pages.parquet"), str(clean), n_shards=3)
    import ray.data

    a = sorted(map(tuple, (tuple(r.values()) for r in
               ray.data.read_parquet(str(out / "graph")).take_all())))
    b = sorted(map(tuple, (tuple(r.values()) for r in
               ray.data.read_parquet(str(clean / "graph")).take_all())))
    assert a == b and s["n_triples"] == s2["n_triples"]


def test_materialize_survives_pre_manifest_kill(corpus, tmp_path, monkeypatch):
    """Crash AFTER the shard parquet write but BEFORE its manifest
    append: the rerun must clear the orphan files, not read two copies
    (which would double n_sources / inflate lineage counters)."""
    pages_dir, _ = corpus
    out = tmp_path / "graph_orphan"
    calls = {"n": 0}
    import jamie_ray.pipelines.kg as kgmod

    real_append = kgmod.append_manifest

    def dying_append(out_dir, record):
        calls["n"] += 1
        if calls["n"] == 1:  # die with the parquet already on disk
            raise RuntimeError("simulated crash before manifest append")
        real_append(out_dir, record)

    monkeypatch.setattr(kgmod, "append_manifest", dying_append)
    with pytest.raises(RuntimeError):
        kg.materialize_graph(str(pages_dir / "pages.parquet"), str(out), n_shards=3)
    monkeypatch.setattr(kgmod, "append_manifest", real_append)

    s = kg.materialize_graph(str(pages_dir / "pages.parquet"), str(out), n_shards=3)
    assert s["shards_skipped"] == 0 and s["shards_run"] == 3

    clean = tmp_path / "graph_orphan_clean"
    s2 = kg.materialize_graph(str(pages_dir / "pages.parquet"), str(clean), n_shards=3)
    import ray.data

    a = sorted(map(tuple, (tuple(r.values()) for r in
               ray.data.read_parquet(str(out / "graph")).take_all())))
    b = sorted(map(tuple, (tuple(r.values()) for r in
               ray.data.read_parquet(str(clean / "graph")).take_all())))
    assert a == b and s["n_triples"] == s2["n_triples"]


def test_materialize_midshard_resume(corpus, tmp_path, monkeypatch):
    """Kill landing after shard 1's triples are on disk but before its
    lineage record: the rerun never rescores finished shard 0, clears
    shard 1's orphan files, reruns shards 1 and 2 and produces the
    clean-run graph."""
    pages_dir, _ = corpus
    pages = str(pages_dir / "pages.parquet")
    out = tmp_path / "graph_midshard"
    with pytest.raises(RuntimeError, match="injected kill"):
        kg.materialize_graph(pages, str(out), n_shards=3, _fail_after_checkpoint=1)
    orphans = {f.name for f in (out / "shard=1").glob("*.parquet")}
    assert orphans

    # count scoring-pipeline constructions on the rerun
    import jamie_ray.pipelines.kg as kgmod

    calls = {"n": 0}
    real_score = kgmod.score_chunks

    def counting_score(*a, **kw):
        calls["n"] += 1
        return real_score(*a, **kw)

    monkeypatch.setattr(kgmod, "score_chunks", counting_score)
    s = kg.materialize_graph(pages, str(out), n_shards=3)
    assert s["shards_skipped"] == 1 and s["shards_run"] == 2
    assert calls["n"] == 2  # shards 1 and 2 only
    assert not orphans & {f.name for f in (out / "shard=1").glob("*.parquet")}

    from jamie_ray.state.lineage import read_manifest

    rec0 = read_manifest(str(out))[0]
    assert rec0["n_pages"] > 0 and rec0["n_chunks"] > 0

    monkeypatch.setattr(kgmod, "score_chunks", real_score)
    clean = tmp_path / "graph_midshard_clean"
    s2 = kg.materialize_graph(pages, str(clean), n_shards=3)
    assert _graph_rows(out / "graph") == _graph_rows(clean / "graph")
    assert s["n_triples"] == s2["n_triples"]


def _graph_rows(graph_dir) -> list[dict]:
    """A materialized graph's rows, files concatenated in name order."""
    import pyarrow.parquet as pq

    files = sorted(graph_dir.glob("*.parquet"))
    return [r for f in files for r in pq.read_table(f).to_pylist()]


def _split_pages(pages: pa.Table, dest, n: int) -> str:
    """Write ``pages`` as ``n`` consecutive parquet files under ``dest``."""
    import pyarrow.parquet as pq

    dest.mkdir()
    step = (pages.num_rows + n - 1) // n
    for i in range(n):
        pq.write_table(pages.slice(i * step, step), dest / f"part-{i}.parquet")
    return str(dest)


@pytest.mark.parametrize("n_files,n_shards", [(1, 1), (1, 3), (4, 4)])
def test_materialize_equals_build_graph(corpus, tmp_path, n_files, n_shards):
    """The materialized graph is build_graph's graph sorted on
    (subj_id, pred, obj_id), row for row, for url-hash shards of one
    file and for file-level shards."""
    pages_dir, tables = corpus
    if n_files == 1:
        pages = str(pages_dir / "pages.parquet")
    else:
        pages = _split_pages(tables["pages"], tmp_path / "pages_split", n_files)
    out = tmp_path / "graph_diff"
    kg.materialize_graph(pages, str(out), n_shards=n_shards)
    expected = kg.build_graph(pages).sort(["subj_id", "pred", "obj_id"]).take_all()
    got = _graph_rows(out / "graph")
    assert len(got) == len(expected) > 0
    assert got == expected


def test_materialize_links_across_shards(corpus, tmp_path, monkeypatch):
    """A link chain split over two shards (a~b planted in shard 0, b~c
    in shard 1, a and c dissimilar) is one entity in the materialized
    graph, as in build_graph."""
    import jamie_ray.pipelines.kg as kgmod

    _, tables = corpus
    pages = _split_pages(tables["pages"], tmp_path / "pages_two", 2)
    half = (tables["pages"].num_rows + 1) // 2
    file_urls = [
        set(tables["pages"]["url"].to_pylist()[:half]),
        set(tables["pages"]["url"].to_pylist()[half:]),
    ]
    chunk_keys = sorted(
        zip(
            tables["expected_chunks"]["url"].to_pylist(),
            tables["expected_chunks"]["chunk_id"].to_pylist(),
        )
    )
    key0 = next(k for k in chunk_keys if k[0] in file_urls[0])
    key1 = next(k for k in chunk_keys if k[0] in file_urls[1])
    a, b, c = "abcdefghijklm", "cdefghijklmno", "efghijklmnopq"
    plants = {key0: [a, b], key1: [c]}

    def planted_assemble(batch):
        # stands in for assemble_batch: only the planted raw triples
        # of the two chosen chunks reach the shard output
        from jamie_ray.schemas import TRIPLES

        rows = [
            {"subj": s, "pred": "r", "obj": "x", "subj_type": "d",
             "obj_type": "a", "subj_mod": "_", "url": u, "chunk_id": cid}
            for u, cid in zip(
                batch.column("url").to_pylist(),
                batch.column("chunk_id").to_pylist(),
            )
            for s in plants.get((u, cid), ())
        ]
        return pa.Table.from_pylist(rows, schema=TRIPLES)

    monkeypatch.setattr(kgmod, "assemble_batch", planted_assemble)
    out = tmp_path / "graph_chain"
    s = kg.materialize_graph(pages, str(out), n_shards=2)
    assert s["shards_run"] == 2
    got = _graph_rows(out / "graph")
    assert [(r["subj"], r["n_sources"]) for r in got] == [(a, 3)]
    expected = kg.build_graph(pages).sort(["subj_id", "pred", "obj_id"]).take_all()
    assert got == expected


def test_materialize_file_sharded(corpus, tmp_path):
    """Multi-file input -> shards prune at the file level (no rescans)
    and produce the same graph as the single-file path."""
    pages_dir, tables = corpus
    multi = _split_pages(tables["pages"], tmp_path / "pages_multi", 4)

    out = tmp_path / "graph_files"
    s = kg.materialize_graph(multi, str(out), n_shards=4)
    assert s["shards_run"] == 4

    from jamie_ray.state.lineage import read_manifest

    recs = read_manifest(str(out))
    assert all("files[" in r["input_fingerprint"] for r in recs.values())

    single = tmp_path / "graph_single"
    s2 = kg.materialize_graph(str(pages_dir / "pages.parquet"), str(single), n_shards=3)
    import ray.data

    a = sorted(map(tuple, (tuple(r.values()) for r in
               ray.data.read_parquet(str(out / "graph")).take_all())))
    b = sorted(map(tuple, (tuple(r.values()) for r in
               ray.data.read_parquet(str(single / "graph")).take_all())))
    assert a == b


def test_quarantine_counters(corpus, tmp_path):
    """Lineage records carry the quarantine counter; a scorer failure
    quarantines the chunk instead of killing the task."""
    pages_dir, tables = corpus
    out = tmp_path / "graph_q"
    kg.materialize_graph(str(pages_dir / "pages.parquet"), str(out), n_shards=2)
    from jamie_ray.state.lineage import read_manifest

    recs = read_manifest(str(out))
    assert all("n_quarantined_pages" in r for r in recs.values())
    # the fixture plants poison pages (invalid utf-8, class adv==3);
    # shard counters must add up to exactly the planted set
    planted = tables["expected_quarantine"].num_rows
    assert planted > 0
    assert sum(r["n_quarantined_pages"] for r in recs.values()) == planted
    assert all(r["n_pages"] > 0 and r["n_chunks"] > 0 for r in recs.values())

    # scorer poison-chunk path: force a failure, row survives with error
    import pyarrow as pa

    from jamie_ray.stages.score import JointScorer

    scorer = JointScorer()
    orig = scorer.model.predict
    scorer.model.predict = lambda text: (_ for _ in ()).throw(ValueError("boom"))
    batch = pa.table(
        {
            "url": pa.array(["u"], pa.string()),
            "chunk_id": pa.array([0], pa.int32()),
            "text": pa.array(["発熱あり。"], pa.string()),
        }
    )
    out_tab = scorer(batch)
    assert out_tab.num_rows == 1
    assert out_tab.column("score_error")[0].as_py().startswith("ValueError")
    assert out_tab.column("tokens")[0].as_py() == []
    scorer.model.predict = orig


def _cap_counter_ids(state: str | None = None) -> set[str]:
    import ray

    return {
        actor_id
        for actor_id, info in ray._private.state.actors().items()
        if info["ActorClassName"] == "CapCounters"
        and state in (None, info["State"])
    }


def test_materialize_starts_one_counter_actor(corpus, tmp_path, monkeypatch):
    """materialize_graph records into the session's one CapCounters
    actor (each actor is a worker-process start): once the session
    holds it, neither a second call nor a kill followed by a resume
    starts another, and every call drops its records when it returns
    or is killed."""
    import ray

    from jamie_ray.state import caps

    runs = []

    def recorded_run():
        runs.append(real_new())
        return runs[-1]

    real_new = caps.new_cap_counters
    monkeypatch.setattr(caps, "new_cap_counters", recorded_run)

    def records_left() -> list[int]:
        return [ray.get(r.actor.snapshot.remote(r.run))[0] for r in runs]

    _, tables = corpus
    pages = _split_pages(tables["pages"], tmp_path / "pages_four", 4)
    kg.materialize_graph(pages, str(tmp_path / "full"), n_shards=4)
    held = _cap_counter_ids()
    assert len(_cap_counter_ids("ALIVE")) == 1
    assert records_left() == [0]

    out = str(tmp_path / "resumed")
    with pytest.raises(RuntimeError, match="injected kill"):
        kg.materialize_graph(pages, out, n_shards=4, _fail_after_checkpoint=3)
    assert records_left() == [0, 0]
    s = kg.materialize_graph(pages, out, n_shards=4)
    assert s["shards_skipped"] == 3 and s["shards_run"] == 1
    assert records_left() == [0, 0, 0]
    assert _cap_counter_ids() == held


def test_run_counters_keep_runs_apart(ray_session):
    """Two runs recording the same (name, key) into the session actor
    each read back their own count; a closed run ignores late sends."""
    from jamie_ray.state.caps import cap_totals, new_cap_counters

    a, b = new_cap_counters(), new_cap_counters()
    assert a.actor == b.actor and a.run != b.run
    a.record("pages/0", 7, 3)
    b.record("pages/0", 7, 5)
    b.record("pages/0", 8, 1)
    assert cap_totals(a) == {"pages/0": 3}
    assert cap_totals(b) == {"pages/0": 6}
    a.close()
    a.record("pages/0", 9, 4)
    assert cap_totals(a) == {} and cap_totals(b) == {"pages/0": 6}
    b.close()


def test_reinitialised_session_gets_a_fresh_counter_actor():
    """The session actor outlives the runs that used it (a later run
    still counts after the first run's handle is gone), and after
    ray.shutdown() and ray.init() the name lookup creates a new actor,
    which counts too."""
    import os
    import subprocess
    import sys

    script = (
        "import gc\n"
        "import ray\n"
        "from jamie_ray.state.caps import cap_totals, new_cap_counters\n"
        "def run(n):\n"
        "    c = new_cap_counters()\n"
        "    c.record('n', 1, n)\n"
        "    assert cap_totals(c) == {'n': n}\n"
        "    c.close()\n"
        "    return c.actor._actor_id.hex()\n"
        "def session():\n"
        "    ray.init(address='local', num_cpus=1, include_dashboard=False, logging_level='ERROR')\n"
        "    first = run(2)\n"
        "    gc.collect()\n"
        "    assert run(3) == first\n"
        "    ray.shutdown()\n"
        "    return first\n"
        "first, second = session(), session()\n"
        "assert first != second, first\n"
        "print('fresh actor ok')\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert "fresh actor ok" in r.stdout


def test_materialize_lineage_is_per_shard(corpus, tmp_path, monkeypatch):
    """With one counter actor shared by every shard, each manifest
    record still counts only its own shard's files: n_pages,
    n_quarantined_pages and n_chunks equal an independent count over
    that shard's file, and the summary's truncation counts hold the
    link's counter only, no shard lineage name."""
    import jamie_ray.pipelines.kg as kgmod
    from jamie_ray.state.lineage import read_manifest

    _, tables = corpus
    pages = tables["pages"]
    pages_dir = _split_pages(pages, tmp_path / "pages_lineage", 4)
    real_link = kgmod.link_triples

    def truncating_link(triples, *, cap_counters, **kw):
        # one hot-band truncation, recorded the way the link kernel
        # records it, so the summary has a link counter to keep apart
        # from the lineage ones
        cap_counters.record("link_truncated_candidates", 7, 5)
        return real_link(triples, cap_counters=cap_counters, **kw)

    monkeypatch.setattr(kgmod, "link_triples", truncating_link)
    out = tmp_path / "graph_lineage"
    s = kg.materialize_graph(pages_dir, str(out), n_shards=4)
    assert s["n_truncated_candidates"] == {"link_truncated_candidates": 5}

    quarantined = set(tables["expected_quarantine"]["url"].to_pylist())
    chunks_per_url: dict[str, int] = {}
    for u in tables["expected_chunks"]["url"].to_pylist():
        chunks_per_url[u] = chunks_per_url.get(u, 0) + 1
    step = (pages.num_rows + 3) // 4
    recs = read_manifest(str(out))
    assert sorted(recs) == [0, 1, 2, 3]
    for shard, rec in recs.items():
        own = pages.slice(shard * step, step)  # shard N reads file N
        ja = [
            u for u, lang in zip(own["url"].to_pylist(), own["lang"].to_pylist())
            if lang == "ja"
        ]
        n_q = sum(u in quarantined for u in ja)
        assert n_q > 0
        assert rec["n_quarantined_pages"] == n_q, shard
        assert rec["n_pages"] == len(ja) - n_q, shard
        assert rec["n_chunks"] == sum(chunks_per_url.get(u, 0) for u in ja), shard


def _operators(ds) -> list[tuple[str, int]]:
    """(name, tasks executed) of each operator in ``ds.stats()``."""
    import re

    return [
        (m.group(1), int(m.group(2)))
        for m in re.finditer(
            r"^Operator \d+ (\S+): (\d+) tasks executed", ds.stats(), re.M
        )
    ]


def test_read_blocks_hold_whole_files(corpus, tmp_path, monkeypatch):
    """At ``6 × cpus`` input files or more, each read block is whole
    files, ``files // (6 × cpus)`` at most: 8 files at one CPU are 8
    blocks (a plain request of 6 would read 2,2,1,1,1,1 files), 13 are
    7. Below that, each file is cut as a plain ``6 × cpus`` request
    cuts it."""
    pages_dir, tables = corpus
    pages = _split_pages(tables["pages"], tmp_path / "pages_files", 8)
    monkeypatch.setattr(kg, "_cluster_cpus", lambda: 1)
    ds = kg.build_triples(pages)
    cols = ["subj", "pred", "obj", "url", "chunk_id"]
    assert _rows(ds, cols) == _rows(tables["expected_triples"], cols)
    assert _operators(ds)[0] == ("ReadParquet", 8)

    thirteen = _split_pages(tables["pages"], tmp_path / "thirteen", 13)
    assert kg._read_blocks(thirteen) == 7
    monkeypatch.setattr(kg, "_cluster_cpus", lambda: 4)
    assert kg._read_blocks(pages) == 24
    assert kg._read_blocks(thirteen) == 26


def test_tiny_input_reads_no_empty_blocks(tmp_path, ray_session):
    """A single file with fewer rows than ``6 × cpus`` read blocks is cut
    into at most one block per row: no read block is empty, so every
    extract output block has its schema (the lang filter runs inside the
    extract kernel) and the blocks concatenate."""
    import pyarrow.parquet as pq
    import ray

    pages = fixtures.generate(16)["pages"]
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, path)
    assert kg._cluster_cpus() * 6 > pages.num_rows
    read = ray.get(kg.read_pages(path).to_arrow_refs())
    assert all(t.num_rows for t in read)
    ds = kg.extracted_pages(kg.read_pages(path), lang="ja")
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.num_rows == pages["lang"].to_pylist().count("ja") > 0
