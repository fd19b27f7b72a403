"""The benchmark's own tests: every output check rejects a corrupted
result (so ``failed == 0`` is not vacuous), all four workloads and
their traced runs work at smoke size, and outputs do not depend on the
seeded input layout.

    python -m pytest kgbench -q
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pytest

from kgbench import run  # sizes thread pools, makes jamie_ray importable in workers
from kgbench import layers, oracles
from kgbench.workloads import WORKLOADS

SMOKE = {
    "triples_stream": 60,
    "graph_materialize": 60,
    "corpus_clean": 80,
    "triples_eval": 60,
}


@pytest.fixture(scope="module")
def ray_session():
    run._ray_init()
    yield
    run.stop_ray()


def _workload(name: str, seed: int, tmp_path):
    w = WORKLOADS[name](seed, str(tmp_path / name / f"seed{seed}"), SMOKE[name])
    w.prepare()
    return w


def test_triples_stream_check_rejects_a_dropped_triple(ray_session, tmp_path):
    w = _workload("triples_stream", 1, tmp_path)
    batches, first = w.call(1)
    assert w.check(batches) == []
    assert first > 0
    got = pa.concat_tables(batches)
    assert oracles.check_triples(got.slice(1), w.expected)


def test_graph_materialize_check_rejects_an_altered_row(ray_session, tmp_path):
    w = _workload("graph_materialize", 1, tmp_path)
    out, first = w.call(1)
    assert w.check(out) == []
    assert first > 0
    graph = w.last_graph
    n = graph.column("n_sources").to_pylist()
    n[0] += 1
    altered = graph.set_column(
        graph.schema.get_field_index("n_sources"), "n_sources", pa.array(n, pa.int64())
    )
    assert oracles.check_graph(altered, w.expected)
    w.release(out)
    metrics, errors = w.finish()
    assert errors == []
    assert metrics["resume_s"] > 0


def test_corpus_clean_check_rejects_an_extra_survivor(ray_session, tmp_path):
    w = _workload("corpus_clean", 1, tmp_path)
    result, first = w.call(1)
    assert w.check(result) == []
    stats, ids, _ = result
    # every planted stage fired on the smoke corpus
    assert stats["n_input"] > stats["n_after_quality"] > stats["n_after_exact"]
    assert stats["n_after_exact"] > stats["n_after_near_dup"]
    dropped = sorted(set(range(stats["n_input"])) - set(ids))[0]
    assert oracles.check_clean(stats, ids + [dropped], w.expected, w.expected_ids)
    w.release(result)


def test_triples_eval_check_rejects_a_count_off_by_one(ray_session, tmp_path):
    w = _workload("triples_eval", 1, tmp_path)
    result, _ = w.call(1)
    assert w.check(result) == []
    fps, fns = w.expected["counts"][1:]
    assert fps > 0 and fns > 0  # the perturbation hit both error kinds
    off = dict(result, counts=dict(result["counts"], tps=result["counts"]["tps"] - 1))
    assert oracles.check_eval(off, w.expected)


def test_outputs_do_not_depend_on_the_seed(ray_session, tmp_path):
    graphs, survivors = [], []
    for seed in (1, 2):
        w = _workload("graph_materialize", seed, tmp_path)
        out, _ = w.call(1)
        assert w.check(out) == []
        # one record batch, so the bytes depend on the rows and not on
        # how many files the graph was written as
        graph = w.last_graph.combine_chunks()
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, graph.schema) as writer:
            writer.write_table(graph)
        graphs.append(sink.getvalue().to_pybytes())
        w.release(out)
        c = _workload("corpus_clean", seed, tmp_path)
        (stats, ids, spill), _ = c.call(1)
        survivors.append(sorted(ids))
        c.release((stats, ids, spill))
    assert graphs[0] == graphs[1]
    assert survivors[0] == survivors[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_layer_metric(ray_session, tmp_path, name):
    w = _workload(name, 3, tmp_path)
    metrics, errors, attempted = layers.trace(w, run.NPROC)
    assert errors == []
    assert attempted >= 2
    assert set(metrics) == set(layers.METRICS)
    for metric in layers.ON_PATH[name]:
        value, unit = metrics[metric]
        if unit == "s" and not metric.startswith("trace."):
            assert value > 0, metric
    if name == "graph_materialize":
        assert metrics["state.caps.truncated"][0] == 0
        assert metrics["pipelines.kg.resume.shards_skipped"][0] == 3


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "rows_per_s", "first_batch_s", "resume_s", "peak_rss_mb",
    }
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_parse_stats_reads_operator_totals():
    text = (
        "Operator 1 ReadParquet: 6 tasks executed, 6 blocks produced in 0.16s\n"
        "* Remote wall time: 3.89ms min, 22.87ms max, 10.0ms mean, 60.0ms total\n"
        "* UDF time: 0us min, 0us max, 0.0us mean, 0us total\n"
        "* Output num rows per block: 50 min, 100 max, 66 mean, 400 total\n"
        "\n"
        "Operator 2 MapBatches(a)->MapBatches(b): 4 tasks executed, 4 blocks produced in 0.86s\n"
        "* Remote wall time: 124.44ms min, 280.93ms max, 195.45ms mean, 1.5s total\n"
        "* UDF time: 117.9ms min, 272.78ms max, 188.73ms mean, 754.91ms total\n"
        "* Output num rows per block: 190 min, 258 max, 231 mean, 925 total\n"
    )
    m = layers.ray_data_metrics(layers.parse_stats(text))
    assert m["ray_data.operators"] == 2
    assert m["ray_data.read.wall_s"] == pytest.approx(0.06)
    assert m["ray_data.read.rows_out"] == 400
    assert m["ray_data.map.wall_s"] == pytest.approx(1.5)
    assert m["ray_data.map.udf_s"] == pytest.approx(0.75491)
    assert m["ray_data.map.rows_out"] == 925


def test_layout_is_a_seeded_permutation(tmp_path):
    from kgbench import inputs
    from kgbench.workloads import read_dir

    table = pa.table({"doc_id": pa.array(range(100), pa.int64())})
    dirs = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        dirs[tag] = str(tmp_path / tag)
        os.makedirs(dirs[tag])
        inputs._write_layout(table, dirs[tag], seed)
    ids = {k: read_dir(d).column("doc_id").to_pylist() for k, d in dirs.items()}
    assert len(os.listdir(dirs["a"])) == inputs.N_FILES
    assert ids["a"] == ids["b"]
    assert ids["a"] != ids["c"]
    assert sorted(ids["c"]) == list(range(100))
