"""Per-layer breakdown (``--trace 1``).

The traced run times calls into each layer's public functions from the
benchmark's own code, with spans kept in memory and written to
``.work/<workload>/spans.json`` at the end. It first makes one plain
call (as the end-to-end run does) and one traced call of the workload;
``trace.overhead_s`` is their wall-time difference. Each workload then
times its layers separately, and ``trace.residual_s`` is the traced
call's wall time minus the sum of the layer parts that should add up to
it (on one core busy time adds, so the residual is what the breakdown
does not explain).

Every metric in ``METRICS`` is reported for every workload. A layer a
workload does not run is reported as 0 (listed in ``ON_PATH``); any
other metric the traced run fails to produce is an error.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import oracles
from .workloads import N_SHARDS, read_dir

_KERNELS = ("extract", "chunk", "score", "assemble")
_KERNEL_METRICS = {
    **{f"stages.{k}.self_s": "s" for k in _KERNELS},
    **{f"stages.{k}.rows_out": "count" for k in _KERNELS},
    "stages.extract.quarantined": "count",
    "pipelines.kg.build_triples.wall_s": "s",
    "pipelines.kg.orchestration_s": "s",
    "ray_data.operators": "count",
    "ray_data.read.wall_s": "s",
    "ray_data.read.rows_out": "count",
    "ray_data.map.wall_s": "s",
    "ray_data.map.udf_s": "s",
    "ray_data.map.rows_out": "count",
}
_GRAPH_METRICS = {
    "stages.link.wall_s": "s",
    "stages.link.surfaces_in": "count",
    "stages.link.ids_out": "count",
    "state.caps.truncated": "count",
    "stages.dedup.wall_s": "s",
    "stages.dedup.rows_in": "count",
    "stages.dedup.rows_out": "count",
    "pipelines.kg.materialize.shard_s.p50": "s",
    "pipelines.kg.materialize.shard_s.max": "s",
    "pipelines.kg.materialize.finalize_s": "s",
    "pipelines.kg.materialize.out_bytes": "bytes",
    "pipelines.kg.resume.shards_skipped": "count",
}
_CLEAN_METRICS = {
    "functions.text_analysis.self_s": "s",
    "functions.dedup_docs.exact_dedup.wall_s": "s",
    "functions.dedup_docs.paragraph_dedup.wall_s": "s",
    "functions.dedup_docs.minhash_clusters.wall_s": "s",
    "pipelines.clean.spill_bytes": "bytes",
    "pipelines.clean.rows_after.quality": "count",
    "pipelines.clean.rows_after.exact": "count",
    "pipelines.clean.rows_after.near_dup": "count",
}
_EVAL_METRICS = {
    "evalx.evaluate_triples.wall_s": "s",
    "evalx.groups": "count",
}
_TRACE_METRICS = {"trace.overhead_s": "s", "trace.residual_s": "s"}

METRICS = {
    **_KERNEL_METRICS, **_GRAPH_METRICS, **_CLEAN_METRICS, **_EVAL_METRICS,
    **_TRACE_METRICS,
}
ON_PATH = {
    "triples_stream": {*_KERNEL_METRICS, *_TRACE_METRICS},
    "graph_materialize": {*_KERNEL_METRICS, *_GRAPH_METRICS, *_TRACE_METRICS},
    "corpus_clean": {*_CLEAN_METRICS, *_TRACE_METRICS},
    "triples_eval": {*_EVAL_METRICS, *_TRACE_METRICS},
}


class Tracer:
    """In-memory spans: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self._open.append(name)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["seconds"] = rec["end"] - rec["start"]
            self._open.pop()
            self.spans.append(rec)

    def seconds(self, name: str) -> float:
        return sum(s["seconds"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f, indent=1)


_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP_RE = re.compile(r"^Operator \d+ (.+?): ")
_TOTAL_RE = re.compile(r"([\d.]+)(us|ms|s)? total")


def parse_stats(text: str) -> list[dict]:
    """Operators of a ``Dataset.stats()`` report: name, remote wall,
    UDF time and output rows (totals over the operator's tasks)."""
    ops: list[dict] = []
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            ops.append({"name": m.group(1), "wall_s": 0.0, "udf_s": 0.0, "rows_out": 0})
            continue
        if not ops or not line.startswith("* "):
            continue
        t = _TOTAL_RE.search(line)
        if t is None:
            continue
        value = float(t.group(1)) * _UNIT_S.get(t.group(2) or "s", 1.0)
        if line.startswith("* Remote wall time"):
            ops[-1]["wall_s"] = value
        elif line.startswith("* UDF time"):
            ops[-1]["udf_s"] = value
        elif line.startswith("* Output num rows per block"):
            ops[-1]["rows_out"] = int(float(t.group(1)))
    return ops


def ray_data_metrics(ops: list[dict]) -> dict:
    reads = [o for o in ops if o["name"].startswith("Read")]
    maps = [o for o in ops if not o["name"].startswith("Read")]
    return {
        "ray_data.operators": len(ops),
        "ray_data.read.wall_s": sum(o["wall_s"] for o in reads),
        "ray_data.read.rows_out": sum(o["rows_out"] for o in reads),
        "ray_data.map.wall_s": sum(o["wall_s"] for o in maps),
        "ray_data.map.udf_s": sum(o["udf_s"] for o in maps),
        "ray_data.map.rows_out": maps[-1]["rows_out"] if maps else 0,
    }


def kernel_self_times(pages_dir: str, n_cpus: int) -> tuple[dict, pa.Table]:
    """The four stage kernels run in this process, one at a time, on
    the workload's pages cut as the engine cuts them: ``read_pages``'
    6 blocks per core, whole-block batches, 64-chunk scorer batches."""
    from jamie_ray.pipelines.kg import DEFAULT_SCORER_BATCH
    from jamie_ray.stages.assemble import assemble_batch
    from jamie_ray.stages.chunk import chunk_pages_batch
    from jamie_ray.stages.extract import extract_batch, filter_lang_batch, healthy_batch
    from jamie_ray.stages.score import score_chunks_task

    pages = read_dir(pages_dir).select(["url", "html", "lang"])
    n_blocks = n_cpus * 6
    step = -(-pages.num_rows // n_blocks)
    self_s = dict.fromkeys(_KERNELS, 0.0)
    rows = dict.fromkeys(_KERNELS, 0)
    quarantined = 0
    triples = []

    def timed(kernel, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self_s[kernel] += time.perf_counter() - t0
        rows[kernel] += out.num_rows
        return out

    # untimed pass over a few pages first: the scorer's per-process model
    # and the analyzers' caches are built once, as in a warm Ray worker
    warm = healthy_batch(extract_batch(filter_lang_batch(pages.slice(0, 16), "ja")))
    assemble_batch(score_chunks_task(chunk_pages_batch(warm)))

    for lo in range(0, pages.num_rows, step):
        block = pages.slice(lo, step)
        extracted = timed(
            "extract", lambda b: extract_batch(filter_lang_batch(b, "ja")), block
        )
        quarantined += pc.sum(pc.not_equal(extracted.column("error"), "")).as_py() or 0
        chunks = timed("chunk", lambda b: chunk_pages_batch(healthy_batch(b)), extracted)
        for c in range(0, chunks.num_rows, DEFAULT_SCORER_BATCH):
            scored = timed(
                "score", score_chunks_task, chunks.slice(c, DEFAULT_SCORER_BATCH)
            )
            triples.append(timed("assemble", assemble_batch, scored))
    rows["extract"] -= quarantined
    out = {f"stages.{k}.self_s": v for k, v in self_s.items()}
    out.update({f"stages.{k}.rows_out": v for k, v in rows.items()})
    out["stages.extract.quarantined"] = quarantined
    return out, pa.concat_tables(triples)


def _plain_call(workload) -> tuple[float, list[str]]:
    """One untraced call, as the end-to-end run makes it."""
    t0 = time.perf_counter()
    result, _ = workload.call(0)
    wall = time.perf_counter() - t0
    errors = workload.check(result)
    workload.release(result)
    return wall, errors


def _traced_call(workload, tracer: Tracer, collect):
    """One call inside the ``workload.call`` span, whose tail
    ``trace.collect`` span runs ``collect(result)``."""
    with tracer.span("workload.call"):
        result, _ = workload.call(1)
        with tracer.span("trace.collect"):
            extra = collect(result)
    return result, extra, tracer.seconds("workload.call")


def _trace_pages(workload, tracer: Tracer, n_cpus: int) -> tuple[dict, list[str], pa.Table]:
    """Kernel self times, then ``build_triples`` consumed like the
    workload consumes it, with its Ray Data operator stats."""
    with tracer.span("kernels"):
        m, kernel_triples = kernel_self_times(workload.pages, n_cpus)
    ds = workload.kg.build_triples(workload.pages)
    batches = []
    with tracer.span("build_triples.traced"):
        with tracer.span("pipelines.kg.build_triples"):
            for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
                batches.append(b)
        with tracer.span("trace.collect"):
            m.update(ray_data_metrics(parse_stats(ds.stats())))
    m["pipelines.kg.build_triples.wall_s"] = tracer.seconds("pipelines.kg.build_triples")
    m["pipelines.kg.orchestration_s"] = m["pipelines.kg.build_triples.wall_s"] - sum(
        m[f"stages.{k}.self_s"] for k in _KERNELS
    )
    triples = pa.concat_tables(batches)
    errors = []
    if kernel_triples.num_rows != triples.num_rows:
        errors.append(
            f"kernels: {kernel_triples.num_rows} triples in-process vs "
            f"{triples.num_rows} through Ray"
        )
    return m, errors, triples


def trace_triples_stream(workload, tracer: Tracer, n_cpus: int):
    plain, errors = _plain_call(workload)
    m, errs, triples = _trace_pages(workload, tracer, n_cpus)
    errors += errs + oracles.check_triples(triples, workload.expected)
    # the traced call of this workload is the build_triples pass above
    m["trace.overhead_s"] = tracer.seconds("build_triples.traced") - plain
    m["trace.residual_s"] = m["pipelines.kg.build_triples.wall_s"] - (
        m["ray_data.read.wall_s"] + m["ray_data.map.wall_s"]
    )
    return m, errors, 2


def _manifest(out: str) -> list[dict]:
    from jamie_ray.state.lineage import read_manifest

    return [rec for _, rec in sorted(read_manifest(out).items())]


def _bytes_under(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


def trace_graph_materialize(workload, tracer: Tracer, n_cpus: int):
    import ray
    import ray.data

    from jamie_ray.stages.dedup import dedup_triples
    from jamie_ray.stages.link import link_triples

    plain, errors = _plain_call(workload)
    out, (manifest, out_bytes), traced = _traced_call(
        workload,
        tracer,
        lambda out: (_manifest(out), _bytes_under(os.path.join(out, "graph"))),
    )
    # finalize alone: a rerun over the finished output skips every shard
    with tracer.span("pipelines.kg.materialize.finalize"):
        summary = workload.kg.materialize_graph(workload.pages, out, n_shards=N_SHARDS)
    if summary.get("shards_skipped") != N_SHARDS:
        errors.append(f"finalize rerun ran {summary.get('shards_run')} shards")
    errors += workload.check(out)
    workload.release(out)
    shard_s = [rec["wall_time_s"] for rec in manifest]
    m = {
        "pipelines.kg.materialize.shard_s.p50": statistics.median(shard_s),
        "pipelines.kg.materialize.shard_s.max": max(shard_s),
        "pipelines.kg.materialize.finalize_s": tracer.seconds(
            "pipelines.kg.materialize.finalize"
        ),
        "pipelines.kg.materialize.out_bytes": out_bytes,
        "state.caps.truncated": sum(
            sum(rec.get("n_truncated_candidates", {}).values()) for rec in manifest
        ),
    }
    if m["state.caps.truncated"]:
        errors.append(f"link caps truncated {m['state.caps.truncated']} candidates")
    m["trace.overhead_s"] = traced - plain
    m["trace.residual_s"] = (
        traced - sum(shard_s) - m["pipelines.kg.materialize.finalize_s"]
    )

    km, errs, triples = _trace_pages(workload, tracer, n_cpus)
    m.update(km)
    errors += errs
    # link, then dedup, over the whole corpus's materialized triples
    tdir = os.path.join(workload.work_dir, "trace-triples")
    shutil.rmtree(tdir, ignore_errors=True)
    os.makedirs(tdir)
    pq.write_table(triples, os.path.join(tdir, "triples.parquet"))
    with tracer.span("stages.link"):
        linked = link_triples(ray.data.read_parquet(tdir), cache_input=False).materialize()
    with tracer.span("stages.dedup"):
        deduped = dedup_triples(linked).materialize()
    ids = pa.concat_tables(
        ray.get(linked.select_columns(["subj_id", "obj_id"]).to_arrow_refs())
    )
    m["stages.link.wall_s"] = tracer.seconds("stages.link")
    m["stages.link.surfaces_in"] = len(
        set(triples.column("subj").to_pylist()) | set(triples.column("obj").to_pylist())
    )
    m["stages.link.ids_out"] = len(
        set(ids.column("subj_id").to_pylist()) | set(ids.column("obj_id").to_pylist())
    )
    m["stages.dedup.wall_s"] = tracer.seconds("stages.dedup")
    m["stages.dedup.rows_in"] = linked.count()
    m["stages.dedup.rows_out"] = deduped.count()
    if m["stages.dedup.rows_out"] != workload.expected.num_rows:
        errors.append(
            f"dedup: {m['stages.dedup.rows_out']} rows, expected "
            f"{workload.expected.num_rows}"
        )
    shutil.rmtree(tdir, ignore_errors=True)

    _, summary, _, _ = workload.kill_and_resume()
    m["pipelines.kg.resume.shards_skipped"] = summary["shards_skipped"]
    shutil.rmtree(os.path.join(workload.work_dir, "resume"), ignore_errors=True)
    return m, errors, 4


def text_analysis_self_s(docs_dir: str) -> float:
    """The default quality gate's kernels in this process, one parquet
    file (one read block) at a time."""
    from jamie_ray.functions.text_analysis import (
        quality_score_batch,
        repetition_batch,
        token_count_batch,
    )

    total = 0.0
    for f in sorted(os.listdir(docs_dir)):
        block = pq.read_table(os.path.join(docs_dir, f), columns=["doc_id", "text"])
        t0 = time.perf_counter()
        repetition_batch(quality_score_batch(token_count_batch(block)))
        total += time.perf_counter() - t0
    return total


def trace_corpus_clean(workload, tracer: Tracer, n_cpus: int):
    import ray.data

    from jamie_ray.functions.dedup_docs import exact_dedup, minhash_clusters, paragraph_dedup

    plain, errors = _plain_call(workload)
    result, spill_bytes, traced = _traced_call(
        workload, tracer, lambda r: _bytes_under(r[2])
    )
    errors += workload.check(result)
    stats, _, spill = result
    m = {
        "pipelines.clean.spill_bytes": spill_bytes,
        "pipelines.clean.rows_after.quality": stats["n_after_quality"],
        "pipelines.clean.rows_after.exact": stats["n_after_exact"],
        "pipelines.clean.rows_after.near_dup": stats["n_after_near_dup"],
    }
    with tracer.span("functions.text_analysis"):
        m["functions.text_analysis.self_s"] = text_analysis_self_s(workload.docs)
    # each dedup operator on the input clean_corpus gave it (its spill)
    for fn, src in (
        (exact_dedup, "gated"), (paragraph_dedup, "exact"), (minhash_clusters, "para"),
    ):
        name = f"functions.dedup_docs.{fn.__name__}"
        with tracer.span(name):
            out = fn(ray.data.read_parquet(os.path.join(spill, src)))
            for _ in out.iter_batches(batch_format="pyarrow", batch_size=None):
                pass
        m[f"{name}.wall_s"] = tracer.seconds(name)
    workload.release(result)
    m["trace.overhead_s"] = traced - plain
    m["trace.residual_s"] = traced - sum(
        m[k] for k in (
            "functions.text_analysis.self_s",
            "functions.dedup_docs.exact_dedup.wall_s",
            "functions.dedup_docs.paragraph_dedup.wall_s",
            "functions.dedup_docs.minhash_clusters.wall_s",
        )
    )
    return m, errors, 2


def trace_triples_eval(workload, tracer: Tracer, n_cpus: int):
    import ray.data

    plain, errors = _plain_call(workload)
    result, _, traced = _traced_call(workload, tracer, lambda r: None)
    errors += workload.check(result)
    gold, pred = read_dir(workload.gold), read_dir(workload.pred)
    keys = pa.concat_tables(
        [gold.select(["url", "chunk_id"]), pred.select(["url", "chunk_id"])]
    )
    m = {"evalx.groups": keys.group_by(["url", "chunk_id"]).aggregate([]).num_rows}
    # the evaluator alone, on inputs already in the object store
    g_ds, p_ds = ray.data.from_arrow(gold), ray.data.from_arrow(pred)
    with tracer.span("evalx.evaluate_triples"):
        result = workload.evaluate(g_ds, p_ds)
    errors += workload.check(result)
    m["evalx.evaluate_triples.wall_s"] = tracer.seconds("evalx.evaluate_triples")
    m["trace.overhead_s"] = traced - plain
    m["trace.residual_s"] = traced - m["evalx.evaluate_triples.wall_s"]
    return m, errors, 3


TRACERS = {
    "triples_stream": trace_triples_stream,
    "graph_materialize": trace_graph_materialize,
    "corpus_clean": trace_corpus_clean,
    "triples_eval": trace_triples_eval,
}


def trace(workload, n_cpus: int) -> tuple[dict, list[str], int]:
    """Run the workload's traced breakdown; returns
    ({name: (value, unit)}, errors, calls attempted)."""
    tracer = Tracer()
    with tracer.span("trace"):
        measured, errors, attempted = TRACERS[workload.name](workload, tracer, n_cpus)
    tracer.write(os.path.join(workload.work_dir, "spans.json"))
    on_path = ON_PATH[workload.name]
    unexpected = sorted(set(measured) - on_path)
    missing = sorted(on_path - set(measured))
    if unexpected or missing:
        raise RuntimeError(
            f"traced {workload.name}: missing layer metrics {missing}, "
            f"unexpected {unexpected}"
        )
    metrics = {
        name: (measured.get(name, 0), unit) for name, unit in METRICS.items()
    }
    return metrics, errors, attempted
