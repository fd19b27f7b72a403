"""The four workloads: each drives one public ``jamie_ray`` entry point
from outside on seeded inputs and checks its output.

Interface (used by ``run.py`` and the tests):

- ``prepare()``: generate or load the inputs (never timed);
- ``warm()``: one untimed call on a tiny input (part of set-up);
- ``call(i)``: one timed call; returns ``(result, first_output_s)``;
- ``check(result)``: list of output errors (empty = correct);
- ``release(result)``: delete what the call wrote (never timed);
- ``finish()``: the kill-and-resume pass of a ``resumable`` workload,
  after the timed calls; returns ``(metrics, errors)``.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs, oracles

# generator size of one timed call: pages (triples_eval's gold is their
# expected triples) or near-dup base documents (corpus_clean's planted
# extra documents add ~20%); then the tiny warm-up inputs
SIZES = {
    "triples_stream": 2000,
    "graph_materialize": 400,
    "corpus_clean": 1500,
    "triples_eval": 2000,
}
WARM_PAGES = 24
WARM_DOCS = 40
N_SHARDS = 4


def read_dir(path: str) -> pa.Table:
    """Parquet files of ``path`` concatenated in file-name order."""
    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    tables = [pq.read_table(os.path.join(path, f)) for f in files]
    return pa.concat_tables(tables) if tables else pa.table({})


class Workload:
    name = ""
    resumable = False  # has a kill-and-resume pass (``finish``)

    def __init__(self, seed: int, work_dir: str, size: int | None = None):
        self.seed = seed
        self.size = size or SIZES[self.name]
        self.work_dir = work_dir
        self.rows = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def release(self, result) -> None:
        pass

    def finish(self) -> tuple[dict, list[str]]:
        raise NotImplementedError


class TriplesStream(Workload):
    """``kg.build_triples`` consumed batch by batch with ``iter_batches``."""

    name = "triples_stream"

    def prepare(self) -> None:
        from jamie_ray.pipelines import kg

        self.kg = kg
        self.pages = inputs.layout("pages", self.size, self.seed)
        self.warm_pages = inputs.layout("pages", WARM_PAGES, self.seed)
        self.expected = pq.read_table(
            os.path.join(inputs.pages_base(self.size), "expected_triples.parquet")
        )
        self.rows = pq.read_metadata(
            os.path.join(inputs.pages_base(self.size), "pages.parquet")
        ).num_rows

    def _stream(self, pages: str):
        t0 = time.perf_counter()
        first = None
        batches = []
        for b in self.kg.build_triples(pages).iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            if first is None:
                first = time.perf_counter() - t0
            batches.append(b)
        return batches, first

    def warm(self) -> None:
        self._stream(self.warm_pages)

    def call(self, i: int):
        return self._stream(self.pages)

    def check(self, result) -> list[str]:
        return oracles.check_triples(pa.concat_tables(result), self.expected)


class GraphMaterialize(Workload):
    """``kg.materialize_graph`` into a fresh directory per call, plus
    one kill-and-resume pass per run."""

    name = "graph_materialize"
    resumable = True

    def prepare(self) -> None:
        from jamie_ray.pipelines import kg

        self.kg = kg
        self.pages = inputs.layout("pages", self.size, self.seed)
        self.warm_pages = inputs.layout("pages", WARM_PAGES, self.seed)
        self.expected = pq.read_table(
            os.path.join(inputs.pages_base(self.size), "expected_graph.parquet")
        )
        self.rows = pq.read_metadata(
            os.path.join(inputs.pages_base(self.size), "pages.parquet")
        ).num_rows
        self.last_graph = None

    def _out(self, tag: str) -> str:
        out = os.path.join(self.work_dir, tag)
        shutil.rmtree(out, ignore_errors=True)
        return out

    def warm(self) -> None:
        out = self._out("warm")
        self.kg.materialize_graph(self.warm_pages, out, n_shards=1)
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _first_output_s(out: str, t0: float) -> float:
        """Seconds from ``t0`` (wall clock) until the first shard's
        deduplicated triples were on disk."""
        shard0 = os.path.join(out, "shard=0")
        return min(
            os.stat(os.path.join(shard0, f)).st_mtime
            for f in os.listdir(shard0)
            if f.endswith(".parquet")
        ) - t0

    def call(self, i: int):
        out = self._out(f"call-{i}")
        t0 = time.time()
        self.kg.materialize_graph(self.pages, out, n_shards=N_SHARDS)
        return out, self._first_output_s(out, t0)

    def check(self, out) -> list[str]:
        graph = read_dir(os.path.join(out, "graph"))
        self.last_graph = graph
        return oracles.check_graph(graph, self.expected)

    def release(self, out) -> None:
        shutil.rmtree(out, ignore_errors=True)

    def kill_and_resume(self) -> tuple[str, dict, float, float]:
        """Kill a run after the last shard's score checkpoint, then
        rerun it; returns (out dir, resume summary, resume seconds, the
        killed run's first-output seconds)."""
        out = self._out("resume")
        t0 = time.time()
        try:
            self.kg.materialize_graph(
                self.pages, out, n_shards=N_SHARDS,
                _fail_after_checkpoint=N_SHARDS - 1,
            )
        except RuntimeError as ex:
            if "injected kill" not in str(ex):
                raise
        else:
            raise RuntimeError("materialize_graph ignored the injected kill")
        killed_first = self._first_output_s(out, t0)
        t0 = time.perf_counter()
        summary = self.kg.materialize_graph(self.pages, out, n_shards=N_SHARDS)
        return out, summary, time.perf_counter() - t0, killed_first

    def finish(self) -> tuple[dict, list[str]]:
        out, summary, resume_s, killed_first = self.kill_and_resume()
        resumed = read_dir(os.path.join(out, "graph"))
        errors = oracles.check_graph(resumed, self.expected)
        if self.last_graph is not None and not resumed.equals(self.last_graph):
            errors.append("graph: resumed graph differs from the uninterrupted graph")
        if summary.get("shards_skipped") != N_SHARDS - 1:
            errors.append(f"resume: skipped {summary.get('shards_skipped')} shards")
        shutil.rmtree(out, ignore_errors=True)
        # the killed run is the same call up to its last shard, so its
        # first output is one more first_batch_s sample
        return {"resume_s": resume_s, "first_batch_s": killed_first}, errors


class CorpusClean(Workload):
    """``clean_corpus`` with defaults; the cleaned Dataset is consumed
    with ``iter_batches``."""

    name = "corpus_clean"

    def prepare(self) -> None:
        import ray.data

        from jamie_ray.pipelines.clean import clean_corpus

        self.read = ray.data.read_parquet
        self.clean_corpus = clean_corpus
        self.docs = inputs.layout("docs", self.size, self.seed)
        self.warm_docs = inputs.layout("docs", WARM_DOCS, self.seed)
        base = inputs.docs_base(self.size)
        docs = pq.read_table(os.path.join(base, "documents.parquet"))
        self.rows = docs.num_rows
        self.expected = oracles.clean_expected(docs)
        self.expected_ids = pq.read_table(
            os.path.join(base, "expected_survivors.parquet")
        ).column("doc_id").to_pylist()

    def _clean(self, docs: str, spill: str):
        shutil.rmtree(spill, ignore_errors=True)
        t0 = time.perf_counter()
        first = None
        ids: list[int] = []
        cleaned, stats = self.clean_corpus(self.read(docs), spill)
        for b in cleaned.iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = time.perf_counter() - t0
            ids.extend(b.column("doc_id").to_pylist())
        return (stats, ids, spill), first

    def warm(self) -> None:
        (_, _, spill), _ = self._clean(
            self.warm_docs, os.path.join(self.work_dir, "warm")
        )
        shutil.rmtree(spill, ignore_errors=True)

    def call(self, i: int):
        return self._clean(self.docs, os.path.join(self.work_dir, f"call-{i}"))

    def check(self, result) -> list[str]:
        stats, ids, _ = result
        return oracles.check_clean(stats, ids, self.expected, self.expected_ids)

    def release(self, result) -> None:
        shutil.rmtree(result[2], ignore_errors=True)


class TriplesEval(Workload):
    """``evalx.evaluate_triples(gold, pred)`` over parquet inputs."""

    name = "triples_eval"

    def prepare(self) -> None:
        import ray.data

        from jamie_ray import evalx

        self.read = ray.data.read_parquet
        self.evaluate = evalx.evaluate_triples
        self.gold, self.pred = inputs.eval_inputs(self.size, self.seed)
        self.warm_gold, self.warm_pred = inputs.eval_inputs(WARM_PAGES, self.seed)
        gold, pred = read_dir(self.gold), read_dir(self.pred)
        self.rows = gold.num_rows + pred.num_rows
        self.expected = oracles.eval_expected(gold, pred)

    def _eval(self, gold: str, pred: str):
        t0 = time.perf_counter()
        result = self.evaluate(self.read(gold), self.read(pred))
        # the result is one dict: the first output is the whole answer
        return result, time.perf_counter() - t0

    def warm(self) -> None:
        self._eval(self.warm_gold, self.warm_pred)

    def call(self, i: int):
        return self._eval(self.gold, self.pred)

    def check(self, result) -> list[str]:
        return oracles.check_eval(result, self.expected)


WORKLOADS = {
    w.name: w for w in (TriplesStream, GraphMaterialize, CorpusClean, TriplesEval)
}
