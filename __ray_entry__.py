"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline; ``queries()`` exposes one
callable per implemented operator/pipeline from SURVEY.md §2 (plus the
training-data ops); ``oracle_sql()`` gives the DuckDB twin for every
SQL-expressible query (same column names, same rounding). Ray is
initialised by the driver before this module is imported — nothing here
calls ``ray.init``/``ray.shutdown``.

The KG queries run over a deterministic synthetic ``pages`` corpus (the
BASELINE.json input-hint shape; see ``jamie_ray/fixtures.py``) generated
idempotently under /tmp and sized by the sf label. Their oracles read
the generator's independently-computed expected tables via DuckDB
``read_parquet`` — for the non-SQL-expressible stages (graph linking,
approximate ops) no oracle is given and the driver records the weaker
rows-only check.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

# KG corpus size per sf label (scoring is the heavy stage; these keep
# sf0.01 conformance runs in seconds while still covering every
# adversarial fixture class)
_KG_PAGES = {"sf0.001": 250, "sf0.01": 1200, "sf0.1": 20000}
_KG_ROOT = "/tmp/jamie_ray_fixtures"


def _kg_dir(sf_dir: str) -> str:
    label = os.path.basename(os.path.normpath(sf_dir))
    n = _KG_PAGES.get(label, 300)
    out = os.path.join(_KG_ROOT, f"n{n}")
    from jamie_ray.fixtures import write_corpus

    write_corpus(out, n)
    return out


def entry() -> Any:
    """Flagship pipeline: deterministic pages corpus (sf0.001 scale) ->
    extract -> chunk -> score -> assemble -> link -> dedup graph."""
    from jamie_ray.pipelines import kg

    corpus = _kg_dir("/root/testdata/sf0.001")
    return kg.build_graph(f"{corpus}/pages.parquet")


def queries() -> dict[str, Callable[[str], Any]]:
    from jamie_ray.functions import dedup_docs, multimodal, similarity
    from jamie_ray.pipelines import kg, relational as rel

    import pyarrow.parquet as pq
    import ray.data

    # ---- KG pipeline stages over the synthetic pages corpus ----

    def kg_extract_text(sf_dir: str):
        corpus = _kg_dir(sf_dir)
        from jamie_ray.stages.extract import extract_batch

        pages = kg.read_pages(f"{corpus}/pages.parquet")
        return pages.map_batches(extract_batch, batch_format="pyarrow").map_batches(
            lambda b: b.select(["url", "text"]), batch_format="pyarrow"
        )

    def kg_chunks(sf_dir: str):
        corpus = _kg_dir(sf_dir)
        return kg.chunk_pages(
            kg.extracted_pages(kg.read_pages(f"{corpus}/pages.parquet"))
        )

    def kg_entities(sf_dir: str):
        corpus = _kg_dir(sf_dir)
        return kg.build_entities(f"{corpus}/pages.parquet")

    def kg_quarantine(sf_dir: str):
        """Quarantined pages (url, error): the corpus plants
        deterministic poison pages (invalid utf-8 html, fixture class
        adv==3), so this conformance query exercises — and its oracle
        value-checks — the real quarantine path."""
        from jamie_ray.stages.extract import quarantined_batch

        corpus = _kg_dir(sf_dir)
        return kg.extracted_pages(
            kg.read_pages(f"{corpus}/pages.parquet")
        ).map_batches(quarantined_batch, batch_format="pyarrow")

    def kg_triples(sf_dir: str):
        corpus = _kg_dir(sf_dir)
        return kg.build_triples(f"{corpus}/pages.parquet")

    def kg_graph_surface(sf_dir: str):
        """The deduplicated graph, id columns dropped: on the fixture
        vocabulary linking is surface-identity (pinned by
        test_fixture_linking_is_identity), so every remaining column is
        SQL-derivable from expected_triples — this upgrades the graph
        from a rows-only check to a full value check."""
        corpus = _kg_dir(sf_dir)
        return kg.build_graph(f"{corpus}/pages.parquet").drop_columns(
            ["subj_id", "obj_id"]
        )

    def kg_entity_degree(sf_dir: str):
        """Downstream KG analytics: top-20 subjects by out-degree over
        the deduplicated graph (ties by surface)."""
        from jamie_ray.shuffle import group_sum, sorted_reduce

        corpus = _kg_dir(sf_dir)
        graph = kg.build_graph(f"{corpus}/pages.parquet")
        combined = graph.map_batches(
            lambda b: group_sum(b, ["subj"], [], None),
            batch_format="pyarrow",
        )
        return (
            sorted_reduce(
                combined,
                "subj",
                lambda b: group_sum(b, ["subj"], [], "__n").rename_columns(
                    ["subj", "degree"]
                ),
            )
            .sort(["degree", "subj"], descending=[True, False])
            .limit(20)
        )

    def kg_triples_pipeline_mode(sf_dir: str):
        """Legacy 3-stage architecture — must equal the joint-mode oracle."""
        corpus = _kg_dir(sf_dir)
        return kg.build_triples(f"{corpus}/pages.parquet", mode="pipeline")

    def kg_conll_roundtrip(sf_dir: str):
        """tagged -> multihead-CoNLL text -> parsed back -> triples;
        must equal the triple oracle (S5/S7 interop conformance)."""
        from jamie_ray.stages.assemble import assemble_batch
        from jamie_ray.stages.conll import (
            conll_text_to_tagged_batch,
            tagged_to_conll_batch,
        )

        corpus = _kg_dir(sf_dir)
        chunks = kg.chunk_pages(
            kg.extracted_pages(kg.read_pages(f"{corpus}/pages.parquet"))
        )
        tagged = kg.score_chunks(chunks)
        conll_text = tagged.map_batches(tagged_to_conll_batch, batch_format="pyarrow")
        back = conll_text.map_batches(conll_text_to_tagged_batch, batch_format="pyarrow")
        return back.map_batches(assemble_batch, batch_format="pyarrow")

    def kg_gold_xml_roundtrip(sf_dir: str):
        """tagged -> inline-XML writer -> GOLD-XML READER -> assemble;
        must equal the triple oracle (S1/S3 input-direction conformance:
        real annotated corpora load through stages/gold_xml.py)."""
        from jamie_ray.stages.assemble import assemble_batch
        from jamie_ray.stages.format_out import tagged_to_xml_batch
        from jamie_ray.stages.gold_xml import gold_xml_to_tagged_batch

        corpus = _kg_dir(sf_dir)
        chunks = kg.chunk_pages(
            kg.extracted_pages(kg.read_pages(f"{corpus}/pages.parquet"))
        )
        xml = kg.score_chunks(chunks).map_batches(
            tagged_to_xml_batch, batch_format="pyarrow"
        )
        back = xml.map_batches(gold_xml_to_tagged_batch, batch_format="pyarrow")
        return back.map_batches(assemble_batch, batch_format="pyarrow")

    def kg_brat_roundtrip(sf_dir: str):
        """tagged -> brat writer (.txt/.ann standoff) -> BRAT READER ->
        assemble; must equal the triple oracle (S9 input-direction
        conformance: real brat-annotated corpora load through
        stages/brat.py)."""
        from jamie_ray.stages.assemble import assemble_batch
        from jamie_ray.stages.brat import brat_to_tagged_batch
        from jamie_ray.stages.format_out import tagged_to_brat_batch

        corpus = _kg_dir(sf_dir)
        chunks = kg.chunk_pages(
            kg.extracted_pages(kg.read_pages(f"{corpus}/pages.parquet"))
        )
        brat = kg.score_chunks(chunks).map_batches(
            tagged_to_brat_batch, batch_format="pyarrow"
        )
        back = brat.map_batches(brat_to_tagged_batch, batch_format="pyarrow")
        return back.map_batches(assemble_batch, batch_format="pyarrow")

    def kg_pmhs_roundtrip(sf_dir: str):
        """tagged -> pmhs JSONL sink -> PMHS READER -> assemble; equals
        the triple oracle on the mod-free projection (the reference's
        pmhs schema carries no modality, utils.py:2635-2665)."""
        from jamie_ray.stages.assemble import assemble_batch
        from jamie_ray.stages.pmhs import pmhs_to_tagged_batch, tagged_to_pmhs_batch

        corpus = _kg_dir(sf_dir)
        chunks = kg.chunk_pages(
            kg.extracted_pages(kg.read_pages(f"{corpus}/pages.parquet"))
        )
        pmhs = kg.score_chunks(chunks).map_batches(
            tagged_to_pmhs_batch, batch_format="pyarrow"
        )
        back = pmhs.map_batches(pmhs_to_tagged_batch, batch_format="pyarrow")
        return back.map_batches(assemble_batch, batch_format="pyarrow").map_batches(
            lambda b: b.drop_columns(["subj_mod"]), batch_format="pyarrow"
        )

    _I2B2_DOCS = {"sf0.001": 20, "sf0.01": 80, "sf0.1": 800}

    def i2b2_triples(sf_dir: str):
        """S11 alternate-corpus path: synthetic i2b2-style file quartets
        -> distributed reader -> assemble; the oracle is the expected
        triple table the generator derives from its own annotation
        structure (reader-independent)."""
        from jamie_ray.fixtures import write_i2b2_corpus
        from jamie_ray.stages.assemble import assemble_batch
        from jamie_ray.stages.i2b2 import read_i2b2

        label = os.path.basename(os.path.normpath(sf_dir))
        n = _I2B2_DOCS.get(label, 30)
        root = os.path.join(_KG_ROOT, f"i2b2_n{n}")
        write_i2b2_corpus(root, n)
        return read_i2b2(root, "beth").map_batches(
            assemble_batch, batch_format="pyarrow"
        )

    def kg_eval(sf_dir: str):
        """P/R/F1 of the pipeline vs the independent oracle, one row
        per evaluation task — the BASELINE correctness gate (every row
        must be exactly 1.0 here). Tasks: ``triples`` (TupleEvaluator
        G4), ``entities`` (eval_ner/eval_mod analogue, G5), and the
        three modality-attribute tasks ``mod_cert`` / ``mod_ttype`` /
        ``mod_state`` (the reference's -a cert|ttype|state knob,
        clinical_cert.py:41 + utils.py:1268-1281) — folded into one
        table so all gates fit one driver-check slot. ``n_gold``
        (= tps+fns, the matchable gold support per task) is what makes
        the three tasks DISTINGUISHABLE to the oracle: DuckDB derives
        each family's support independently from the generator tables."""
        corpus = _kg_dir(sf_dir)
        from jamie_ray.evalx import (
            evaluate_entities,
            evaluate_mod_task,
            evaluate_triples,
        )
        import pyarrow as pa

        gold_t = ray.data.read_parquet(f"{corpus}/expected_triples.parquet")
        pred_t = kg.build_triples(f"{corpus}/pages.parquet")
        gold_e = ray.data.read_parquet(f"{corpus}/expected_entities.parquet")
        pred_e = kg.build_entities(f"{corpus}/pages.parquet")
        rows = [
            ("triples", evaluate_triples(gold_t, pred_t)),
            ("entities", evaluate_entities(gold_e, pred_e)),
            ("mod_cert", evaluate_mod_task(gold_e, pred_e, "cert")),
            ("mod_ttype", evaluate_mod_task(gold_e, pred_e, "ttype")),
            ("mod_state", evaluate_mod_task(gold_e, pred_e, "state")),
        ]
        tasks, ps, rs, f1s, n_golds = [], [], [], [], []
        for task, res in rows:
            p, r, f1 = (round(x, 6) for x in res["micro"])
            tasks.append(task)
            ps.append(p)
            rs.append(r)
            f1s.append(f1)
            n_golds.append(res["counts"]["tps"] + res["counts"]["fns"])
        return pa.table(
            {
                "task": pa.array(tasks, pa.string()),
                "p": pa.array(ps, pa.float64()),
                "r": pa.array(rs, pa.float64()),
                "f1": pa.array(f1s, pa.float64()),
                "n_gold": pa.array(n_golds, pa.int64()),
            }
        )

    # ---- similarity over embeddings ----

    def _query_vec(sf_dir: str) -> list[float]:
        tab = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        ids = tab["vec_id"].to_pylist()
        return tab["embedding"].to_pylist()[ids.index(0)]

    def knn_bruteforce(sf_dir: str):
        ds = ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        return similarity.knn_bruteforce(ds, _query_vec(sf_dir), k=10)

    def knn_lsh(sf_dir: str):
        """LSH-bucketed approximate kNN over the planted-fixture
        embeddings. The LSH result set is DETERMINISTIC (the
        bucket-restricted exact top-k), so on this corpus even the
        approximate operator is value-checked against the generator's
        expected table; on arbitrary corpora recall < 1 by design."""
        corpus = _kg_dir(sf_dir)
        path = f"{corpus}/embeddings_nd.parquet"
        tab = pq.read_table(path, columns=["vec_id", "embedding"])
        q = tab["embedding"].to_pylist()[tab["vec_id"].to_pylist().index(0)]
        ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
        return similarity.knn_lsh(ds, q, k=10)

    def knn_ivf(sf_dir: str):
        """IVF approximate kNN over the planted-fixture embeddings:
        deterministic distributed k-means (integer-scaled partial sums
        make centroids bit-identical to the generator's single-machine
        replay), so the probe-restricted top-k is value-checked."""
        corpus = _kg_dir(sf_dir)
        path = f"{corpus}/embeddings_nd.parquet"
        tab = pq.read_table(path, columns=["vec_id", "embedding"])
        q = tab["embedding"].to_pylist()[tab["vec_id"].to_pylist().index(0)]
        ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
        return similarity.knn_ivf(ds, q, k=10, n_centroids=16, n_probe=2)

    def knn_ivf_indexed(sf_dir: str):
        """The 100-TB repeated-query shape: probe a MATERIALIZED IVF
        index (corpus written once as centroid-partitioned parquet via
        ``build_ann_index``; ``knn_indexed`` reads ONLY the probed
        partition dirs — I/O pruning, not just compute pruning). Same
        deterministic quantizer as ``knn_ivf``, so the result — and
        the oracle — are identical; the index build is cached next to
        the fixture corpus and reused across calls."""
        from jamie_ray.fixtures import FIXTURE_VERSION

        corpus = _kg_dir(sf_dir)
        path = f"{corpus}/embeddings_nd.parquet"
        idx = os.path.join(corpus, f"ann_ivf_v{FIXTURE_VERSION}")
        if not os.path.exists(os.path.join(idx, "_ann_meta.json")):
            ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
            similarity.build_ann_index(ds, idx, kind="ivf", n_centroids=16, n_iter=3)
        tab = pq.read_table(path, columns=["vec_id", "embedding"])
        q = tab["embedding"].to_pylist()[tab["vec_id"].to_pylist().index(0)]
        return similarity.knn_indexed(idx, q, k=10, n_probe=2)

    def embedding_dedup_suite(sf_dir: str):
        """Embedding-space dedup suite, kind-tagged into one driver slot
        (the ``docs_simhash_suite`` pattern) so both value oracles ride
        one registration:

        - ``kind='pair'`` — cosine near-dup pairs (LSH-bucketed +
          exact verify) over the fixture embeddings, which plant
          deterministic same-LSH-bucket twins (fixtures.py
          generate_embeddings): ``(id_a, id_b, cosine)``.
        - ``kind='sem'`` — SemDeDup-shaped semantic dedup (deterministic
          k-means clusters + within-cluster keep-first by id,
          ``similarity.semantic_dedup``): ``(vec_id, dup_of, cluster)``
          checked against the generator's bit-exact single-machine
          replay of the same expression tree.
        """
        import pyarrow as pa

        corpus = _kg_dir(sf_dir)
        path = f"{corpus}/embeddings_nd.parquet"
        ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])

        def pair_view(b: pa.Table) -> pa.Table:
            n = b.num_rows
            return pa.table(
                {
                    "kind": pa.array(["pair"] * n, pa.string()),
                    "a": b.column("id_a"),
                    "b": b.column("id_b"),
                    "c": b.column("cosine"),
                }
            )

        def sem_view(b: pa.Table) -> pa.Table:
            n = b.num_rows
            return pa.table(
                {
                    "kind": pa.array(["sem"] * n, pa.string()),
                    "a": b.column("vec_id"),
                    "b": b.column("dup_of"),
                    "c": b.column("cluster").cast(pa.float64()),
                }
            )

        pairs = similarity.embedding_near_dup(ds, threshold=0.9).map_batches(
            pair_view, batch_format="pyarrow"
        )
        # semantic_dedup re-scans its input per Lloyd iteration: give it
        # its own source-backed Dataset (not a derived pipeline)
        sem = similarity.semantic_dedup(
            ray.data.read_parquet(path, columns=["vec_id", "embedding"]),
            threshold=0.9,
            n_centroids=16,
            n_iter=3,
        ).map_batches(sem_view, batch_format="pyarrow")
        return pairs.union(sem)

    # ---- dedup family over documents ----

    def dedup_docs_exact(sf_dir: str):
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        return dedup_docs.exact_dedup(docs)

    def doc_ngram_jaccard(sf_dir: str):
        """n-gram Jaccard scorer with a non-trivial exact oracle: each
        document's first-half shingle set vs its full shingle set.

        Tokenization here is RE2-ASCII whitespace ([ \\t\\n\\f\\r]+) to
        match DuckDB's ``string_split_regex('\\s+')`` exactly — Python's
        ``str.split()`` also splits on Unicode whitespace (U+3000, NBSP)
        and would silently diverge on such documents.
        """
        import re

        import pyarrow as pa

        ascii_ws = re.compile(r"[ \t\n\f\r]+")

        def shingles(toks: list[str]) -> set[str]:
            if not toks:
                return set()
            if len(toks) <= 3:
                return {" ".join(toks)}
            return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )

        def score(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            out = []
            for t in batch.column("text").to_pylist():
                toks = [x for x in ascii_ws.split(t or "") if x]
                a = shingles(toks[: len(toks) // 2])
                b = shingles(toks)
                inter = len(a & b)
                out.append(inter / len(a | b) if inter else 0.0)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "half_jaccard": pa.array(out, pa.float64()),
                }
            )

        return docs.map_batches(score, batch_format="pyarrow")

    def docs_minhash_clusters(sf_dir: str):
        """MinHash+LSH near-dup clusters over the fixture documents,
        which plant deterministic band-sharing near-dup groups
        (fixtures.py generate_docs_nd) so cluster assignments are
        value-checked against the generator's expected table. BOTH
        cluster mergers run and are verified at their EXTREME
        configurations: the capped driver union-find with broadcast
        candidates (variant="driver") and the fully-distributed
        pipeline — shuffle-join candidate verify + alternating-star
        connected components + shuffle assign, zero driver-side
        collections (variant="distributed_cc", functions/graph.py +
        candidate_path="shuffle"); the oracle doubles the expected
        table, so a divergence between the two paths is a
        driver-visible failure. The middle combination (broadcast
        candidates + distributed CC) is equality-tested in-repo."""
        import pyarrow as pa

        corpus = _kg_dir(sf_dir)
        docs = ray.data.read_parquet(
            f"{corpus}/documents_nd.parquet", columns=["doc_id", "text"]
        )

        def tag(variant):
            def add(b: pa.Table) -> pa.Table:
                return b.append_column(
                    "variant", pa.array([variant] * b.num_rows, pa.string())
                )

            return add

        via_driver = dedup_docs.minhash_clusters(docs, threshold=0.8).map_batches(
            tag("driver"), batch_format="pyarrow"
        )
        via_cc = dedup_docs.minhash_clusters(
            docs, threshold=0.8, cc="distributed", candidate_path="shuffle"
        ).map_batches(tag("distributed_cc"), batch_format="pyarrow")
        return via_driver.union(via_cc)

    def docs_simhash_suite(sf_dir: str):
        """SimHash signatures AND hamming-banded pairs, folded into one
        kind-tagged registration (the ``kg_writers_out`` pattern) so
        both value oracles ride one driver slot: ``kind='sig'`` rows are
        ``(doc_id, simhash, -1)`` checked against the generator's
        independent scalar implementation (fixtures._simhash_expected);
        ``kind='pair'`` rows are ``(id_a, id_b, hamming)`` checked
        against a banding-free brute force over all pairs, so the
        pigeonhole blocking's recall is value-checked."""
        import pyarrow as pa

        corpus = _kg_dir(sf_dir)
        docs = ray.data.read_parquet(
            f"{corpus}/documents_nd.parquet", columns=["doc_id", "text"]
        )

        def sig_view(b: pa.Table) -> pa.Table:
            b = dedup_docs.simhash_batch(b)
            n = b.num_rows
            return pa.table(
                {
                    "kind": pa.array(["sig"] * n, pa.string()),
                    "a": b.column("doc_id"),
                    "b": b.column("simhash"),
                    "c": pa.array([-1] * n, pa.int64()),
                }
            )

        def pair_view(b: pa.Table) -> pa.Table:
            n = b.num_rows
            return pa.table(
                {
                    "kind": pa.array(["pair"] * n, pa.string()),
                    "a": b.column("id_a"),
                    "b": b.column("id_b"),
                    "c": b.column("hamming"),
                }
            )

        sigs = docs.map_batches(sig_view, batch_format="pyarrow")
        pairs = dedup_docs.simhash_pairs(docs, max_hamming=8).map_batches(
            pair_view, batch_format="pyarrow"
        )
        return sigs.union(pairs)

    def doc_pack_assignments(sf_dir: str):
        """Sequence packing over the documents table (max_len=32 so
        docs span sequences): per-(doc, sequence) token-span
        assignments of the concatenated id-ordered token stream. The
        oracle is PURE SQL: DuckDB recomputes the prefix sum with a
        window function and explodes overlaps via generate_series."""
        import os

        from jamie_ray.functions.packing import pack_sequences

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        # per-invocation spill dir: keyed by a hash of the FULL input
        # path plus pid so concurrent driver runs (or distinct corpora
        # sharing a basename) never race on each other's spill files
        import hashlib
        import tempfile

        tag = hashlib.blake2b(
            os.path.abspath(sf_dir).encode(), digest_size=8
        ).hexdigest()
        spill = tempfile.mkdtemp(
            prefix=f"jamie_ray_pack_spill_{tag}_{os.getpid()}_"
        )
        assignments, _ = pack_sequences(docs, 32, spill_dir=spill)
        return assignments

    def doc_winnow(sf_dir: str):
        """Rolling-hash winnowing fingerprints per document, exploded
        to (doc_id, pos, fingerprint) scalar rows and value-checked
        against the generator's independent per-position implementation
        (fixtures._winnow_expected)."""
        import pyarrow as pa

        from jamie_ray.functions.text_analysis import winnow_batch

        corpus = _kg_dir(sf_dir)
        docs = ray.data.read_parquet(
            f"{corpus}/documents_nd.parquet", columns=["doc_id", "text"]
        )

        def explode(b: pa.Table) -> pa.Table:
            b = winnow_batch(b)
            ids, poss, fps = [], [], []
            for d, row in zip(
                b.column("doc_id").to_pylist(), b.column("fingerprints").to_pylist()
            ):
                for p, fp in enumerate(row):
                    ids.append(d)
                    poss.append(p)
                    fps.append(fp)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "pos": pa.array(poss, pa.int64()),
                    "fingerprint": pa.array(fps, pa.int64()),
                }
            )

        return docs.map_batches(explode, batch_format="pyarrow")

    def doc_top_terms(sf_dir: str):
        """Each document's top-5 distinctive terms by the integer-exact
        tf-idf key (tf desc, df asc, term asc): exact distributed df via
        the deduped (term, doc) combiner + bucketed reduce, df map
        broadcast once (``ray.put`` + ``cached_get``), per-doc tf and
        top-k fully vectorised inside ``map_batches``. The inverted
        index itself (term -> postings) is the sibling
        ``functions.index.inverted_index``, value-checked in
        ``tests/test_index.py``."""
        from jamie_ray.functions.index import doc_top_terms as _dtt

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        return _dtt(docs, k=5)

    def doc_decontaminate(sf_dir: str):
        """Benchmark decontamination (Brown et al. 2020 app. C shape):
        the ``source = 'src0'`` slice plays the held-out benchmark; its
        distinct word-4-grams are collected once under the edge cap and
        broadcast (``ray.put``) to a streaming flag pass over the rest
        of the corpus — no shuffle, no join on the corpus side. Grams
        use the RE2-exact ``\\s+`` tokenization so the DuckDB twin
        (explode + join + count) matches integer-exact."""
        import pyarrow.compute as pc

        from jamie_ray.functions.decontam import benchmark_ngram_set, decontaminate

        bench = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        ).map_batches(
            lambda b: b.filter(pc.equal(b.column("source"), "src0")).drop_columns(
                ["source"]
            ),
            batch_format="pyarrow",
        )
        grams = benchmark_ngram_set(bench, n=4)
        corpus = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
        ).map_batches(
            lambda b: b.filter(
                pc.not_equal(b.column("source"), "src0")
            ).drop_columns(["source"]),
            batch_format="pyarrow",
        )
        return decontaminate(corpus, grams, n=4)

    def kg_writers_out(sf_dir: str):
        """All three writer sinks (XML / brat / pmhs) in one
        registration: the tagged chunks are scored ONCE (materialized —
        ~1k rows at conformance scale), then each writer renders its
        view and the union is compared byte-exact against the
        generator-computed expected text, one row per (url, chunk_id,
        kind). Folding keeps every family inside the driver's 50-slot
        check window while preserving the three independent byte-exact
        oracles."""
        import pyarrow as pa

        from jamie_ray.stages.format_out import (
            tagged_to_brat_batch,
            tagged_to_xml_batch,
        )
        from jamie_ray.stages.pmhs import tagged_to_pmhs_batch

        corpus = _kg_dir(sf_dir)
        tagged = kg.score_chunks(
            kg.chunk_pages(
                kg.extracted_pages(kg.read_pages(f"{corpus}/pages.parquet"))
            )
        ).materialize()

        def view(render, picks):
            def out(b: pa.Table) -> pa.Table:
                b = render(b)
                urls, cids, kinds, payloads = [], [], [], []
                for kind, col in picks:
                    urls.extend(b.column("url").to_pylist())
                    cids.extend(
                        int(x) for x in b.column("chunk_id").to_pylist()
                    )
                    kinds.extend([kind] * b.num_rows)
                    payloads.extend(b.column(col).to_pylist())
                return pa.table(
                    {
                        "url": pa.array(urls, pa.string()),
                        "chunk_id": pa.array(cids, pa.int64()),
                        "kind": pa.array(kinds, pa.string()),
                        "payload": pa.array(payloads, pa.string()),
                    }
                )

            return out

        xml = tagged.map_batches(
            view(tagged_to_xml_batch, [("xml", "xml")]), batch_format="pyarrow"
        )
        brat = tagged.map_batches(
            view(
                tagged_to_brat_batch,
                [("brat_txt", "brat_txt"), ("brat_ann", "brat_ann")],
            ),
            batch_format="pyarrow",
        )
        pmhs = tagged.map_batches(
            view(tagged_to_pmhs_batch, [("pmhs", "pmhs")]),
            batch_format="pyarrow",
        )
        return xml.union(brat).union(pmhs)

    def bpe_merges(sf_dir: str):
        """Distributed BPE vocabulary training over the fixture
        paragraph corpus: the corpus-scale pass is the bucketed word
        count; the merge loop runs on the vocabulary-scale frequency
        table (functions/bpe.py). Trains on a deterministic sample
        (doc_id < fixtures.BPE_DOC_SAMPLE) — the standard
        tokenizer-training practice: a tokenizer is trained on a
        bounded sample, never the full corpus, so the driver merge
        loop stays O(sample vocabulary) at every scale. Oracle: the
        generator's INDEPENDENT occurrence-level replay
        (fixtures._bpe_expected — no shared frequency-table code)."""
        import pyarrow.compute as pc

        from jamie_ray.fixtures import (
            BPE_DOC_SAMPLE,
            BPE_MIN_FREQ,
            BPE_N_MERGES,
        )
        from jamie_ray.functions.bpe import train_bpe

        corpus = _kg_dir(sf_dir)
        docs = ray.data.read_parquet(
            f"{corpus}/documents_para.parquet", columns=["doc_id", "text"]
        ).map_batches(
            lambda b: b.filter(pc.less(b.column("doc_id"), BPE_DOC_SAMPLE)),
            batch_format="pyarrow",
        )
        # all three constants imported from fixtures so query and
        # oracle can never drift (FIXTURES.md §9); pruning metadata is
        # stripped so the driver's schema compare sees columns only
        return train_bpe(
            docs, n_merges=BPE_N_MERGES, min_freq=BPE_MIN_FREQ
        ).replace_schema_metadata(None)

    def docs_line_suite(sf_dir: str):
        """Folded line-level operator suite — two value-checked views
        in one 50-slot registration, distinguished by a ``view`` tag:

        - ``para``: cross-corpus keep-first paragraph dedup over the
          fixture paragraph corpus (planted boilerplate repeats,
          fixtures.py generate_docs_para);
        - ``c4``: C4-style line cleaning (Raffel et al. 2020 §2.2 —
          terminal punct / min words / javascript line rules, brace /
          lorem-ipsum / min-kept doc rules) over the planted
          ``documents_c4`` corpus, clean text compared BYTE-EXACT.

        Both oracles are PURE SQL: DuckDB recomputes the rules from
        the raw text (window functions / list lambdas) — fully
        independent of the engine's plan."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from jamie_ray.functions.text_analysis import c4_line_clean

        corpus = _kg_dir(sf_dir)

        def tag(ds, view: str):
            return ds.map_batches(
                lambda b, v=view: b.append_column(
                    "view", pa.array([v] * b.num_rows, pa.string())
                ),
                batch_format="pyarrow",
            )

        para = dedup_docs.paragraph_dedup(
            ray.data.read_parquet(
                f"{corpus}/documents_para.parquet", columns=["doc_id", "text"]
            )
        )
        c4 = c4_line_clean(
            ray.data.read_parquet(
                f"{corpus}/documents_c4.parquet", columns=["doc_id", "text"]
            )
        ).map_batches(
            # align to the para view's column names (n_paras = lines in,
            # n_dropped = lines removed by the line rules) and encode a
            # dropped doc as clean_text='' — the driver's row sort is
            # not null-safe, and ''-vs-kept is unambiguous because a
            # kept doc always has >= 3 non-blank lines
            lambda b: b.select(["doc_id"])
            .append_column(
                "clean_text",
                pc.coalesce(b.column("clean_text"), pa.scalar("", pa.string())),
            )
            .append_column("n_paras", b.column("n_lines"))
            .append_column(
                "n_dropped",
                pc.subtract(b.column("n_lines"), b.column("n_kept")),
            ),
            batch_format="pyarrow",
        )
        return tag(para, "para").union(tag(c4, "c4"))

    # ---- custom temporal operators ----

    def events_asof_orders(sf_dir: str):
        """As-of join: each event matched to the latest order of the
        same customer at or before the event time."""
        from jamie_ray.functions.temporal import asof_join
        import pyarrow as pa

        events = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_orderdate"],
        )
        out = asof_join(
            events, orders,
            left_key="user_id", right_key="o_custkey",
            left_ts="ts", right_ts="o_orderdate",
            right_cols=["o_orderkey", "o_orderdate"],
        )
        return out.map_batches(
            lambda b: pa.table(
                {
                    "event_id": b.column("event_id"),
                    "user_id": b.column("__key"),
                    "o_orderkey": b.column("o_orderkey"),
                    "o_orderdate": b.column("o_orderdate"),
                }
            ),
            batch_format="pyarrow",
        )

    def events_range_orders(sf_dir: str):
        """Range join: all orders of the same customer within the 10000
        days before each event."""
        from jamie_ray.functions.temporal import range_join
        import pyarrow as pa

        events = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_orderdate"],
        )
        out = range_join(
            events, orders,
            left_key="user_id", right_key="o_custkey",
            left_ts="ts", right_ts="o_orderdate",
            right_cols=["o_orderkey", "o_orderdate"],
            lower_seconds=-86400.0 * 10000, upper_seconds=0.0,
        )
        return out.map_batches(
            lambda b: pa.table(
                {
                    "event_id": b.column("event_id"),
                    "user_id": b.column("__key"),
                    "o_orderkey": b.column("o_orderkey"),
                }
            ),
            batch_format="pyarrow",
        )

    def events_hopping_window(sf_dir: str):
        """Hopping-window aggregate (§2.8 windowed aggregate): 2h
        windows hopping by 30min, count + exact value sum per
        (window_start, event_type)."""
        from jamie_ray.functions.temporal import hopping_window_agg

        events = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
        )
        return hopping_window_agg(
            events,
            size_seconds=7200.0,
            hop_seconds=1800.0,
            value_col="value",
            group_cols=["event_type"],
        )

    def events_sessionize(sf_dir: str):
        """Gap-based sessions (30 min) per user."""
        from jamie_ray.functions.temporal import sessionize

        events = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        )
        return sessionize(events, gap_minutes=30)

    # ---- mergeable sketches ----

    def events_sketches(sf_dir: str):
        """The whole mergeable-sketch family over events in ONE
        registered surface (long format: stat, key, value_f):

        - ``kmv_distinct``: KMV distinct users per event type — at
          conformance scale every group's distinct count is below k,
          so the sketch holds the whole hash set and is EXACT (oracle
          = plain COUNT(DISTINCT));
        - ``heavy_hitter``: exact frequent users via two-pass
          Misra-Gries (block summaries -> provable candidate superset
          -> exact second-pass counts), phi = 0.2%;
        - ``quantile``: exact distributed quantiles of the value
          column (sample -> exact-rank count -> bounded window select,
          no global sort).

        Folded into one slot because each result is tiny (driver-side
        concat of three sub-second sketches); the per-sketch functions
        remain the public API (``jamie_ray.functions.sketch``). All
        values are exactly integer-or-column-element doubles, so the
        cast loses nothing.
        """
        import pyarrow as pa

        from jamie_ray.functions.sketch import (
            heavy_hitters,
            kmv_distinct,
            quantiles_exact,
        )

        ev_tu = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
        )
        kmv = kmv_distinct(ev_tu, "event_type", "user_id", k=8192).take_all()
        ev_u = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
        hh = heavy_hitters(ev_u, "user_id", phi=0.002, k=1024).take_all()
        ev_v = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
        qt = quantiles_exact(ev_v, "value", [0.5, 0.9, 0.99])

        stats, keys, vals = [], [], []
        for r in kmv:
            stats.append("kmv_distinct")
            keys.append(str(r["event_type"]))
            vals.append(float(r["n_distinct"]))
        for r in hh:
            stats.append("heavy_hitter")
            keys.append(str(r["user_id"]))
            vals.append(float(r["n"]))
        for q, v in zip(qt.column("q").to_pylist(), qt.column("value").to_pylist()):
            stats.append("quantile")
            keys.append(f"{q:g}")
            vals.append(float(v))
        return pa.table(
            {
                "stat": pa.array(stats, pa.string()),
                "key": pa.array(keys, pa.string()),
                "value_f": pa.array(vals, pa.float64()),
            }
        )

    # ---- multimodal plumbing (deterministic fake decode) ----

    # sizes shared with fixtures.generate_media_expected so the planted
    # value oracles compare the exact same media set
    from jamie_ray.fixtures import (
        N_MEDIA_AUDIO,
        N_MEDIA_IMAGE,
        N_MEDIA_VIDEO,
        RESIZE_TARGET,
        VIDEO_STRIDE,
    )

    def _multimodal_image(sf_dir: str):
        """Image path: fake-decode -> resize -> features, exploded to
        scalar rows; value-checked against the generator's expected
        table (fixtures.generate_media_expected)."""
        media = ray.data.from_arrow(multimodal.synthetic_media(N_MEDIA_IMAGE))
        decoded = media.map_batches(
            multimodal.DecodeImage,
            fn_constructor_kwargs={"strict": False},
            concurrency=(1, 2),
            batch_size=32,
            batch_format="pyarrow",
        )
        resized = decoded.map_batches(
            lambda b: multimodal.resize_stub(b, RESIZE_TARGET), batch_format="pyarrow"
        )
        return resized.map_batches(
            multimodal.ImageFeatures, concurrency=(1, 2), batch_size=32,
            batch_format="pyarrow",
        ).map_batches(multimodal.explode_features, batch_format="pyarrow")

    def _multimodal_video(sf_dir: str):
        """Video path: frame sampling (every 4th frame) -> per-frame
        image features, exploded to scalar rows; value-checked against
        the generator's expected table."""
        media = ray.data.from_arrow(
            multimodal.synthetic_media(N_MEDIA_VIDEO, kind="video")
        )
        frames = media.map_batches(
            multimodal.SampleFrames,
            fn_constructor_kwargs={"stride": VIDEO_STRIDE, "strict": False},
            concurrency=(1, 2),
            batch_size=16,
            batch_format="pyarrow",
        )
        return frames.map_batches(
            multimodal.ImageFeatures, concurrency=(1, 2), batch_size=64,
            batch_format="pyarrow",
        ).map_batches(multimodal.explode_features, batch_format="pyarrow")

    def _multimodal_audio(sf_dir: str):
        """Audio path: fake-decode waveform -> windowed RMS/ZCR
        features, exploded to scalar rows; value-checked against the
        generator's expected table."""
        media = ray.data.from_arrow(
            multimodal.synthetic_media(N_MEDIA_AUDIO, kind="audio")
        )
        decoded = media.map_batches(
            multimodal.DecodeAudio,
            fn_constructor_kwargs={"strict": False},
            concurrency=(1, 2),
            batch_size=16,
            batch_format="pyarrow",
        )
        return decoded.map_batches(
            multimodal.AudioFeatures, concurrency=(1, 2), batch_size=32,
            batch_format="pyarrow",
        ).map_batches(multimodal.explode_features, batch_format="pyarrow")

    def multimodal_suite(sf_dir: str):
        """All three modality pipelines (image decode->resize->feature,
        video frame-sample->per-frame feature, audio decode->windowed
        RMS/ZCR) in one registered surface: the union of their exploded
        scalar rows tagged by ``modality``, with ``frame_idx = -1``
        where the modality has no frame axis. One slot, three
        value-checked actor-pool pipelines (each still exercises its
        own codec boundary, batch sizing and actor signature)."""
        import pyarrow as pa

        def tag(ds, modality: str, has_frame: bool):
            def add_cols(b: pa.Table) -> pa.Table:
                n = b.num_rows
                cols = {
                    "modality": pa.array([modality] * n, pa.string()),
                    "media_id": b.column("media_id"),
                    "frame_idx": (
                        b.column("frame_idx")
                        if has_frame
                        else pa.array([-1] * n, pa.int64())
                    ),
                    "feat_idx": b.column("feat_idx"),
                    "value": b.column("value"),
                }
                return pa.table(cols)

            return ds.map_batches(add_cols, batch_format="pyarrow")

        img = tag(_multimodal_image(sf_dir), "image", has_frame=False)
        vid = tag(_multimodal_video(sf_dir), "video", has_frame=True)
        aud = tag(_multimodal_audio(sf_dir), "audio", has_frame=False)
        return img.union(vid).union(aud)

    def customer_orders_join(sf_dir: str):
        """Both-sides-large distributed LEFT equi-join (the engine's
        general `hash_join`, `functions/join.py`): every (customer,
        order) pair plus a null-order row per orderless customer —
        exercising the sorted shuffle join AND outer-null semantics
        against the SQL oracle. No broadcast: both sides sort on the
        key and each sorted block joins with Arrow's hash join."""
        from jamie_ray.functions.join import hash_join

        cust = ray.data.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name", "c_mktsegment"],
        )
        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey"]
        )
        return hash_join(cust, orders, "c_custkey", right_on="o_custkey", how="left")

    # REGISTRATION INVARIANT (r3 verdict item 1): the graft driver
    # checks only the FIRST 50 queries() entries, so this dict must
    # stay at <= 50 registrations — every component family that would
    # otherwise overflow the window is folded into one registered
    # surface (kg_eval tasks, doc_analysis facets, events_sketches,
    # multimodal_suite) whose per-facet functions remain public API.
    # Count is asserted by tests/test_entry.py.
    reg = {
        # KG flagship stages
        "kg_extract_text": kg_extract_text,
        "kg_chunks": kg_chunks,
        "kg_entities": kg_entities,
        "kg_quarantine": kg_quarantine,
        "kg_triples": kg_triples,
        "kg_triples_pipeline_mode": kg_triples_pipeline_mode,
        "kg_conll_roundtrip": kg_conll_roundtrip,
        "kg_gold_xml_roundtrip": kg_gold_xml_roundtrip,
        "kg_brat_roundtrip": kg_brat_roundtrip,
        "kg_pmhs_roundtrip": kg_pmhs_roundtrip,
        "i2b2_triples": i2b2_triples,
        # kg_graph folded into kg_graph_surface (same 1,438-row
        # output; surface form is the fully value-checked one)
        "kg_graph_surface": kg_graph_surface,
        "kg_entity_degree": kg_entity_degree,
        "kg_eval": kg_eval,
        # similarity + multimodal next — never again past the window
        "knn_bruteforce": knn_bruteforce,
        "knn_lsh": knn_lsh,
        "knn_ivf": knn_ivf,
        "knn_ivf_indexed": knn_ivf_indexed,
        "embedding_dedup_suite": embedding_dedup_suite,
        "multimodal_suite": multimodal_suite,
        # dedup family
        "dedup_docs_exact": dedup_docs_exact,
        "doc_ngram_jaccard": doc_ngram_jaccard,
        "docs_minhash_clusters": docs_minhash_clusters,
        "docs_simhash_suite": docs_simhash_suite,
        "doc_pack_assignments": doc_pack_assignments,
        # text analysis
        "doc_analysis": rel.doc_analysis,
        "doc_winnow": doc_winnow,
        "doc_top_terms": doc_top_terms,
        # relational operator suite (testdata tables)
        "agg_pricing_summary": rel.agg_pricing_summary,
        "returnflag_counts": rel.returnflag_counts,
        "corpus_stats": rel.corpus_stats,
        "distinct_event_types": rel.distinct_event_types,
        "events_hourly": rel.events_hourly,
        "top_users_by_events": rel.top_users_by_events,
        "events_json_extract": rel.events_json_extract,
        "events_asof_orders": events_asof_orders,
        "events_range_orders": events_range_orders,
        "events_sessionize": events_sessionize,
        "events_hopping_window": events_hopping_window,
        "events_sketches": events_sketches,
        "top_orders": rel.top_orders,
        # filter_docs + union_docs folded into one slot (two tagged
        # views) to free the window slot doc_decontaminate now uses
        "docs_filter_union": rel.filter_union_docs,
        "doc_decontaminate": doc_decontaminate,
        # segment_revenue + nation_revenue folded into one kind-tagged
        # slot (r5) to free the window slot customer_orders_join uses
        "dim_revenue": rel.dim_revenue,
        "customer_orders_join": customer_orders_join,
        "shipping_priority": rel.shipping_priority,
        "top_customers_per_segment": rel.top_customers_per_segment,
        # writer sinks — value-oracled since r4 (expected strings come
        # from the generator's independent sentence-structure path)
        "kg_writers_out": kg_writers_out,
        "docs_line_suite": docs_line_suite,
        "bpe_merges": bpe_merges,
    }
    assert len(reg) <= 50, f"driver checks only 50 queries; got {len(reg)}"
    return reg


def oracle_sql() -> dict[str, str]:
    from jamie_ray.functions.text_analysis import (
        BPE_RE,
        CJK_RE,
        LATIN_RE,
        PUNCT_RE,
        STOPWORD_RE,
        TOKEN_RE,
    )

    # the KG oracles read the generator's expected tables; sizing must
    # match queries() (same _kg_dir logic, materialized here for every
    # sf the driver might use)
    def kg_sql(table: str, cols: str) -> str:
        # conformance runs at sf0.01 -> n=1200 (kept in sync with
        # _KG_PAGES); generate eagerly so the SQL is runnable even if
        # the driver executes oracles before queries
        d = _kg_dir("/root/testdata/sf0.01")
        return f"SELECT {cols} FROM read_parquet('{d}/{table}.parquet')"

    sq = r"\S"  # avoid f-string backslash pitfalls
    return {
        # ---- KG stages: oracles are the generator's independent tables
        "kg_extract_text": kg_sql("pages", "url, text"),
        "kg_chunks": kg_sql("expected_chunks", "url, chunk_id, text, n_subwords"),
        "kg_entities": kg_sql("expected_entities", "url, chunk_id, mention, ner_tag, mod"),
        "kg_quarantine": kg_sql("expected_quarantine", "url, error"),
        "kg_triples": kg_sql(
            "expected_triples",
            "subj, pred, obj, subj_type, obj_type, subj_mod, url, chunk_id",
        ),
        "kg_triples_pipeline_mode": kg_sql(
            "expected_triples",
            "subj, pred, obj, subj_type, obj_type, subj_mod, url, chunk_id",
        ),
        "kg_conll_roundtrip": kg_sql(
            "expected_triples",
            "subj, pred, obj, subj_type, obj_type, subj_mod, url, chunk_id",
        ),
        "kg_gold_xml_roundtrip": kg_sql(
            "expected_triples",
            "subj, pred, obj, subj_type, obj_type, subj_mod, url, chunk_id",
        ),
        "kg_brat_roundtrip": kg_sql(
            "expected_triples",
            "subj, pred, obj, subj_type, obj_type, subj_mod, url, chunk_id",
        ),
        "kg_pmhs_roundtrip": kg_sql(
            "expected_triples",
            "subj, pred, obj, subj_type, obj_type, url, chunk_id",
        ),
        # writer sinks (r4): expected output STRINGS computed by the
        # generator straight from sentence structure
        # (fixtures._expected_format_rows) — upgraded from no_oracle
        "kg_writers_out": (
            lambda d: f"""
            SELECT url, chunk_id::BIGINT AS chunk_id, 'xml' AS kind,
                   xml AS payload
            FROM read_parquet('{d}/expected_xml.parquet')
            UNION ALL
            SELECT url, chunk_id::BIGINT, 'brat_txt', brat_txt
            FROM read_parquet('{d}/expected_brat.parquet')
            UNION ALL
            SELECT url, chunk_id::BIGINT, 'brat_ann', brat_ann
            FROM read_parquet('{d}/expected_brat.parquet')
            UNION ALL
            SELECT url, chunk_id::BIGINT, 'pmhs', pmhs
            FROM read_parquet('{d}/expected_pmhs.parquet')
            """
        )(_kg_dir("/root/testdata/sf0.01")),
        "bpe_merges": kg_sql("expected_bpe_merges", "rank, lhs, rhs, freq"),
        "docs_line_suite": (
            lambda d: f"""
            WITH docs AS (
              SELECT doc_id, string_split(coalesce(text, ''), chr(10)) AS arr
              FROM read_parquet('{d}/documents_para.parquet')
            ),
            ex AS (
              SELECT doc_id, i.i AS idx, arr[i.i] AS para
              FROM docs,
                   LATERAL (SELECT unnest(generate_series(1, len(arr))) AS i) i
            ),
            marked AS (
              SELECT doc_id, idx, para,
                     -- blank = RE2-whitespace-only, the exact twin of
                     -- the engine's is_re2_blank (tab/lf/ff/cr/space)
                     (trim(para, chr(9)||chr(10)||chr(12)||chr(13)||' ') = ''
                     ) AS always_keep,
                     row_number() OVER (
                       PARTITION BY para ORDER BY doc_id, idx
                     ) AS rn
              FROM ex
            )
            SELECT doc_id,
                   coalesce(
                     string_agg(
                       CASE WHEN always_keep OR rn = 1 THEN para END,
                       chr(10) ORDER BY idx
                     ),
                     ''
                   ) AS clean_text,
                   count(*)::BIGINT AS n_paras,
                   sum(
                     CASE WHEN always_keep OR rn = 1 THEN 0 ELSE 1 END
                   )::BIGINT AS n_dropped,
                   'para' AS view
            FROM marked
            GROUP BY doc_id
            UNION ALL
            -- C4 line-cleaning twin (text_analysis.c4_line_clean):
            -- every rule recomputed from the raw text with list
            -- lambdas; clean_text compared BYTE-EXACT. The \\s in
            -- string_split_regex is RE2's [tab lf ff cr space] — the
            -- engine's word-run class; rtrim strips the same set
            -- minus lf (a split line cannot contain lf).
            SELECT doc_id,
                   CASE WHEN contains(text, '{{')
                          OR regexp_matches(
                               text, '[Ll][Oo][Rr][Ee][Mm] [Ii][Pp][Ss][Uu][Mm]')
                          OR len(kept) < 3
                        THEN ''
                        ELSE array_to_string(kept, chr(10)) END AS clean_text,
                   len(arr)::BIGINT AS n_paras,
                   (len(arr) - len(kept))::BIGINT AS n_dropped,
                   'c4' AS view
            FROM (
              SELECT doc_id, text, arr,
                     list_filter(arr, line ->
                       len(list_filter(
                             string_split_regex(line, '\\s+'), x -> x <> '')
                       ) >= 5
                       AND NOT regexp_matches(
                             line, '[Jj][Aa][Vv][Aa][Ss][Cc][Rr][Ii][Pp][Tt]')
                       AND (
                         ends_with(rtrim(line, chr(9)||chr(12)||chr(13)||' '), '.')
                         OR ends_with(rtrim(line, chr(9)||chr(12)||chr(13)||' '), '!')
                         OR ends_with(rtrim(line, chr(9)||chr(12)||chr(13)||' '), '?')
                         OR ends_with(rtrim(line, chr(9)||chr(12)||chr(13)||' '), '"')
                       )
                     ) AS kept
              FROM (
                SELECT doc_id, coalesce(text, '') AS text,
                       string_split(coalesce(text, ''), chr(10)) AS arr
                FROM read_parquet('{d}/documents_c4.parquet')
              )
            )
            """
        )(_kg_dir("/root/testdata/sf0.01")),
        "i2b2_triples": (lambda root: (
            __import__("jamie_ray.fixtures", fromlist=["write_i2b2_corpus"])
            .write_i2b2_corpus(root, 80)
            and f"SELECT subj, pred, obj, subj_type, obj_type, subj_mod, "
                f"url, chunk_id FROM read_parquet('{root}/expected_triples.parquet')"
        ))(os.path.join(_KG_ROOT, "i2b2_n80")),
        # dedup semantics in SQL: partition by the triple surface (=id
        # partition, since fixture linking is identity), representative =
        # lexicographic min over (provenance, attributes), n_sources =
        # occurrence count — exactly stages/dedup.py's rule
        "kg_graph_surface": f"""
            WITH ranked AS (
              SELECT subj, pred, obj, subj_type, obj_type, subj_mod, url, chunk_id,
                     row_number() OVER (
                       PARTITION BY subj, pred, obj
                       ORDER BY url, chunk_id, subj_mod, subj_type, obj_type
                     ) AS rn,
                     count(*) OVER (PARTITION BY subj, pred, obj) AS n_sources
              FROM read_parquet('{os.path.join(_KG_ROOT, "n1200")}/expected_triples.parquet')
            )
            SELECT subj, pred, obj, subj_type, obj_type, subj_mod,
                   n_sources, url, chunk_id
            FROM ranked WHERE rn = 1
        """,
        "kg_entity_degree": f"""
            SELECT subj, count(DISTINCT (pred, obj)) AS degree
            FROM read_parquet('{os.path.join(_KG_ROOT, "n1200")}/expected_triples.parquet')
            GROUP BY subj
            ORDER BY degree DESC, subj ASC LIMIT 20
        """,
        # the 1.0s are the P/R gate; n_gold is derived INDEPENDENTLY by
        # DuckDB from the generator tables (triples: every relation
        # tuple; entities: every mention; mod_*: the attribute task's
        # tag family — reference utils.py:1271-1277 — with the
        # evaluator's skip classes removed, clinical_eval.py:70), so a
        # wrong family selection or a dropped mention shows up as a
        # value mismatch, not just a sub-1.0 score
        "kg_eval": f"""
            WITH ents AS (
                SELECT * FROM read_parquet('{os.path.join(_KG_ROOT, "n1200")}/expected_entities.parquet')
            )
            SELECT 'triples' AS task, 1.0::DOUBLE AS p, 1.0::DOUBLE AS r, 1.0::DOUBLE AS f1,
                   (SELECT count(*) FROM read_parquet('{os.path.join(_KG_ROOT, "n1200")}/expected_triples.parquet')) AS n_gold
            UNION ALL
            SELECT 'entities', 1.0, 1.0, 1.0, (SELECT count(*) FROM ents)
            UNION ALL
            SELECT 'mod_cert', 1.0, 1.0, 1.0,
                   (SELECT count(*) FROM ents WHERE ner_tag IN ('d')
                    AND mod NOT IN ('N', 'O', '_', 'OO'))
            UNION ALL
            SELECT 'mod_ttype', 1.0, 1.0, 1.0,
                   (SELECT count(*) FROM ents WHERE ner_tag IN ('TIMEX3')
                    AND mod NOT IN ('N', 'O', '_', 'OO'))
            UNION ALL
            SELECT 'mod_state', 1.0, 1.0, 1.0,
                   (SELECT count(*) FROM ents WHERE ner_tag IN ('t-test', 'r', 'cc')
                    AND mod NOT IN ('N', 'O', '_', 'OO'))
        """,
        # ---- relational suite
        # money/metric sums use the exact-integer trick (floor(x*S+0.5)
        # per row, integer sum, single final division) so distributed
        # summation order cannot perturb the compared doubles
        "agg_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   sum(CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT))::DOUBLE / 100.0 AS sum_qty,
                   sum(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT))::DOUBLE / 100.0 AS sum_price,
                   (sum(CAST(floor(l_discount * 1000000.0 + 0.5) AS BIGINT))::DOUBLE / 1000000.0)
                       / count(*) AS avg_disc,
                   count(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "returnflag_counts": "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY l_returnflag",
        "corpus_stats": """
            SELECT lang, count(*) AS n_docs,
                   sum(n_chars)::DOUBLE / count(*) AS avg_chars,
                   min(n_chars) AS min_chars, max(n_chars) AS max_chars
            FROM documents GROUP BY lang
        """,
        "distinct_event_types": "SELECT DISTINCT event_type FROM events",
        "events_hourly": """
            SELECT date_trunc('hour', ts) AS hour, event_type,
                   count(*) AS n,
                   sum(CAST(floor(value * 1000000.0 + 0.5) AS BIGINT))::DOUBLE / 1000000.0 AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "events_json_extract": """
            SELECT event_type, count(*) AS n,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k
            FROM events GROUP BY event_type
        """,
        "events_asof_orders": """
            WITH j AS (
              SELECT e.event_id, e.user_id, o.o_orderkey, o.o_orderdate,
                     row_number() OVER (PARTITION BY e.event_id
                                        ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) rn
              FROM events e
              JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            )
            SELECT event_id, user_id, o_orderkey, o_orderdate FROM j WHERE rn = 1
        """,
        "events_range_orders": """
            SELECT e.event_id, e.user_id, o.o_orderkey
            FROM events e
            JOIN orders o ON o.o_custkey = e.user_id
             AND o.o_orderdate >= e.ts - INTERVAL 10000 DAY
             AND o.o_orderdate <= e.ts
        """,
        "events_sessionize": """
            SELECT event_id, user_id, ts,
                   CAST((sum(CASE WHEN prev_ts IS NULL OR epoch(ts - prev_ts) > 1800
                             THEN 1 ELSE 0 END)
                    OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) - 1) AS BIGINT) AS session_id
            FROM (
              SELECT event_id, user_id, ts,
                     lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
              FROM events
            )
        """,
        "events_hopping_window": """
            WITH ex AS (
              SELECT make_timestamp(k * 1800000000) AS window_start,
                     event_type,
                     CAST(floor(value * 1000000.0 + 0.5) AS BIGINT) AS val_s
              FROM events,
              -- explicit floor: DuckDB's // truncates toward zero, which
              -- diverges from the engine's numpy floor semantics for
              -- timestamps within size_seconds of the epoch
              LATERAL unnest(range(
                  CAST(floor((epoch_us(ts) - 7200000000) / 1800000000.0) AS BIGINT) + 1,
                  CAST(floor(epoch_us(ts) / 1800000000.0) AS BIGINT) + 1)) AS t(k)
            )
            SELECT window_start, event_type, count(*) AS n,
                   CAST(sum(val_s) AS BIGINT)::DOUBLE / 1000000.0 AS sum_value
            FROM ex GROUP BY 1, 2
        """,
        "events_sketches": """
            SELECT 'kmv_distinct' AS stat, event_type AS key,
                   count(DISTINCT user_id)::DOUBLE AS value_f
            FROM events GROUP BY event_type
            UNION ALL
            SELECT 'heavy_hitter', user_id::VARCHAR, count(*)::DOUBLE FROM events
            GROUP BY user_id
            HAVING count(*) >= CAST(ceil(0.002 * (SELECT count(*) FROM events)) AS BIGINT)
            UNION ALL
            SELECT 'quantile', fq, value FROM (
              WITH ranked AS (
                SELECT value, row_number() OVER (ORDER BY value) - 1 AS rk,
                       count(*) OVER () AS n
                FROM events
              )
              SELECT fq, value FROM ranked,
                     (VALUES ('0.5', 0.5), ('0.9', 0.9), ('0.99', 0.99)) t(fq, q)
              WHERE rk = CAST(floor(q * (n - 1)) AS BIGINT)
            )
        """,
        "top_users_by_events": """
            SELECT user_id, count(*) AS n_events,
                   sum(CAST(floor(value * 1000000.0 + 0.5) AS BIGINT))::DOUBLE / 1000000.0 AS sum_value
            FROM events GROUP BY user_id
            ORDER BY n_events DESC, user_id ASC LIMIT 20
        """,
        "top_orders": """
            SELECT o_orderkey, o_totalprice, o_orderdate FROM orders
            ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 100
        """,
        "docs_filter_union": """
            SELECT doc_id, lang, n_chars, 'filtered' AS view
            FROM documents WHERE n_chars >= 200 AND lang = 'en'
            UNION ALL
            SELECT doc_id, lang, n_chars, 'union' AS view
            FROM documents WHERE lang = 'en'
            UNION ALL
            SELECT doc_id, lang, n_chars, 'union' AS view
            FROM documents WHERE lang <> 'en' AND n_chars < 100
        """,
        "doc_decontaminate": r"""
            WITH tok AS (
              SELECT doc_id, source,
                     list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
              FROM documents
            ), grams AS (
              SELECT doc_id, source,
                     CASE WHEN len(w) = 0 THEN []::VARCHAR[]
                          WHEN len(w) <= 4 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(w) - 2),
                                 i -> array_to_string(w[i:i+3], ' ')))
                     END AS g
              FROM tok
            ), bench AS (
              SELECT DISTINCT unnest(g) AS g FROM grams WHERE source = 'src0'
            ), corpus AS (
              SELECT doc_id, g FROM grams WHERE source <> 'src0'
            ), hits AS (
              SELECT e.doc_id, count(*) AS n_hits
              FROM (SELECT doc_id, unnest(g) AS g FROM corpus) e
              JOIN bench b USING (g)
              GROUP BY e.doc_id
            )
            SELECT c.doc_id,
                   len(c.g) AS n_grams,
                   coalesce(h.n_hits, 0) AS n_hits,
                   CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END AS contaminated
            FROM corpus c LEFT JOIN hits h ON c.doc_id = h.doc_id
        """,
        "dim_revenue": """
            SELECT 'segment' AS view, c.c_mktsegment AS dim_key,
                   sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT))::DOUBLE / 100.0 AS revenue,
                   count(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
            UNION ALL
            SELECT 'nation' AS view, n.n_name AS dim_key,
                   sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT))::DOUBLE / 100.0 AS revenue,
                   count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "customer_orders_join": """
            SELECT c.c_custkey, c.c_name, c.c_mktsegment, o.o_orderkey
            FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
        """,
        "shipping_priority": """
            SELECT l.l_orderkey, o.o_orderdate,
                   sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0 + 0.5)
                            AS BIGINT))::DOUBLE / 100.0 AS revenue
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1998-01-01'
            GROUP BY l.l_orderkey, o.o_orderdate
            ORDER BY revenue DESC, l.l_orderkey ASC LIMIT 10
        """,
        "top_customers_per_segment": """
            SELECT c_custkey, c_mktsegment, c_acctbal FROM (
              SELECT c_custkey, c_mktsegment, c_acctbal,
                     row_number() OVER (PARTITION BY c_mktsegment
                                        ORDER BY c_acctbal DESC, c_custkey ASC) rn
              FROM customer
            ) WHERE rn <= 3
        """,
        # ---- text analysis (regexes shared with the Arrow kernels)
        "doc_analysis": rf"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '{TOKEN_RE}')) AS n_tokens,
                   len(regexp_extract_all(text, '{BPE_RE}')) AS n_bpe,
                   CASE
                     WHEN length(text) = 0 THEN ''
                     WHEN len(regexp_extract_all(text, '{CJK_RE}'))::DOUBLE
                          / greatest(length(text), 1) > 0.2 THEN 'ja'
                     WHEN len(regexp_extract_all(text, '{LATIN_RE}'))::DOUBLE
                          / greatest(length(text), 1) > 0.5 THEN 'en'
                     ELSE 'other'
                   END AS lang_pred,
                   CAST(floor((
                     least(length(text)::DOUBLE / 500.0, 1.0) * 0.4
                     + (1.0 - len(regexp_extract_all(text, '{PUNCT_RE}'))::DOUBLE
                              / greatest(length(text), 1)) * 0.3
                     + least(len(regexp_extract_all(text, '{STOPWORD_RE}'))::DOUBLE
                             / 5.0, 1.0) * 0.3
                   ) * 1000000.0 + 0.5) AS BIGINT) AS quality_micro,
                   md5(text) AS text_hash,
                   coalesce(r2.top2gram_micro, 0) AS top2gram_micro,
                   coalesce(r3.dup3gram_micro, 0) AS dup3gram_micro,
                   -- Gopher quality signals (Rae et al. 2021 A1.1),
                   -- integer-exact twins of gopher_quality_batch:
                   -- products and floor division only, no float path
                   CASE WHEN gq.n_tok = 0 THEN 0
                        ELSE (length(text) - gq.nblank) * 1000000 // gq.n_tok
                   END AS mean_word_len_micro,
                   CASE WHEN gq.n_tok = 0 THEN 0
                        ELSE ((length(text) - length(replace(text, '#', '')))
                             + (length(text) - length(replace(text, '...', ''))) // 3
                             + (length(text) - length(replace(text, '…', ''))))
                             * 1000000 // gq.n_tok
                   END AS symbol_word_micro,
                   CASE WHEN gq.n_tok = 0 THEN 0
                        ELSE len(list_filter(
                               string_split_regex(text, '\s+'),
                               x -> x <> '' AND regexp_matches(x, '[A-Za-z]')))
                             * 1000000 // gq.n_tok
                   END AS alpha_word_micro,
                   len(list_filter(string_split(text, chr(10)), l ->
                       starts_with(ltrim(l, chr(9)||chr(12)||chr(13)||' '), '•')
                       OR starts_with(ltrim(l, chr(9)||chr(12)||chr(13)||' '), '- ')
                       OR starts_with(ltrim(l, chr(9)||chr(12)||chr(13)||' '), '* ')))
                       * 1000000
                       // greatest(len(string_split(text, chr(10))), 1)
                       AS bullet_line_micro,
                   len(list_filter(string_split(text, chr(10)), l ->
                       ends_with(rtrim(l, chr(9)||chr(12)||chr(13)||' '), '...')
                       OR ends_with(rtrim(l, chr(9)||chr(12)||chr(13)||' '), '…')))
                       * 1000000
                       // greatest(len(string_split(text, chr(10))), 1)
                       AS ellipsis_line_micro
            FROM documents
            JOIN (
              SELECT doc_id,
                     len(regexp_extract_all(text, '\S+')) AS n_tok,
                     len(regexp_extract_all(text, '\s')) AS nblank
              FROM documents
            ) gq USING (doc_id)
            LEFT JOIN (
              -- most frequent token 2-gram's char coverage, micro
              -- units, integer floor division (bit-exact twin of
              -- functions/text_analysis.py repetition_batch)
              WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split_regex(text, '\s+'),
                                   x -> x <> '') AS w
                FROM documents
              ), g2 AS (
                SELECT doc_id, w[i.i] AS a, w[i.i + 1] AS b,
                       list_sum(list_transform(w, x -> length(x))) AS total_chars
                FROM toks,
                     LATERAL (SELECT unnest(range(1, len(w))) AS i) i
              ), cnt AS (
                SELECT doc_id, a, b, total_chars, count(*) AS c
                FROM g2 GROUP BY doc_id, a, b, total_chars
              ), best AS (
                SELECT doc_id,
                       CAST(c * (length(a) + length(b)) * 1000000
                            // total_chars AS BIGINT) AS top2gram_micro,
                       row_number() OVER (
                         PARTITION BY doc_id
                         ORDER BY c DESC, a || ' ' || b ASC
                       ) AS rn
                FROM cnt
              )
              SELECT doc_id, top2gram_micro FROM best WHERE rn = 1
            ) r2 USING (doc_id)
            LEFT JOIN (
              -- fraction of 3-gram occurrences that are repeats
              WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split_regex(text, '\s+'),
                                   x -> x <> '') AS w
                FROM documents
              )
              SELECT doc_id,
                     CASE WHEN len(w) < 3 THEN 0
                          ELSE ((len(w) - 2)
                                - len(list_distinct(list_transform(
                                    range(1, len(w) - 1),
                                    i -> w[i] || chr(31) || w[i+1]
                                         || chr(31) || w[i+2]))))
                               * 1000000 // (len(w) - 2)
                     END AS dup3gram_micro
              FROM toks
            ) r3 USING (doc_id)
        """,
        # tokenisation twin of functions/index.py (_WS_SPLIT_RE): both
        # sides split on \s+ and drop empties; ordering keys are all
        # integers/strings, so row_number() matches bit-for-bit
        "doc_top_terms": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(text, '\s+'),
                                        x -> x <> '')) AS term
              FROM documents
            ), tf AS (
              SELECT doc_id, term, count(*) AS tf
              FROM toks GROUP BY doc_id, term
            ), dfs AS (
              SELECT term, count(DISTINCT doc_id) AS df
              FROM toks GROUP BY term
            )
            SELECT doc_id, term, tf, df, rank FROM (
              SELECT t.doc_id, t.term, t.tf, d.df,
                     row_number() OVER (PARTITION BY t.doc_id
                       ORDER BY t.tf DESC, d.df ASC, t.term ASC) AS rank
              FROM tf t JOIN dfs d ON t.term = d.term
            ) WHERE rank <= 5
        """,
        # ---- dedup / similarity
        "dedup_docs_exact": """
            SELECT md5(text) AS text_hash, min(doc_id) AS doc_id, count(*) AS n_dups
            FROM documents GROUP BY md5(text)
        """,
        "doc_ngram_jaccard": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
              FROM documents
            ), halves AS (
              SELECT doc_id, w, w[1:len(w)//2] AS h FROM toks
            ), sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) = 0 THEN []::VARCHAR[]
                          WHEN len(w) <= 3 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(w) - 1),
                                 i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                     END AS s_full,
                     CASE WHEN len(h) = 0 THEN []::VARCHAR[]
                          WHEN len(h) <= 3 THEN [array_to_string(h, ' ')]
                          ELSE list_distinct(list_transform(range(1, len(h) - 1),
                                 i -> h[i] || ' ' || h[i+1] || ' ' || h[i+2]))
                     END AS s_half
              FROM halves
            )
            SELECT doc_id,
                   CASE WHEN len(list_intersect(s_half, s_full)) = 0 THEN 0.0
                        ELSE len(list_intersect(s_half, s_full))::DOUBLE
                             / len(list_distinct(list_concat(s_half, s_full)))
                   END AS half_jaccard
            FROM sh
        """,
        "knn_bruteforce": """
            WITH q AS (SELECT embedding::DOUBLE[] AS embedding FROM embeddings WHERE vec_id = 0)
            SELECT e.vec_id,
                   round(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding), 6) AS score
            FROM embeddings e, q
            ORDER BY score DESC, e.vec_id ASC LIMIT 10
        """,
        # planted-fixture oracles: the generator computes the expected
        # outputs independently (brute force / component closure over
        # the planted sets) — see fixtures.generate_embeddings /
        # generate_docs_nd for the exactness arguments
        "embedding_dedup_suite": (
            "SELECT 'pair' AS kind, id_a AS a, id_b AS b, cosine AS c FROM "
            + kg_sql("expected_near_dup", "*").split(" FROM ")[1]
            + " UNION ALL SELECT 'sem', vec_id, dup_of, CAST(cluster AS DOUBLE) FROM "
            + kg_sql("expected_semantic_dedup", "*").split(" FROM ")[1]
        ),
        "knn_lsh": kg_sql("expected_knn_lsh", "vec_id, score"),
        "knn_ivf": kg_sql("expected_knn_ivf", "vec_id, score"),
        # identical result contract: the indexed probe reads only the
        # probed partitions but scores the same candidate set
        "knn_ivf_indexed": kg_sql("expected_knn_ivf", "vec_id, score"),
        "docs_minhash_clusters": (
            lambda d: f"""
            SELECT doc_id, cluster_id, 'driver' AS variant
            FROM read_parquet('{d}/expected_minhash_clusters.parquet')
            UNION ALL
            SELECT doc_id, cluster_id, 'distributed_cc' AS variant
            FROM read_parquet('{d}/expected_minhash_clusters.parquet')
            """
        )(_kg_dir("/root/testdata/sf0.01")),
        "docs_simhash_suite": (
            lambda d: f"""
            SELECT 'sig' AS kind, doc_id AS a, simhash AS b, -1::BIGINT AS c
            FROM read_parquet('{d}/expected_simhash_sigs.parquet')
            UNION ALL
            SELECT 'pair', id_a, id_b, hamming
            FROM read_parquet('{d}/expected_simhash_pairs.parquet')
            """
        )(_kg_dir("/root/testdata/sf0.01")),
        "doc_pack_assignments": """
            WITH toks AS (
              SELECT doc_id,
                     len(list_filter(string_split_regex(text, '\\s+'),
                                     x -> x <> '')) AS n
              FROM documents
            ), offs AS (
              SELECT doc_id, n,
                     CAST(COALESCE(SUM(n) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ), 0) AS BIGINT) AS f
              FROM toks WHERE n > 0
            ), ex AS (
              SELECT doc_id, f, n,
                     unnest(generate_series(f // 32, (f + n - 1) // 32)) AS seq_id
              FROM offs
            )
            SELECT seq_id, doc_id,
                   GREATEST(f, seq_id * 32) - f AS tok_start,
                   LEAST(f + n, (seq_id + 1) * 32) - f AS tok_end,
                   GREATEST(f, seq_id * 32) - seq_id * 32 AS seq_tok_start
            FROM ex
        """,
        "doc_winnow": kg_sql("expected_winnow", "doc_id, pos, fingerprint"),
        "multimodal_suite": f"""
            SELECT 'image' AS modality, media_id, -1::BIGINT AS frame_idx,
                   feat_idx, value
            FROM read_parquet('{_kg_dir("/root/testdata/sf0.01")}/expected_media_features.parquet')
            UNION ALL
            SELECT 'video', media_id, frame_idx, feat_idx, value
            FROM read_parquet('{_kg_dir("/root/testdata/sf0.01")}/expected_video_features.parquet')
            UNION ALL
            SELECT 'audio', media_id, -1::BIGINT, feat_idx, value
            FROM read_parquet('{_kg_dir("/root/testdata/sf0.01")}/expected_audio_features.parquet')
        """,
        # every registered query carries an exact oracle — the writer
        # sinks (kg_xml_out / kg_brat_out / kg_pmhs_out) compare
        # byte-exact against generator-computed expected text, and
        # knn_lsh is deterministic on the planted corpus
    }
