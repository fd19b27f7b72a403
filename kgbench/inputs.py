"""Seeded benchmark inputs, generated outside every timed region.

Two corpora, each in two layers:

- a **base** table whose content depends only on its size (the repo's
  deterministic fixture generators), cached under ``.cache/`` keyed by
  (kind, size, fixture version);
- a **layout** of that table for one seed: the rows in a seeded order,
  cut into ``N_FILES`` equal parquet files, cached keyed by (kind,
  size, seed).

The seed changes only row order and so which rows share a file (plus
the perturbation of the ``triples_eval`` predictions), so every
layout-invariant output must equal the same oracle for every seed.
"""

from __future__ import annotations

import os
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
N_FILES = 8

# documents corpus: planted cleaning cases appended to the near-dup
# fixture (every kind below is dropped by exactly one clean stage)
_SHORT_EVERY = 17  # < 5 tokens: quality gate
_REPEAT_EVERY = 19  # > 50% repeated 3-grams: quality gate
_COPY_EVERY = 11  # verbatim copy of an earlier singleton: exact dedup
_BOILER_EVERY = 3  # singleton gets boilerplate paragraphs: paragraph dedup
_N_BOILER = 16


def _fixture_version() -> int:
    from jamie_ray.fixtures import FIXTURE_VERSION

    return FIXTURE_VERSION


def _atomic_dir(path: str, write) -> str:
    """Run ``write(tmp_dir)`` and rename the result to ``path``; a
    killed generation leaves only a ``.tmp`` directory behind."""
    if os.path.isdir(path):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    write(tmp)
    os.replace(tmp, path)
    return path


def pages_base(n_pages: int) -> str:
    """Directory with ``pages``, ``expected_triples`` and
    ``expected_graph`` parquet for the synthetic web-page corpus."""
    path = os.path.join(CACHE_DIR, f"pages-n{n_pages}-v{_fixture_version()}")

    def write(tmp):
        from jamie_ray import fixtures

        tables = fixtures.generate(n_pages)
        for name in ("pages", "expected_triples", "expected_graph"):
            pq.write_table(tables[name], os.path.join(tmp, f"{name}.parquet"))

    return _atomic_dir(path, write)


def docs_base(n_docs: int) -> str:
    """Directory with ``documents`` and ``expected_survivors`` parquet.

    Content: the near-dup fixture (disjoint per-document vocabularies,
    planted minhash groups with exact expected clusters) plus planted
    short, repetitive and copied documents and shared boilerplate
    paragraphs. ``expected_survivors`` is known by construction: every
    near-dup cluster representative survives, nothing else does.
    """
    path = os.path.join(CACHE_DIR, f"docs-n{n_docs}-v{_fixture_version()}")

    def write(tmp):
        from jamie_ray import fixtures

        nd = fixtures.generate_docs_nd(n_docs)
        docs = nd["documents_nd"]
        clusters = nd["expected_minhash_clusters"]
        ids = docs.column("doc_id").to_pylist()
        texts = docs.column("text").to_pylist()
        cluster_of = dict(
            zip(ids, clusters.column("cluster_id").to_pylist())
        )
        survivors = [d for d in ids if cluster_of[d] == d]
        in_group = {c for d, c in cluster_of.items() if c != d}
        singletons = [d for d in survivors if d not in in_group]
        boiler = [
            " ".join(f"bp{j}t{k}" for k in range(6 + j % 5))
            for j in range(_N_BOILER)
        ]
        # boilerplate paragraphs only on singletons: near-dup group
        # members keep the exact texts their expected clusters were
        # computed from
        for k, d in enumerate(singletons):
            if k % _BOILER_EVERY == 0:
                toks = texts[d].split(" ")
                cut = len(toks) // 2
                texts[d] = "\n".join(
                    [
                        boiler[k % _N_BOILER],
                        " ".join(toks[:cut]),
                        " ".join(toks[cut:]),
                        boiler[(k // _N_BOILER + k) % _N_BOILER],
                    ]
                )
        extra: list[str] = []
        for k in range(len(ids)):
            if k % _SHORT_EVERY == 0:
                extra.append(" ".join(f"s{k}w{j}" for j in range(1 + k % 4)))
            if k % _REPEAT_EVERY == 0:
                extra.append(" ".join([f"r{k}a r{k}b r{k}c"] * (4 + k % 5)))
            if k % _COPY_EVERY == 0:
                extra.append(texts[singletons[k % len(singletons)]])
        next_id = max(ids) + 1
        all_ids = ids + list(range(next_id, next_id + len(extra)))
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(all_ids, pa.int64()),
                    "text": pa.array(texts + extra, pa.string()),
                }
            ),
            os.path.join(tmp, "documents.parquet"),
        )
        pq.write_table(
            pa.table({"doc_id": pa.array(sorted(survivors), pa.int64())}),
            os.path.join(tmp, "expected_survivors.parquet"),
        )

    return _atomic_dir(path, write)


def _write_layout(table: pa.Table, out_dir: str, seed: int) -> None:
    rng = random.Random(seed)
    order = list(range(table.num_rows))
    rng.shuffle(order)
    shuffled = table.take(pa.array(order, pa.int64()))
    # equal-sized files: the seed decides which rows share a file, not
    # how large the engine's first read block is (that would move
    # first_batch_s with the seed)
    n_files = min(N_FILES, max(1, table.num_rows))
    bounds = [table.num_rows * k // n_files for k in range(n_files + 1)]
    for k in range(n_files):
        lo, hi = bounds[k], bounds[k + 1]
        pq.write_table(
            shuffled.slice(lo, hi - lo),
            os.path.join(out_dir, f"part-{k:02d}.parquet"),
        )


def layout(kind: str, n: int, seed: int) -> str:
    """Seeded multi-file layout of the base table of ``kind``
    (``pages`` or ``docs``); returns the directory of parquet files."""
    if kind == "pages":
        src = os.path.join(pages_base(n), "pages.parquet")
    elif kind == "docs":
        src = os.path.join(docs_base(n), "documents.parquet")
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    path = os.path.join(
        CACHE_DIR, f"{kind}-n{n}-v{_fixture_version()}-seed{seed}"
    )
    return _atomic_dir(
        path, lambda tmp: _write_layout(pq.read_table(src), tmp, seed)
    )


def perturbed_predictions(gold: pa.Table, seed: int) -> pa.Table:
    """Seeded noisy copy of ``gold``: rows dropped, predicates changed
    (a few to the skipped ``N`` class) and rows duplicated — every path
    of the multiset matcher is hit."""
    from jamie_ray.mockmodel import REL_VOCAB

    rng = random.Random(seed)
    preds = gold.column("pred").to_pylist()
    take: list[int] = []
    new_pred: list[str] = []
    for i, p in enumerate(preds):
        r = rng.random()
        if r < 0.08:
            continue  # dropped: a false negative
        if r < 0.16:
            p = rng.choice([q for q in REL_VOCAB if q != p])
        elif r < 0.18:
            p = "N"  # skipped class: neither fp nor fn
        take.append(i)
        new_pred.append(p)
        if rng.random() < 0.05:  # duplicate: one extra false positive
            take.append(i)
            new_pred.append(p)
    out = gold.take(pa.array(take, pa.int64()))
    col = out.schema.get_field_index("pred")
    return out.set_column(col, "pred", pa.array(new_pred, pa.string()))


def eval_inputs(n_pages: int, seed: int) -> tuple[str, str]:
    """(gold path, pred path): gold is the page corpus's expected
    triples, pred its seeded perturbation, each in a seeded row order."""
    gold = pq.read_table(os.path.join(pages_base(n_pages), "expected_triples.parquet"))
    path = os.path.join(
        CACHE_DIR, f"eval-n{n_pages}-v{_fixture_version()}-seed{seed}"
    )

    def write(tmp):
        pred = perturbed_predictions(gold, seed)
        for name, t in (("gold", gold), ("pred", pred)):
            os.makedirs(os.path.join(tmp, name))
            _write_layout(t, os.path.join(tmp, name), seed)

    _atomic_dir(path, write)
    return os.path.join(path, "gold"), os.path.join(path, "pred")
