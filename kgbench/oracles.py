"""Output checks, one per workload. Each returns a list of error
strings; an empty list means the output is correct.

The oracles are independent of the engine's code paths: the generator's
expected tables (computed from sentence structure), DuckDB SQL over the
raw inputs, and set algebra over the planted document corpus.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa

TRIPLE_COLS = [
    "subj", "pred", "obj", "subj_type", "obj_type", "subj_mod", "url", "chunk_id",
]
SKIP_CLASSES = ("N", "O", "_", "OO")


def _sorted(table: pa.Table, cols: list[str]) -> pa.Table:
    t = table.select(cols)
    return t.sort_by([(c, "ascending") for c in cols])


def check_triples(got: pa.Table, expected: pa.Table) -> list[str]:
    """The streamed triple multiset equals the generator's oracle."""
    missing = [c for c in TRIPLE_COLS if c not in got.column_names]
    if missing:
        return [f"triples: missing columns {missing}"]
    g = _sorted(got, TRIPLE_COLS)
    e = _sorted(expected, TRIPLE_COLS).cast(g.schema)
    if g.num_rows != e.num_rows:
        return [f"triples: {g.num_rows} rows, expected {e.num_rows}"]
    if not g.equals(e):
        return ["triples: multiset differs from expected_triples"]
    return []


def check_graph(got: pa.Table, expected: pa.Table) -> list[str]:
    """The materialized graph, read in file order, is sorted on
    (subj_id, pred, obj_id) and equals the generator's expected graph."""
    key = ["subj_id", "pred", "obj_id"]
    cols = expected.column_names
    missing = [c for c in cols if c not in got.column_names]
    if missing:
        return [f"graph: missing columns {missing}"]
    errors = []
    g = got.select(cols)
    if not g.equals(g.sort_by([(c, "ascending") for c in key])):
        errors.append("graph: rows are not sorted on (subj_id, pred, obj_id)")
    e = _sorted(expected, key + [c for c in cols if c not in key]).select(cols)
    if g.num_rows != e.num_rows:
        errors.append(f"graph: {g.num_rows} rows, expected {e.num_rows}")
    elif not _sorted(g, key + [c for c in cols if c not in key]).select(
        cols
    ).equals(e.cast(g.schema)):
        errors.append("graph: rows differ from expected_graph")
    return errors


_QUALITY_SQL = r"""
WITH toks AS (
  SELECT doc_id, text,
         len(regexp_extract_all(text, '\S+')) AS n_tokens,
         list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
  FROM docs
), q AS (
  SELECT doc_id, text, n_tokens,
         CASE WHEN len(w) < 3 THEN 0
              ELSE ((len(w) - 2)
                    - len(list_distinct(list_transform(
                        range(1, len(w) - 1),
                        i -> w[i] || chr(31) || w[i+1] || chr(31) || w[i+2]))))
                   * 1000000 // (len(w) - 2)
         END AS dup3gram_micro
  FROM toks
)
SELECT count(*) AS n_quality, count(DISTINCT text) AS n_exact
FROM q
WHERE n_tokens >= {min_tokens} AND dup3gram_micro <= {max_dup3gram}
"""


def clean_expected(docs: pa.Table) -> dict:
    """DuckDB replay of the default quality gate + exact dedup counts."""
    from jamie_ray.pipelines.clean import DEFAULT_MAX_DUP3GRAM, DEFAULT_MIN_TOKENS

    con = duckdb.connect()
    try:
        con.register("docs", docs)
        n_quality, n_exact = con.execute(
            _QUALITY_SQL.format(
                min_tokens=DEFAULT_MIN_TOKENS, max_dup3gram=DEFAULT_MAX_DUP3GRAM
            )
        ).fetchone()
    finally:
        con.close()
    return {"n_input": docs.num_rows, "n_after_quality": n_quality, "n_after_exact": n_exact}


def check_clean(
    stats: dict, survivor_ids: list[int], expected: dict, expected_ids: list[int]
) -> list[str]:
    errors = [
        f"clean: {k}={stats.get(k)}, expected {v}"
        for k, v in expected.items()
        if stats.get(k) != v
    ]
    got = sorted(survivor_ids)
    if got != sorted(expected_ids):
        extra = sorted(set(got) - set(expected_ids))[:5]
        lost = sorted(set(expected_ids) - set(got))[:5]
        errors.append(
            f"clean: surviving doc_ids differ (extra {extra}, missing {lost}, "
            f"{len(got)} vs {len(expected_ids)})"
        )
    if stats.get("n_after_near_dup") != len(got):
        errors.append(
            f"clean: n_after_near_dup={stats.get('n_after_near_dup')} but "
            f"{len(got)} documents came out"
        )
    return errors


_EVAL_SQL = """
WITH g AS (
  SELECT url, chunk_id, subj, obj, pred, count(*) AS n FROM gold
  WHERE pred NOT IN {skip} GROUP BY ALL
), p AS (
  SELECT url, chunk_id, subj, obj, pred, count(*) AS n FROM pred
  WHERE pred NOT IN {skip} GROUP BY ALL
)
SELECT coalesce(g.pred, p.pred) AS cls,
       sum(least(coalesce(g.n, 0), coalesce(p.n, 0)))::BIGINT AS tps,
       sum(coalesce(p.n, 0) - least(coalesce(g.n, 0), coalesce(p.n, 0)))::BIGINT AS fps,
       sum(coalesce(g.n, 0) - least(coalesce(g.n, 0), coalesce(p.n, 0)))::BIGINT AS fns
FROM g FULL OUTER JOIN p
  ON g.url = p.url AND g.chunk_id = p.chunk_id AND g.subj = p.subj
 AND g.obj = p.obj AND g.pred = p.pred
GROUP BY 1 ORDER BY 1
"""


def _prf(tps: int, fps: int, fns: int) -> tuple[float, float, float]:
    p = 0.0 if not (tps + fps) else tps / (tps + fps)
    r = 0.0 if not (tps + fns) else tps / (tps + fns)
    return p, r, (0.0 if not (p + r) else 2 * p * r / (p + r))


def eval_expected(gold: pa.Table, pred: pa.Table) -> dict:
    """Per-class multiset match per (url, chunk_id) in DuckDB."""
    con = duckdb.connect()
    try:
        con.register("gold", gold)
        con.register("pred", pred)
        rows = con.execute(_EVAL_SQL.format(skip=SKIP_CLASSES)).fetchall()
    finally:
        con.close()
    per_class = {cls: (tps, fps, fns) for cls, tps, fps, fns in rows}
    totals = tuple(sum(v[i] for v in per_class.values()) for i in range(3))
    return {"per_class": per_class, "counts": totals, "micro": _prf(*totals)}


def check_eval(result: dict, expected: dict) -> list[str]:
    errors = []
    counts = result.get("counts", {})
    got_counts = (counts.get("tps"), counts.get("fps"), counts.get("fns"))
    if got_counts != expected["counts"]:
        errors.append(f"eval: counts {got_counts}, expected {expected['counts']}")
    got_classes = {
        cls: tuple(v[3:6]) for cls, v in result.get("per_class", {}).items()
    }
    if got_classes != expected["per_class"]:
        errors.append("eval: per-class counts differ from the DuckDB match")
    if tuple(result.get("micro", ())) != expected["micro"]:
        errors.append(
            f"eval: micro P/R/F1 {result.get('micro')}, expected {expected['micro']}"
        )
    return errors
