"""Entity linking / canonicalization (new per north rule; SURVEY.md J5).

Mention surfaces -> canonical entity ids, in four moves:

1. **surface normalization** — width-fold + casefold (pure kernel);
2. **minhash-LSH blocking** — character-shingle minhash signatures,
   banded; a ``shuffle.sorted_reduce`` on ``band_key`` is shuffle #1 of
   the physical plan (SURVEY.md §4), and one kernel call per sorted
   block walks that block's band runs. Hot bands are salted by
   truncation: a band group is processed at most ``max_group``
   surfaces (sorted, deterministic) — beyond that the band is too
   unselective to be evidence anyway;
3. **pair verification** — exact shingle-set Jaccard >= ``threshold``
   inside each band group; surviving edges are few by construction and
   are collected to the driver;
4. **union-find merge** (driver) -> canonical map broadcast via
   ``ray.put`` -> stateless ``map_batches`` id rewrite.

Partitioning assumption (documented per the custom-operator rule): a
candidate pair must share at least one band key — standard LSH recall;
the shuffle key is the band hash, and the edge list fits on the driver
because verification culls everything below ``threshold``.

Scale bound: both the edge list and the canonical map grow with the
distinct-surface VOCABULARY (Heaps' law), not the corpus, and the map
must reach every rewrite worker anyway — so the driver union-find is
not the scaling bottleneck here. If a pathological vocabulary ever
trips the edge cap, ``functions/graph.py::connected_components`` is
the drop-in distributed merge (same min-key root semantics over
``entity_id`` hashes; see ``minhash_clusters(cc="distributed")`` for
the wiring pattern).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa

import ray

from ..hashing import mix64_multi, stable_hash64, stable_hash64_signed
from ..shuffle import run_bounds, sorted_reduce
from ..state.union_find import UnionFind
from ..textnorm import zen_to_han

N_HASHES = 32
N_BANDS = 8  # 8 bands x 4 rows
ROWS_PER_BAND = N_HASHES // N_BANDS
SHINGLE_K = 3
DEFAULT_THRESHOLD = 0.6
DEFAULT_MAX_GROUP = 64


def normalize_surface(s: str) -> str:
    """Canonical comparison form: half-width fold + casefold."""
    return zen_to_han(s, kana=False).casefold()


def entity_id(surface: str) -> int:
    """Stable pre-linking entity id of a mention surface."""
    return stable_hash64_signed("ent", normalize_surface(surface))


def _shingles(norm: str) -> set[str]:
    if len(norm) <= SHINGLE_K:
        return {norm}
    return {norm[i : i + SHINGLE_K] for i in range(len(norm) - SHINGLE_K + 1)}


def minhash_bands(norm: str) -> list[int]:
    """Band keys of the minhash signature of a normalized surface."""
    sh = sorted(_shingles(norm))
    base = np.array(
        [stable_hash64("sh", s) for s in sh], dtype=np.uint64
    )
    sig = mix64_multi(base, np.arange(1, N_HASHES + 1, dtype=np.uint64)).min(axis=1)
    bands = []
    for b in range(N_BANDS):
        rows = sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
        bands.append(stable_hash64_signed("band", b, *rows.tolist()))
    return bands


def jaccard(a: str, b: str) -> float:
    sa, sb = _shingles(a), _shingles(b)
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if inter else 0.0


# --------------------------------------------------------------------------
# Ray stages
# --------------------------------------------------------------------------

def distinct_surfaces_batch(batch: pa.Table) -> pa.Table:
    """Combiner: block-local DISTINCT of subj/obj surfaces.

    Replaces a global ``groupby(surface)`` distinct (which shuffles one
    row per occurrence) — cross-block duplicates that survive are
    re-deduplicated inside each band group, so the global shuffle is
    spent only on (block x distinct-surface) rows."""
    vals = set(batch.column("subj").to_pylist())
    vals.update(batch.column("obj").to_pylist())
    return pa.table({"surface": pa.array(sorted(vals), pa.string())})


def expand_bands_batch(batch: pa.Table) -> pa.Table:
    """distinct surfaces -> (band_key, surface, norm) rows."""
    out_band: list[int] = []
    out_surface: list[str] = []
    out_norm: list[str] = []
    for surface in batch.column("surface").to_pylist():
        norm = normalize_surface(surface)
        for band in minhash_bands(norm):
            out_band.append(band)
            out_surface.append(surface)
            out_norm.append(norm)
    return pa.table(
        {
            "band_key": pa.array(out_band, pa.int64()),
            "surface": pa.array(out_surface, pa.string()),
            "norm": pa.array(out_norm, pa.string()),
        }
    )


def candidate_edges_group(
    group: pa.Table,
    threshold: float = DEFAULT_THRESHOLD,
    max_group: int = DEFAULT_MAX_GROUP,
    cap_counters=None,
) -> pa.Table:
    """Candidate kernel over one band run -> verified edges."""
    norms = sorted(set(zip(group.column("norm").to_pylist(),
                           group.column("surface").to_pylist())))
    if len(norms) > max_group:
        # hot-band truncation: counted (state/caps.py), never silent
        if cap_counters is not None:
            cap_counters.record(
                "link_truncated_candidates",
                group.column("band_key")[0].as_py(),
                len(norms) - max_group,
            )
        norms = norms[:max_group]
    a_out: list[str] = []
    b_out: list[str] = []
    for i in range(len(norms)):
        for j in range(i + 1, len(norms)):
            na, nb = norms[i][0], norms[j][0]
            if na == nb or jaccard(na, nb) >= threshold:
                a_out.append(norms[i][1])
                b_out.append(norms[j][1])
    return pa.table(
        {"surface_a": pa.array(a_out, pa.string()), "surface_b": pa.array(b_out, pa.string())}
    )


_EMPTY_EDGES = pa.table(
    {"surface_a": pa.array([], pa.string()), "surface_b": pa.array([], pa.string())}
)


def candidate_edges_block(
    block: pa.Table,
    threshold: float = DEFAULT_THRESHOLD,
    max_group: int = DEFAULT_MAX_GROUP,
    cap_counters=None,
) -> pa.Table:
    """Reducer over one sorted block of whole band runs: runs
    :func:`candidate_edges_group` once per ``band_key`` run."""
    block = block.sort_by([("band_key", "ascending")])
    parts = [
        candidate_edges_group(
            block.slice(s, e - s),
            threshold=threshold,
            max_group=max_group,
            cap_counters=cap_counters,
        )
        for s, e in zip(*run_bounds(block, "band_key"))
    ]
    return pa.concat_tables(parts) if parts else _EMPTY_EDGES


def build_canonical_map(
    surfaces: Iterable[str],
    edges: Iterable[tuple[str, str]],
    preferred: Iterable[str] = (),
) -> dict[str, tuple[int, str]]:
    """Union-find merge -> {surface: (canonical_id, canonical_surface)}.

    Canonical surface = lexicographically smallest *preferred* member if
    the cluster contains one (alias-table targets), else smallest member
    overall; canonical id = ``entity_id`` of that surface. Deterministic
    and independent of edge order.
    """
    uf = UnionFind()
    surfaces = list(surfaces)
    preferred = set(preferred)
    for s in surfaces:
        uf.find(normalize_surface(s))
    for a, b in edges:
        uf.union(normalize_surface(a), normalize_surface(b))
    comp = uf.components()

    cluster_surface: dict[str, str] = {}
    cluster_has_pref: dict[str, bool] = {}
    for s in surfaces:
        root = comp[normalize_surface(s)]
        is_pref = s in preferred
        cur = cluster_surface.get(root)
        cur_pref = cluster_has_pref.get(root, False)
        if cur is None or (is_pref and not cur_pref) or (is_pref == cur_pref and s < cur):
            cluster_surface[root] = s
            cluster_has_pref[root] = is_pref
    return {
        s: (
            entity_id(cluster_surface[comp[normalize_surface(s)]]),
            cluster_surface[comp[normalize_surface(s)]],
        )
        for s in surfaces
    }


# per-worker state for the task-shaped rewrite: canonical map resolved
# from the object store ONCE per worker (keyed by ref), plus a surface
# -> (id, canon) memo — entity vocabularies repeat heavily, so the
# blake2b entity_id cost amortizes to vocabulary size, not row count.
# SINGLE-entry by design: a new ref (another link run in the same
# session) evicts the old one, so worker memory stays bounded by one
# canonical map regardless of how many pipelines the process serves
_REWRITE_STATE: dict[str, tuple[dict, dict]] = {}


def _rewrite_state(canonical_ref) -> tuple[dict, dict]:
    if isinstance(canonical_ref, ray.ObjectRef):
        key = canonical_ref.hex()
        entry = _REWRITE_STATE.get(key)
        if entry is None:
            _REWRITE_STATE.clear()
            entry = (ray.get(canonical_ref), {})
            _REWRITE_STATE[key] = entry
        return entry
    return (canonical_ref, {})


def rewrite_ids_task(batch: pa.Table, canonical_ref) -> pa.Table:
    """Task-shaped id rewrite (per-worker cached map — no actor-pool
    startup; the map rides the object store via ``ray.put`` once and is
    fetched once per worker, never re-shipped per batch)."""
    canonical, memo = _rewrite_state(canonical_ref)
    return _rewrite_batch(batch, canonical, memo)


def _rewrite_batch(batch: pa.Table, canonical: dict, memo: dict) -> pa.Table:
    def ids(vals: list[str]) -> tuple[list[int], list[str]]:
        out_id, out_surf = [], []
        for v in vals:
            hit = memo.get(v)
            if hit is None:
                c = canonical.get(v)
                hit = (entity_id(v), v) if c is None else c
                memo[v] = hit
            out_id.append(hit[0])
            out_surf.append(hit[1])
        return out_id, out_surf

    subj_ids, subj_canon = ids(batch.column("subj").to_pylist())
    obj_ids, obj_canon = ids(batch.column("obj").to_pylist())
    return batch.append_column(
        "subj_id", pa.array(subj_ids, pa.int64())
    ).append_column(
        "obj_id", pa.array(obj_ids, pa.int64())
    ).append_column(
        "subj_canon", pa.array(subj_canon, pa.string())
    ).append_column(
        "obj_canon", pa.array(obj_canon, pa.string())
    )


def link_triples(
    triples,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    alias_table: dict[str, str] | None = None,
    edge_cap: int | None = None,
    cap_counters=None,
    cache_input: bool = True,
):
    """Full linking stage: triples Dataset -> linked triples Dataset.

    Physical plan: surface projection -> block-local distinct -> band
    expansion -> sorted reduce on band_key (candidate gen, one kernel
    call per sorted block) -> driver union-find -> broadcast rewrite.

    ``alias_table`` (north-rule "alias-table resolution"): a curated
    ``{alias_surface: canonical_surface}`` map — e.g. known entity
    aliases from a KB — merged as union-find edges ALONGSIDE the LSH
    candidates, so curated knowledge and similarity blocking
    canonicalize through one deterministic mechanism.

    ``edge_cap`` overrides the driver-collection bound
    (``state/collect.DEFAULT_EDGE_CAP``) for corpora with genuinely
    large duplicate mass; ``cap_counters`` (``state/caps.py``) makes
    hot-band candidate truncation observable.

    The input is consumed twice (candidate generation, then the id
    rewrite), and triples are the *reduced* output of the expensive
    scoring stage, so by default they are ``materialize()``-cached in
    the object store (spillable). If the input is ALREADY source-backed
    (a plain ``read_parquet``), pass ``cache_input=False`` to skip the
    object-store copy entirely: both passes re-read from disk, bounded
    memory at any scale (the 100-TB-safe shape). A caller holding
    triple sets too large even for spill comfort writes them to parquet
    and links the ``read_parquet`` of that, as ``materialize_graph``
    finalize does over its shard files.
    """
    if cache_input:
        triples = triples.materialize()
    # cache_input=False: the caller vouches the input is already
    # source-backed (e.g. read_parquet over materialize_graph's shard
    # files) — both passes re-read from the source, no object-store
    # copy is made
    # candidate generation: block-local distinct (combiner — the global
    # per-occurrence distinct shuffle is gone), band expansion, then ONE
    # sorted reduce on band_key; cross-block duplicate surfaces are
    # re-deduplicated inside each band run
    bands = triples.map_batches(
        distinct_surfaces_batch, batch_format="pyarrow"
    ).map_batches(expand_bands_batch, batch_format="pyarrow")
    edges_ds = sorted_reduce(
        bands,
        "band_key",
        lambda b: candidate_edges_block(
            b, threshold=threshold, cap_counters=cap_counters
        ),
    )
    # only cluster members reach the driver: singleton surfaces resolve
    # locally inside rewrite_ids_task via entity_id(), so the collected
    # edge list (post-verification) is the whole driver-side state —
    # streamed under a hard cap so a pathological corpus fails loudly,
    # not OOM
    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches

    edges: set[tuple[str, str]] = set()
    for b in iter_capped_batches(
        edges_ds, cap=edge_cap or DEFAULT_EDGE_CAP, context="entity-link edges"
    ):
        edges.update(
            zip(b.column("surface_a").to_pylist(), b.column("surface_b").to_pylist())
        )
    preferred: set[str] = set()
    if alias_table:
        edges |= set(alias_table.items())
        preferred = set(alias_table.values())
    member_surfaces = {s for e in edges for s in e}
    canonical = build_canonical_map(member_surfaces, edges, preferred)
    import functools

    ref = ray.put(canonical)
    return triples.map_batches(
        functools.partial(rewrite_ids_task, canonical_ref=ref),
        batch_format="pyarrow",
    )
