"""Distributed connected components over an edge Dataset.

The default cluster merger in this engine is the driver-side
``state.union_find.UnionFind``: verified edge lists are tiny while LSH
precision holds, so collecting them under ``state/collect.py``'s hard
cap is the fast path. When a corpus genuinely carries more duplicate
mass than driver memory (the ``EdgeCapExceeded`` failure mode), THIS
module is the remedy: the alternating large-star / small-star
algorithm (Kiveris et al., "Connected Components in MapReduce and
Beyond", SoCC 2014 — public literature) computes the same min-id
components as a bounded number of sorted shuffles over the edge
Dataset, never collecting the edge list anywhere.

Semantics are bit-identical to ``UnionFind`` with min-key roots (the
engine's determinism rule): every node that appears in any input edge
gets a row ``(node, root)`` where ``root`` is the smallest node id in
its component — singletons (self-loop-only nodes) map to themselves.
``tests/test_graph.py`` asserts equality against ``UnionFind`` on
seeded random graphs and on the worst-case path graph.

Scale notes (the 100-TB shape):

- per round the edge set lives as a **materialized** Dataset in the
  object store (edges are O(duplicate mass), orders of magnitude
  smaller than the corpus; materializing per round is what makes the
  iteration not re-execute its whole lineage each pass);
- every round is two ``shuffle.sorted_reduce`` shuffles on the node id
  whose rows are two int64s — no payloads, no driver state, one
  vectorized reducer call per sorted block;
- round count is O(log^2 n) worst case (paper bound); near-dup
  cluster graphs (small diameter) converge in 2-4 rounds;
- ``max_iters`` fails loudly rather than spinning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..shuffle import run_bounds, sorted_reduce

_CHK_MASK = (1 << 64) - 1


def _int64(table: pa.Table, col: str) -> np.ndarray:
    return table.column(col).to_numpy().astype(np.int64, copy=False)


def _canonicalize(edges, col_a: str, col_b: str):
    """(a, b) -> canonical (hi, lo) rows, self-loops dropped (their
    nodes are retained via the separate node inventory)."""

    def canon(batch: pa.Table) -> pa.Table:
        if batch.column(col_a).null_count or batch.column(col_b).null_count:
            # a null id would round-trip through float NaN and astype
            # to INT64_MIN — the global minimum, which would silently
            # become the root of its whole component
            raise ValueError(
                "connected_components: edge endpoint column contains "
                "nulls — drop/repair upstream"
            )
        a = batch.column(col_a).to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column(col_b).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        hi = np.maximum(a, b)
        lo = np.minimum(a, b)
        return pa.table(
            {
                "hi": pa.array(hi, pa.int64()),
                "lo": pa.array(lo, pa.int64()),
            }
        )

    return edges.map_batches(canon, batch_format="pyarrow")


def _edge_stats(edges) -> tuple[int, int]:
    """(row count, order-independent checksum) in ONE pass over a
    materialized edge Dataset — the convergence signature."""

    def partial(batch: pa.Table) -> pa.Table:
        hi = batch.column("hi").to_numpy(zero_copy_only=False).astype(np.uint64)
        lo = batch.column("lo").to_numpy(zero_copy_only=False).astype(np.uint64)
        # order-independent: sum of a per-edge mix (wraparound uint64)
        x = hi * np.uint64(0x9E3779B97F4A7C15) ^ lo * np.uint64(0xC2B2AE3D27D4EB4F)
        x ^= x >> np.uint64(33)
        chk = int(np.sum(x, dtype=np.uint64))
        return pa.table(
            {
                "n": pa.array([batch.num_rows], pa.int64()),
                "chk": pa.array([chk & _CHK_MASK], pa.uint64()),
            }
        )

    n_total, chk_total = 0, 0
    for row in edges.map_batches(partial, batch_format="pyarrow").take_all():
        n_total += row["n"]
        chk_total = (chk_total + row["chk"]) & _CHK_MASK
    return n_total, chk_total


def _star(edges, large: bool):
    """One star operation: sorted shuffle on the key node, per-key
    min-neighbor emission. ``large=True`` hooks every larger neighbor
    to the key's min; ``large=False`` (small-star) hooks every smaller
    neighbor (and the key itself) to the minimum."""

    def emit(batch: pa.Table) -> pa.Table:
        key, val = _int64(batch, "hi"), _int64(batch, "lo")
        if large:
            # both directions: each endpoint sees its full neighborhood
            key, val = np.concatenate([key, val]), np.concatenate([val, key])
        return pa.table(
            {"key": pa.array(key, pa.int64()), "val": pa.array(val, pa.int64())}
        )

    def reduce_block(block: pa.Table) -> pa.Table:
        block = block.sort_by([("key", "ascending"), ("val", "ascending")])
        key, val = _int64(block, "key"), _int64(block, "val")
        starts, ends = run_bounds(block, "key")
        if not len(starts):
            return pa.table({"hi": pa.array([], pa.int64()), "lo": pa.array([], pa.int64())})
        run = np.repeat(np.arange(len(starts)), ends - starts)
        u = key[starts]
        m = np.minimum(np.minimum.reduceat(val, starts), u)  # per-run min
        # each distinct (key, val) neighbor once
        first = np.ones(len(key), dtype=bool)
        first[1:] = (key[1:] != key[:-1]) | (val[1:] != val[:-1])
        if large:
            # hook strictly-larger neighbors to m (v > u >= m)
            sel = first & (val > key)
            out_hi, out_lo = val[sel], m[run[sel]]
        else:
            # hook all smaller neighbors and u itself to m
            sel = first & (val != m[run])
            own = u != m
            out_hi = np.concatenate([val[sel], u[own]])
            out_lo = np.concatenate([m[run[sel]], m[own]])
        return pa.table(
            {"hi": pa.array(out_hi, pa.int64()), "lo": pa.array(out_lo, pa.int64())}
        )

    return sorted_reduce(
        edges.map_batches(emit, batch_format="pyarrow"), "key", reduce_block
    )


def _iterate_stars(cur, max_iters: int):
    """Alternate large/small stars on a materialized canonical edge
    Dataset until the edge set is stable; returns the fixpoint star
    edges ``(hi=node, lo=root)``."""
    prev_sig = None
    for _ in range(max_iters):
        cur = _star(cur, large=True).materialize()
        cur = _star(cur, large=False).materialize()
        sig = _edge_stats(cur)
        if sig == prev_sig:
            return cur
        prev_sig = sig
    raise RuntimeError(
        f"connected_components: no convergence after {max_iters} "
        "alternating star rounds — this exceeds the algorithm's "
        "O(log^2 n) bound and indicates a bug or non-int64 ids"
    )


def component_pairs(
    edges,
    col_a: str = "id_a",
    col_b: str = "id_b",
    *,
    max_iters: int = 64,
):
    """Lean variant of :func:`connected_components` for lookup-style
    consumers (e.g. ``minhash_clusters(cc="distributed")``): returns
    the fixpoint star edges as ``(node, root)`` WITHOUT the singleton
    inventory and final resolve shuffles. Contract differences, both
    harmless for map-assignment (``.get(node, node)`` semantics):
    rows may be duplicated, and self-loop-only nodes are absent."""

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch.column("hi"), "root": batch.column("lo")}
        )

    cur = _iterate_stars(
        _canonicalize(edges, col_a, col_b).materialize(), max_iters
    )
    return cur.map_batches(rename, batch_format="pyarrow")


def _tagged(node: np.ndarray, root: np.ndarray, tag: int) -> pa.Table:
    """``(node, root, tag)`` rows for a sorted shuffle join on node."""
    return pa.table(
        {
            "node": pa.array(node, pa.int64()),
            "root": pa.array(root, pa.int64()),
            "tag": pa.array(np.full(len(node), tag, np.int8), pa.int8()),
        }
    )


def connected_components(
    edges,
    col_a: str = "id_a",
    col_b: str = "id_b",
    *,
    max_iters: int = 64,
):
    """Edge Dataset ``(col_a, col_b)`` (int64 node ids, undirected,
    duplicates/self-loops fine) -> Dataset ``(node, root)`` with one
    row per distinct node, ``root`` = min node id of its component.

    Raises ``RuntimeError`` if the alternating iteration has not
    converged after ``max_iters`` rounds (the paper's bound is
    O(log^2 n); hitting this indicates a bug, not a big graph).
    """
    # node inventory (for singleton completeness) — one sorted distinct
    # over both endpoint columns
    def emit_nodes(batch: pa.Table) -> pa.Table:
        nodes = np.unique(
            np.concatenate([_int64(batch, col_a), _int64(batch, col_b)])
        )
        return pa.table({"node": pa.array(nodes, pa.int64())})

    def distinct_nodes(block: pa.Table) -> pa.Table:
        return pa.table({"node": pa.array(np.unique(_int64(block, "node")), pa.int64())})

    nodes = sorted_reduce(
        edges.map_batches(emit_nodes, batch_format="pyarrow"), "node", distinct_nodes
    ).materialize()

    cur = _iterate_stars(
        _canonicalize(edges, col_a, col_b).materialize(), max_iters
    )

    # final assembly: every node joined (sorted on node) against the
    # star edges; nodes with no incoming (v, root) row are
    # roots/singletons
    def tag_nodes(batch: pa.Table) -> pa.Table:
        n = _int64(batch, "node")
        return _tagged(n, np.full(len(n), -1), 0)

    def tag_edges(batch: pa.Table) -> pa.Table:
        return _tagged(_int64(batch, "hi"), _int64(batch, "lo"), 1)

    def resolve(block: pa.Table) -> pa.Table:
        block = block.sort_by("node")
        node, root = _int64(block, "node"), _int64(block, "root")
        is_edge = block.column("tag").to_numpy() == 1
        starts, _ = run_bounds(block, "node")
        # a node the inventory saw but no star edge points at is its
        # own root; otherwise the (unique at convergence) min. A real
        # root is below its node, so the int64 max sentinel never wins
        big = np.iinfo(np.int64).max
        eff = np.where(is_edge, root, big)
        run_min = np.minimum.reduceat(eff, starts) if len(starts) else eff[:0]
        out_node = node[starts]
        return pa.table(
            {
                "node": pa.array(out_node, pa.int64()),
                "root": pa.array(np.where(run_min == big, out_node, run_min), pa.int64()),
            }
        )

    return sorted_reduce(
        nodes.map_batches(tag_nodes, batch_format="pyarrow").union(
            cur.map_batches(tag_edges, batch_format="pyarrow")
        ),
        "node",
        resolve,
    )


def assign_components(ids_ds, comp_ds, id_col: str = "doc_id"):
    """Shuffle-join assignment (sorted on the node id): each row of
    ``ids_ds`` gets ``cluster_id`` = its component root (itself when
    unclustered), WITHOUT collecting the component map to the driver —
    the full-scale sibling of the broadcast ``Assign`` in ``dedup_docs``.

    ``comp_ds`` is ``connected_components`` output ``(node, root)``.
    """

    def tag_ids(batch: pa.Table) -> pa.Table:
        ids = _int64(batch, id_col)
        return _tagged(ids, np.full(len(ids), -1), 0)

    def tag_comp(batch: pa.Table) -> pa.Table:
        return _tagged(_int64(batch, "node"), _int64(batch, "root"), 1)

    def join(block: pa.Table) -> pa.Table:
        block = block.sort_by(
            [("node", "ascending"), ("tag", "descending"), ("root", "ascending")]
        )
        node, root = _int64(block, "node"), _int64(block, "root")
        is_comp = block.column("tag").to_numpy() == 1
        starts, ends = run_bounds(block, "node")
        # a run's first row is its component row when it has one
        run_root = np.where(is_comp[starts], root[starts], node[starts])
        run = np.repeat(np.arange(len(starts)), ends - starts)
        id_rows = ~is_comp
        return pa.table(
            {
                id_col: pa.array(node[id_rows], pa.int64()),
                "cluster_id": pa.array(run_root[run[id_rows]], pa.int64()),
            }
        )

    return sorted_reduce(
        ids_ds.map_batches(tag_ids, batch_format="pyarrow").union(
            comp_ds.map_batches(tag_comp, batch_format="pyarrow")
        ),
        "node",
        join,
    )
