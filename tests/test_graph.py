"""Distributed connected components (functions/graph.py) vs the
driver-side UnionFind — outputs must be bit-identical (min-id roots)."""

import numpy as np
import pyarrow as pa
import pytest

from jamie_ray.functions.graph import assign_components, connected_components
from jamie_ray.state.union_find import UnionFind


def _uf_components(pairs):
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    return dict(sorted(uf.components().items()))


def _cc_components(pairs, ray_session, **kw):
    import ray

    tbl = pa.table(
        {
            "id_a": pa.array([p[0] for p in pairs], pa.int64()),
            "id_b": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    out = connected_components(ray.data.from_arrow(tbl), **kw)
    rows = out.take_all()
    got = {r["node"]: r["root"] for r in rows}
    assert len(rows) == len(got), "duplicate node rows in CC output"
    return dict(sorted(got.items()))


def test_cc_matches_union_find_random_graphs(ray_session):
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        n_nodes = 60
        pairs = [
            (int(a), int(b))
            for a, b in rng.integers(0, n_nodes, size=(120, 2))
        ]
        assert _cc_components(pairs, ray_session) == _uf_components(
            pairs
        )


def test_cc_path_graph_worst_case(ray_session):
    # a single path 0-1-2-...-40: maximal diameter, root must be 0
    pairs = [(i, i + 1) for i in range(40)]
    got = _cc_components(pairs, ray_session)
    assert got == {i: 0 for i in range(41)}


def test_cc_self_loops_and_duplicates(ray_session):
    pairs = [(5, 5), (1, 2), (2, 1), (1, 2), (9, 9)]
    got = _cc_components(pairs, ray_session)
    assert got == {1: 1, 2: 1, 5: 5, 9: 9}


def test_cc_negative_and_large_ids(ray_session):
    pairs = [(-3, 7), (7, 2**40), (100, 100)]
    got = _cc_components(pairs, ray_session)
    assert got == {-3: -3, 7: -3, 2**40: -3, 100: 100}


def test_cc_max_iters_loud(ray_session):
    import ray

    tbl = pa.table(
        {"id_a": pa.array([0], pa.int64()), "id_b": pa.array([1], pa.int64())}
    )
    with pytest.raises(RuntimeError, match="no convergence"):
        connected_components(ray.data.from_arrow(tbl), max_iters=0)


def test_assign_components_shuffle_join(ray_session):
    import ray

    pairs = [(1, 2), (2, 3), (10, 11)]
    comp = connected_components(
        ray.data.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([p[0] for p in pairs], pa.int64()),
                    "id_b": pa.array([p[1] for p in pairs], pa.int64()),
                }
            )
        )
    )
    ids = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3, 10, 11, 99], pa.int64())})
    )
    got = {
        r["doc_id"]: r["cluster_id"]
        for r in assign_components(ids, comp).take_all()
    }
    # 99 never appeared in an edge -> its own cluster
    assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 99: 99}


def test_component_pairs_lean_contract(ray_session):
    """component_pairs: same (node -> root) mapping as the full
    operator for non-singleton nodes; duplicates allowed; self-loop
    singletons absent."""
    import ray

    pairs = [(1, 2), (2, 3), (9, 9)]
    tbl = pa.table(
        {
            "id_a": pa.array([p[0] for p in pairs], pa.int64()),
            "id_b": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    from jamie_ray.functions.graph import component_pairs

    rows = component_pairs(ray.data.from_arrow(tbl)).take_all()
    got = {}
    for r in rows:
        prev = got.setdefault(r["node"], r["root"])
        assert prev == r["root"], "conflicting duplicate rows"
    assert got == {2: 1, 3: 1}  # 9 (self-loop singleton) absent; 1 is root


def test_cc_empty_edges(ray_session):
    import ray

    empty = ray.data.from_arrow(
        pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
    )
    assert connected_components(empty).take_all() == []


def test_cc_matches_union_find_moderate_graph(ray_session):
    """3,000 random edges over 1,500 nodes (many mid-size components,
    heavy duplicate edges) — distributed CC equals UnionFind exactly."""
    rng = np.random.default_rng(42)
    pairs = [
        (int(a), int(b)) for a, b in rng.integers(0, 1500, size=(3000, 2))
    ]
    assert _cc_components(pairs, ray_session) == _uf_components(
        pairs
    )
