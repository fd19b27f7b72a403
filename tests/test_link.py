"""Unit tests for entity linking: minhash-LSH blocking, union-find,
canonical-map construction."""

import pyarrow as pa

from jamie_ray.stages import link
from jamie_ray.state.union_find import UnionFind


def test_normalize_surface():
    assert link.normalize_surface("ＭＲＩ") == "mri"
    assert link.normalize_surface("MRI") == "mri"
    assert link.normalize_surface("急性肺炎") == "急性肺炎"


def test_entity_id_stable_across_widths():
    assert link.entity_id("ＭＲＩ") == link.entity_id("mri")
    assert link.entity_id("a") != link.entity_id("b")


def test_minhash_bands_deterministic_and_sensitive():
    b1 = link.minhash_bands("急性肺炎の検査")
    assert b1 == link.minhash_bands("急性肺炎の検査")
    assert len(b1) == link.N_BANDS
    # near-identical strings share at least one band
    b2 = link.minhash_bands("急性肺炎の検査を")
    assert set(b1) & set(b2)
    # unrelated strings share none
    b3 = link.minhash_bands("completely different words")
    assert not set(b1) & set(b3)


def test_jaccard():
    assert link.jaccard("abcd", "abcd") == 1.0
    assert link.jaccard("abcd", "wxyz") == 0.0
    assert 0.0 < link.jaccard("abcde", "abcdef") < 1.0


def test_union_find_deterministic():
    uf1, uf2 = UnionFind(), UnionFind()
    edges = [("b", "c"), ("a", "b"), ("d", "e")]
    for a, b in edges:
        uf1.union(a, b)
    for a, b in reversed(edges):
        uf2.union(a, b)
    assert uf1.components() == uf2.components()
    comp = uf1.components()
    assert comp["a"] == comp["b"] == comp["c"] == "a"
    assert comp["d"] == comp["e"] == "d"


def test_candidate_edges_group_threshold():
    group = pa.table(
        {
            "band_key": pa.array([1, 1, 1], pa.int64()),
            "surface": ["abcdefgh", "abcdefgx", "zzzzzzzz"],
            "norm": ["abcdefgh", "abcdefgx", "zzzzzzzz"],
        }
    )
    edges = link.candidate_edges_group(group, threshold=0.5)
    pairs = set(zip(edges["surface_a"].to_pylist(), edges["surface_b"].to_pylist()))
    assert ("abcdefgh", "abcdefgx") in pairs
    assert all("zzzzzzzz" not in p for p in pairs)


def test_build_canonical_map():
    surfaces = ["ＭＲＩ", "MRI", "ct"]
    edges = [("ＭＲＩ", "MRI")]
    cmap = link.build_canonical_map(surfaces, edges)
    # width variants merge: same id, canonical surface = lexicographic min
    assert cmap["ＭＲＩ"][0] == cmap["MRI"][0]
    assert cmap["ＭＲＩ"][1] == cmap["MRI"][1] == "MRI"
    assert cmap["ct"][0] != cmap["MRI"][0]


def test_link_triples_end_to_end(ray_session):
    import ray.data

    rows = [
        {"subj": "ＭＲＩ", "pred": "r", "obj": "急性肺炎", "subj_type": "t-test",
         "obj_type": "d", "subj_mod": "_", "url": "u1", "chunk_id": 0},
        {"subj": "MRI", "pred": "r", "obj": "急性肺炎", "subj_type": "t-test",
         "obj_type": "d", "subj_mod": "_", "url": "u2", "chunk_id": 0},
    ]
    linked = link.link_triples(ray.data.from_items(rows)).take_all()
    by_url = {r["url"]: r for r in linked}
    # width-variant surfaces canonicalize to the same id
    assert by_url["u1"]["subj_id"] == by_url["u2"]["subj_id"]
    assert by_url["u1"]["subj_canon"] == by_url["u2"]["subj_canon"]
    assert by_url["u1"]["obj_id"] == by_url["u2"]["obj_id"]


def test_single_link_resolves_cross_shard_chain(ray_session):
    """A link chain that crosses shards (a~b seen in shard 0, b~c in
    shard 1, a and c dissimilar) is one entity when the union of the
    shards' RAW triples is linked once, as materialize_graph's finalize
    does. Linking each shard and relinking the deduplicated shard
    outputs would split it: only a's and c's surfaces reach the relink."""
    import ray.data

    from jamie_ray.stages.dedup import dedup_triples

    a, b, c = "abcdefghijklm", "cdefghijklmno", "efghijklmnopq"
    na, nb, nc = (link.normalize_surface(s) for s in (a, b, c))
    # only chain neighbours are linkable: a~b and b~c share a band and
    # pass the threshold (0.69), a~c does not (0.47)
    for x, y in ((na, nb), (nb, nc)):
        assert link.jaccard(x, y) >= link.DEFAULT_THRESHOLD
        assert set(link.minhash_bands(x)) & set(link.minhash_bands(y))
    assert link.jaccard(na, nc) < link.DEFAULT_THRESHOLD

    def raw(subj, url):
        return {"subj": subj, "pred": "r", "obj": "x", "subj_type": "d",
                "obj_type": "a", "subj_mod": "_", "url": url, "chunk_id": 0}

    shard0 = [raw(a, "u1"), raw(b, "u2")]
    shard1 = [raw(c, "u3")]
    final = dedup_triples(
        link.link_triples(ray.data.from_items(shard0 + shard1))
    ).take_all()
    assert len(final) == 1, f"expected one entity, got {final}"
    assert final[0]["n_sources"] == 3
    assert final[0]["url"] == "u1"  # min provenance


def test_fixture_linking_is_identity():
    """The kg_graph_surface oracle assumes no two distinct fixture
    surfaces merge under LSH linking; pin that here so a gazetteer or
    threshold change breaks THIS test instead of the driver oracle."""
    from itertools import combinations

    from jamie_ray.mockmodel import GAZETTEER_SURFACES, mention_string

    surfaces = [mention_string(s) for s in GAZETTEER_SURFACES]
    assert len(set(link.normalize_surface(s) for s in surfaces)) == len(surfaces)
    for a, b in combinations(surfaces, 2):
        na, nb = link.normalize_surface(a), link.normalize_surface(b)
        if set(link.minhash_bands(na)) & set(link.minhash_bands(nb)):
            assert link.jaccard(na, nb) < link.DEFAULT_THRESHOLD, (a, b)


def test_alias_table_resolution(ray_session):
    """Curated aliases merge clusters and pin the canonical surface to
    the alias target (north-rule alias-table resolution)."""
    import ray.data

    rows = [
        {"subj": "JR東日本", "pred": "r", "obj": "東京", "subj_type": "cc",
         "obj_type": "a", "subj_mod": "_", "url": "u1", "chunk_id": 0},
        {"subj": "東日本旅客鉄道", "pred": "r", "obj": "東京", "subj_type": "cc",
         "obj_type": "a", "subj_mod": "_", "url": "u2", "chunk_id": 0},
    ]
    alias = {"JR東日本": "東日本旅客鉄道"}
    linked = link.link_triples(
        ray.data.from_items(rows), alias_table=alias
    ).take_all()
    by_url = {r["url"]: r for r in linked}
    # surfaces that LSH would never merge (jaccard ~0) unify via alias
    assert link.jaccard(
        link.normalize_surface("JR東日本"), link.normalize_surface("東日本旅客鉄道")
    ) < link.DEFAULT_THRESHOLD
    assert by_url["u1"]["subj_id"] == by_url["u2"]["subj_id"]
    # canonical surface = the alias TARGET, not the lexicographic min
    assert by_url["u1"]["subj_canon"] == "東日本旅客鉄道"


def test_build_canonical_map_preferred():
    cmap = link.build_canonical_map(
        ["aaa", "zzz"], [("aaa", "zzz")], preferred={"zzz"}
    )
    assert cmap["aaa"][1] == "zzz" and cmap["zzz"][1] == "zzz"
    assert cmap["aaa"][0] == link.entity_id("zzz")


def test_link_triples_spill_dir_equals_materialize(ray_session, tmp_path):
    """The parquet shape (triples written once, linked over a
    ``read_parquet`` with ``cache_input=False``, as materialize_graph
    finalize does) must produce the same linked output as the default
    materialize path."""
    import pyarrow.parquet as pq
    import ray.data

    from jamie_ray import fixtures
    from jamie_ray.pipelines import kg
    from jamie_ray.stages.link import link_triples

    tables = fixtures.generate(60)
    pq.write_table(tables["pages"], tmp_path / "pages.parquet")
    p = str(tmp_path / "pages.parquet")

    key = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
    a = key(link_triples(kg.build_triples(p)).take_all())
    spill = str(tmp_path / "spill")
    kg.build_triples(p).write_parquet(spill)
    b = key(
        link_triples(ray.data.read_parquet(spill), cache_input=False).take_all()
    )
    assert len(a) > 0 and a == b
