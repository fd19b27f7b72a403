"""Distributed hash join (`functions/join.py`) vs a pure-Python
SQL-semantics replay oracle: all six join types, null keys, duplicate
keys, key-type widening, hot-key salting (salted == unsalted), layout
determinism, and the broadcast path."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import ray.data

from jamie_ray.functions.join import hash_join


def _replay(lrows, rrows, on, right_on, how, l_cols, r_cols, suffix="_r"):
    """Row-at-a-time SQL join semantics: null keys never match; outer
    rows survive with nulls; semi/anti return left columns only."""
    l_payload = [c for c in l_cols if c not in on]
    r_payload_src = [c for c in r_cols if c not in right_on]
    ren = {c: (c + suffix if c in l_cols else c) for c in r_payload_src}
    out = []
    matched_r: set[int] = set()
    for lr in lrows:
        k = tuple(lr[c] for c in on)
        matches = (
            []
            if any(v is None for v in k)
            else [
                i
                for i, rr in enumerate(rrows)
                if tuple(rr[c] for c in right_on) == k
                and all(rr[c] is not None for c in right_on)
            ]
        )
        if how == "semi":
            if matches:
                out.append({c: lr[c] for c in on + l_payload})
        elif how == "anti":
            if not matches:
                out.append({c: lr[c] for c in on + l_payload})
        elif matches:
            for i in matches:
                matched_r.add(i)
                row = {c: lr[c] for c in on + l_payload}
                for c in r_payload_src:
                    row[ren[c]] = rrows[i][c]
                out.append(row)
        elif how in ("left", "full"):
            row = {c: lr[c] for c in on + l_payload}
            for c in r_payload_src:
                row[ren[c]] = None
            out.append(row)
    if how in ("right", "full"):
        for i, rr in enumerate(rrows):
            if i not in matched_r:
                row = {c: None for c in l_payload}
                for c, rc in zip(on, right_on):
                    row[c] = rr[rc]
                for c in r_payload_src:
                    row[ren[c]] = rr[c]
                out.append(row)
    return out


def _norm(rows):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in r.items())) for r in rows
    )


def _left_rows():
    # duplicate keys, a null key, and keys with no right match
    return [
        {"k": (i % 7) if i % 11 else None, "lv": f"L{i}", "lx": i}
        for i in range(40)
    ]


def _right_rows():
    return [
        {"rk": (i % 9) if i % 5 else None, "lv": f"R{i}", "rw": 100 + i}
        for i in range(25)
    ]


L_COLS = ["k", "lv", "lx"]
R_COLS = ["rk", "lv", "rw"]


def _datasets():
    return (
        ray.data.from_items(_left_rows()).repartition(3),
        ray.data.from_items(_right_rows()).repartition(2),
    )


@pytest.mark.parametrize("how", ["inner", "left", "right", "full", "semi", "anti"])
def test_hash_join_matches_sql_replay(ray_session, how):
    left, right = _datasets()
    got = hash_join(
        left, right, "k", right_on="rk", how=how
    ).take_all()
    exp = _replay(_left_rows(), _right_rows(), ["k"], ["rk"], how, L_COLS, R_COLS)
    assert _norm(got) == _norm(exp)
    if how not in ("semi", "anti"):
        # the colliding right payload column got the suffix
        assert all("lv_r" in r for r in got) or not got


def test_hash_join_multicol_string_keys(ray_session):
    lrows = [
        {"a": f"u{i % 3}", "b": i % 2, "lv": i} for i in range(20)
    ] + [{"a": None, "b": 0, "lv": 99}]
    rrows = [{"a": f"u{i % 4}", "b": i % 2, "rv": f"r{i}"} for i in range(12)]
    got = hash_join(
        ray.data.from_items(lrows).repartition(2),
        ray.data.from_items(rrows),
        ["a", "b"],
        how="left",
    ).take_all()
    exp = _replay(
        lrows, rrows, ["a", "b"], ["a", "b"], "left", ["a", "b", "lv"], ["a", "b", "rv"]
    )
    assert _norm(got) == _norm(exp)


def test_hash_join_temporal_keys_mixed_units(ray_session):
    """timestamp[us] left joins timestamp[ms] right: the bucket hash
    normalizes to the LEFT type before hashing, so equal moments land
    in the same bucket despite different physical values."""
    import datetime as dt

    import pyarrow as pa

    times = [dt.datetime(2020, 1, 1, h) for h in range(8)]
    lt = pa.table(
        {"t": pa.array(times, pa.timestamp("us")), "lv": list(range(8))}
    )
    rt = pa.table(
        {"t": pa.array(times[::2] + [None], pa.timestamp("ms")),
         "rv": [10, 20, 30, 40, -1]}
    )
    got = hash_join(
        ray.data.from_arrow(lt).repartition(2),
        ray.data.from_arrow(rt),
        "t",
        how="inner",
    ).take_all()
    assert sorted(r["lv"] for r in got) == [0, 2, 4, 6]
    assert sorted(r["rv"] for r in got) == [10, 20, 30, 40]

    # date32 keys go through the two-step physical cast
    dates = [dt.date(2021, 1, d + 1) for d in range(6)]
    ld = pa.table({"d": pa.array(dates, pa.date32()), "lv": list(range(6))})
    rd = pa.table({"d": pa.array(dates[:3], pa.date32()), "rv": [7, 8, 9]})
    got = hash_join(
        ray.data.from_arrow(ld), ray.data.from_arrow(rd), "d"
    ).take_all()
    assert sorted(r["lv"] for r in got) == [0, 1, 2]


def test_hash_join_key_type_widening(ray_session):
    """int32 right key joins int64 left key (output uses left's type)."""
    import pyarrow as pa

    lt = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "lv": ["a", "b", "c"]})
    rt = pa.table({"k": pa.array([2, 3, 3], pa.int32()), "rv": [20, 30, 31]})
    got = hash_join(
        ray.data.from_arrow(lt), ray.data.from_arrow(rt), "k"
    ).take_all()
    exp = [
        {"k": 2, "lv": "b", "rv": 20},
        {"k": 3, "lv": "c", "rv": 30},
        {"k": 3, "lv": "c", "rv": 31},
    ]
    assert _norm(got) == _norm(exp)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_hash_join_salted_equals_unsalted(ray_session, how):
    left, right = _datasets()
    plain = hash_join(
        left, right, "k", right_on="rk", how=how
    ).take_all()
    salted = hash_join(
        left,
        right,
        "k",
        right_on="rk",
        how=how,
        hot_keys={3: 4, 5: 2},
    ).take_all()
    assert _norm(salted) == _norm(plain)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_hash_join_auto_salt_equals_unsalted(ray_session, how):
    """Planted skew: one key holds half the left rows; auto_salt
    detects and salts it with results identical to the plain path."""
    lrows = [{"k": 3 if i % 2 else i % 11, "lv": i} for i in range(200)]
    rrows = [{"k": i % 13, "rv": 100 + i} for i in range(30)]
    left = ray.data.from_items(lrows).repartition(4)
    right = ray.data.from_items(rrows).repartition(2)
    plain = hash_join(left, right, "k", how=how).take_all()
    salted = hash_join(
        left, right, "k", how=how, auto_salt=True
    ).take_all()
    assert _norm(salted) == _norm(plain)


def test_hash_join_auto_salt_validation(ray_session):
    left, right = _datasets()
    with pytest.raises(ValueError, match="single-column"):
        hash_join(left, right, ["k", "lv"], right_on=["rk", "lv"], auto_salt=True)
    with pytest.raises(ValueError, match="auto_salt"):
        hash_join(left, right, "k", right_on="rk", how="full", auto_salt=True)
    with pytest.raises(ValueError, match="bucketed"):
        hash_join(left, right, "k", right_on="rk", auto_salt=True, path="broadcast")


def test_hash_join_hot_keys_rejected_for_right_side_outer(ray_session):
    left, right = _datasets()
    for how in ("right", "full"):
        with pytest.raises(ValueError, match="hot_keys"):
            hash_join(left, right, "k", right_on="rk", how=how, hot_keys={3: 2})


def test_hash_join_layout_determinism(ray_session):
    base = None
    for nblocks in (1, 5, 13):
        left = ray.data.from_items(_left_rows()).repartition(nblocks)
        right = ray.data.from_items(_right_rows()).repartition(max(1, nblocks // 2))
        got = _norm(
            hash_join(
                left, right, "k", right_on="rk", how="full"
            ).take_all()
        )
        if base is None:
            base = got
        assert got == base


_KEYS = st.one_of(st.integers(min_value=0, max_value=6), st.none())
_ROWS = st.lists(_KEYS, min_size=0, max_size=12)


@given(lkeys=_ROWS, rkeys=_ROWS, how_ix=st.integers(min_value=0, max_value=5))
@settings(deadline=None, max_examples=15)
def test_hash_join_property_matches_replay(ray_session, lkeys, rkeys, how_ix):
    """Random key multisets (dups + nulls) across all six join types
    equal the row-at-a-time SQL replay."""
    how = ["inner", "left", "right", "full", "semi", "anti"][how_ix]
    if not lkeys or not rkeys:
        return  # from_items rejects empty; covered by the empty-right test
    if all(k is None for k in lkeys) or all(k is None for k in rkeys):
        return  # an all-null key column is untyped (null type) — engine
        # requires typed keys (real tables always have them)
    lrows = [{"k": k, "lv": i} for i, k in enumerate(lkeys)]
    rrows = [{"k": k, "rv": 100 + i} for i, k in enumerate(rkeys)]
    got = hash_join(
        ray.data.from_items(lrows).repartition(2),
        ray.data.from_items(rrows),
        "k",
        how=how,
    ).take_all()
    exp = _replay(lrows, rrows, ["k"], ["k"], how, ["k", "lv"], ["k", "rv"])
    assert _norm(got) == _norm(exp)


def test_hash_join_unsupported_key_type_raises(ray_session):
    left = ray.data.from_items([{"k": 1.5, "lv": 1}])
    right = ray.data.from_items([{"k": 1.5, "rv": 2}])
    with pytest.raises(Exception, match="unsupported key column type"):
        hash_join(left, right, "k").take_all()


@pytest.mark.parametrize(
    "side,how",
    [("right", "inner"), ("right", "left"), ("right", "semi"),
     ("right", "anti"), ("left", "inner"), ("left", "right"), ("left", "semi")],
)
def test_hash_join_bloom_prune_equals_unpruned(ray_session, side, how):
    left, right = _datasets()
    plain = hash_join(
        left, right, "k", right_on="rk", how=how
    ).take_all()
    pruned = hash_join(
        left,
        right,
        "k",
        right_on="rk",
        how=how,
        bloom_prune=side,
        bloom_bits=1 << 16,
    ).take_all()
    assert _norm(pruned) == _norm(plain)


def test_hash_join_bloom_prune_invalid_combos_raise(ray_session):
    left, right = _datasets()
    for side, how in [("left", "left"), ("left", "full"), ("left", "anti"),
                      ("right", "right"), ("right", "full")]:
        with pytest.raises(ValueError, match="bloom_prune"):
            hash_join(left, right, "k", right_on="rk", how=how, bloom_prune=side)
    with pytest.raises(ValueError, match="power of two"):
        hash_join(left, right, "k", right_on="rk", bloom_prune="right",
                  bloom_bits=1000)


def test_hash_join_bloom_actually_prunes(ray_session):
    """Rows whose key can't match are dropped BEFORE the shuffle (no
    false negatives: every matching key survives)."""
    import numpy as np
    import pyarrow as pa

    from jamie_ray.functions.join import _bloom_positions, _build_bloom, _key_hash

    bits, k = 1 << 16, 4
    build = ray.data.from_items([{"k": i} for i in range(7)]).repartition(3)
    bloom = np.frombuffer(_build_bloom(build, ["k"], bits, k), dtype=np.uint8)

    probe = pa.table({"k": list(range(7)) + [10_000 + i for i in range(50)]})
    pos = _bloom_positions(_key_hash(probe, ["k"]), bits, k)
    byte_ix = (pos >> np.uint64(3)).astype(np.int64)
    bit = np.left_shift(np.uint8(1), (pos & np.uint64(7)).astype(np.uint8))
    hit = ((bloom[byte_ix] & bit) != 0).all(axis=0)
    assert hit[:7].all()  # no false negatives, ever
    # 50 non-members at 7 keys in 2^16 bits: essentially all pruned
    assert hit[7:].sum() <= 2


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_hash_join_broadcast_path_equals_bucketed(ray_session, how):
    left, right = _datasets()
    bucketed = hash_join(
        left, right, "k", right_on="rk", how=how
    ).take_all()
    bcast = hash_join(
        left, right, "k", right_on="rk", how=how, path="broadcast"
    ).take_all()
    assert _norm(bcast) == _norm(bucketed)


def test_hash_join_broadcast_rejects_right_side_outer(ray_session):
    left, right = _datasets()
    for how in ("right", "full"):
        with pytest.raises(ValueError, match="broadcast"):
            hash_join(left, right, "k", right_on="rk", how=how, path="broadcast")


def test_hash_join_broadcast_empty_right(ray_session):
    import pyarrow as pa

    left, _ = _datasets()
    empty = ray.data.from_arrow(
        pa.table(
            {"rk": pa.array([], pa.int64()), "lv": pa.array([], pa.string()),
             "rw": pa.array([], pa.int64())}
        )
    )
    got = hash_join(
        left, empty, "k", right_on="rk", how="left", path="broadcast"
    ).take_all()
    exp = _replay(_left_rows(), [], ["k"], ["rk"], "left", L_COLS, R_COLS)
    assert _norm(got) == _norm(exp)


@pytest.mark.parametrize("how", ["inner", "left", "full", "semi", "anti"])
def test_hash_join_nested_payload(ray_session, how):
    """Acero rejects nested non-key fields; the indexed fallback joins
    (keys, row index) and attaches list payloads via take — result
    multiset equals the same join with the list column stringified."""
    import pyarrow as pa

    lrows = [
        {"k": 1, "vec": [1.0, 0.0]},
        {"k": 2, "vec": [0.0, 1.0]},
        {"k": 2, "vec": [0.5, 0.5]},
        {"k": None, "vec": [9.0, 9.0]},
    ]
    rrows = [{"k": 1, "w": 10}, {"k": 3, "w": 30}, {"k": None, "w": 0}]
    left = ray.data.from_items(lrows)
    right = ray.data.from_items(rrows)
    got = hash_join(left, right, "k", how=how).take_all()

    flat_left = ray.data.from_items(
        [{**r, "vec": str(r["vec"])} for r in lrows]
    )
    exp = hash_join(flat_left, right, "k", how=how).take_all()
    def norm(rows):
        return sorted(
            ((r["k"], str(r.get("vec")), r.get("w")) for r in rows), key=str
        )

    assert norm(got) == norm(exp)


def test_hash_join_auto_salt_small_phi(ray_session):
    """auto_salt with a small user fraction sizes the MG sketch from
    phi (k > 1/phi), so it runs instead of tripping the recall bound."""
    left = ray.data.from_items([{"k": i % 50, "lv": i} for i in range(3000)])
    right = ray.data.from_items([{"k": i, "w": i} for i in range(50)])
    got = hash_join(left, right, "k", how="inner",
                    auto_salt=0.0005).take_all()
    assert len(got) == 3000
