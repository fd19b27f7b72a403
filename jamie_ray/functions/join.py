"""Distributed equi-join over Ray Datasets — the both-sides-large
complement to the broadcast dimension joins in
``pipelines/relational.py``.

The reference engine has no general table join (its joins are in-row
per-document dict joins — SURVEY §2.4); this is a brief-driven engine
primitive: at 100 TB the fact⋈fact shape (orders ⋈ customer, new-crawl
⋈ previous-crawl) can't broadcast either side.

Shape (the repo's one whole-key shuffle, ``shuffle.sorted_reduce``):

1. tag each side with ``__side`` and ``__salt`` (0 unless the key is
   hot, see below), casting the right side's keys to the left's types;
2. pad both sides to a common schema with null columns (the
   ``temporal.py`` union idiom) and union;
3. ONE sorted shuffle on ``(key columns, __salt)``: every sorted block
   holds whole ``(key, salt)`` units, splits back into left/right
   sub-tables and joins them on ``(key, __salt)`` with
   ``pyarrow.Table.join`` (Acero hash join — vectorized, SQL null
   semantics: null keys never match, outer rows survive with nulls).

Every row moves exactly once, the reducer runs once per sorted block,
and there are ZERO driver-side collections at any data size. Output is
a deterministic row multiset (block/row order is not promised — same
contract as every shuffle op here).

Skew: all rows of one hot key land in one block. For *known* hot keys,
``hot_keys={key: n_salts}`` spreads that key's LEFT rows over salts
``0..n_salts-1`` and REPLICATES its right rows into each salt, so every
``(key, salt)`` unit joins on its own — the result multiset is
bit-identical to the unsalted join for ``inner``/``left``/``semi``/
``anti`` (asserted in tests) and rejected for ``right``/``full``
(replicated right rows would duplicate outer output).
``auto_salt=True`` finds the hot keys with a ``heavy_hitters`` pass
(``functions/sketch.py``).

``path="broadcast"`` is the zero-shuffle small-right variant: the
right side is collected under the edge cap and joined against every
left batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hash_str_array, mix64
from ..shuffle import sorted_reduce

_HOW_TO_ARROW = {
    "inner": "inner",
    "left": "left outer",
    "right": "right outer",
    "full": "full outer",
    "semi": "left semi",
    "anti": "left anti",
}
# semi/anti emit left columns only
_LEFT_ONLY = {"semi", "anti"}
# auto_salt's default hot fraction: a left key holding at least this
# share of the rows is salted, into units of half that share each
_HOT_FRACTION = 2 / 64
# bloom_prune drops a side's rows whose key misses the OTHER side's
# bloom — only legal when that side's unmatched rows never reach the
# output (no false negatives, so no matching row is ever dropped;
# false positives just ride the shuffle and lose in the join)
_BLOOM_VALID = {
    "left": {"inner", "right", "semi"},
    "right": {"inner", "left", "semi", "anti"},
}


def _key_hash(
    batch: pa.Table, cols: list[str], target_types: list | None = None
) -> np.ndarray:
    """Vectorized combined 64-bit hash of the key columns (the bloom
    filter's key; :func:`hash_join` admits int, string, temporal and
    bool keys only).

    ``target_types`` (the LEFT side's key types) normalizes each
    column BEFORE hashing so both sides hash identically even when
    their key types differ (int32 vs int64, timestamp[ms] vs
    timestamp[us]) — the join itself compares the cast values, so the
    hash must too.

    Nulls hash via a fixed sentinel — Arrow's join never matches them,
    so a sentinel collision with a real value costs one bloom false
    positive, not correctness.
    """
    acc = np.zeros(batch.num_rows, dtype=np.uint64)
    for i, c in enumerate(cols):
        col = batch.column(c)
        if target_types is not None and col.type != target_types[i]:
            col = pc.cast(col, target_types[i])
        if pa.types.is_temporal(col.type) or pa.types.is_boolean(col.type):
            # date32/time32 only cast through their 32-bit physical
            # type; timestamp/date64/time64/duration/bool go direct
            try:
                col = pc.cast(col, pa.int64())
            except pa.ArrowNotImplementedError:
                col = pc.cast(pc.cast(col, pa.int32()), pa.int64())
        if pa.types.is_integer(col.type):
            filled = pc.fill_null(pc.cast(col, pa.int64()), -(1 << 63))
            h = filled.to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            h = hash_str_array(pc.fill_null(col, "\x00null").to_pylist())
        acc = mix64(acc ^ h, seed=i + 1)
    return acc


def _join_tables(l_t: pa.Table, r_t: pa.Table, keys: list[str], arrow_how: str) -> pa.Table:
    """``pa.Table.join`` that tolerates NESTED (list/struct/map) payload
    columns, which Acero's hash join rejects ("Data type list<...> is
    not supported in join non-key field"): when any non-key field is
    nested, Acero joins only (keys, row index) and the payloads attach
    afterwards via ``take`` (null index -> null row, preserving outer
    semantics). Embedding columns (``list<float>``) are the motivating
    case. Flat-payload joins take the direct Acero path unchanged."""
    nested = any(
        pa.types.is_nested(f.type)
        for t in (l_t, r_t)
        for f in t.schema
        if f.name not in keys
    )
    if not nested:
        return l_t.join(r_t, keys=keys, join_type=arrow_how)
    li = l_t.select(keys).append_column(
        "__li", pa.array(np.arange(l_t.num_rows, dtype=np.int64))
    )
    if arrow_how in ("left semi", "left anti"):
        m = li.join(r_t.select(keys), keys=keys, join_type=arrow_how)
        return l_t.take(m.column("__li"))
    ri = r_t.select(keys).append_column(
        "__ri", pa.array(np.arange(r_t.num_rows, dtype=np.int64))
    )
    m = li.join(ri, keys=keys, join_type=arrow_how)
    out = {c: m.column(c) for c in keys}
    lidx, ridx = m.column("__li"), m.column("__ri")
    for c in l_t.column_names:
        if c not in keys:
            out[c] = pc.take(l_t.column(c).combine_chunks(), lidx)
    for c in r_t.column_names:
        if c not in keys:
            out[c] = pc.take(r_t.column(c).combine_chunks(), ridx)
    return pa.table(out)


def _bloom_positions(h: np.ndarray, bits: int, n_hashes: int) -> np.ndarray:
    """(n_hashes, n_rows) bit positions for each key hash."""
    return np.stack(
        [mix64(h, seed=0xB100F + j) % np.uint64(bits) for j in range(n_hashes)]
    )


def _build_bloom(
    ds, key_cols: list[str], bits: int, n_hashes: int,
    target_types: list | None = None,
) -> bytes:
    """Distributed bloom filter of a Dataset's key column(s).

    Each block emits ONE packed-bitmap row (bits/8 bytes); the driver
    ORs them streaming, holding a single bitmap — driver memory is
    O(bits), network is O(blocks x bits/8). For the default 2^23 bits
    (1 MiB, ~1% FP at ~1M distinct keys per MiB rule of thumb) that is
    trivially bounded at any corpus size; size ``bits`` to the build
    side's expected distinct-key count.
    """

    def block_bitmap(batch: pa.Table) -> pa.Table:
        buf = np.zeros(bits // 8, dtype=np.uint8)
        if batch.num_rows:
            pos = _bloom_positions(
                _key_hash(batch, key_cols, target_types), bits, n_hashes
            )
            flat = pos.reshape(-1)
            np.bitwise_or.at(buf, (flat >> np.uint64(3)).astype(np.int64),
                             np.left_shift(np.uint8(1), (flat & np.uint64(7)).astype(np.uint8)))
        return pa.table({"bitmap": pa.array([buf.tobytes()], pa.large_binary())})

    acc = np.zeros(bits // 8, dtype=np.uint8)
    bm_ds = ds.map_batches(block_bitmap, batch_format="pyarrow")
    for batch in bm_ds.iter_batches(batch_size=1, batch_format="pyarrow"):
        for buf in batch.column("bitmap").to_pylist():
            acc |= np.frombuffer(buf, dtype=np.uint8)
    return acc.tobytes()


def hash_join(
    left,
    right,
    on,
    *,
    right_on=None,
    how: str = "inner",
    suffix: str = "_r",
    hot_keys: dict | None = None,
    auto_salt: bool | float = False,
    path: str = "bucketed",
    bloom_prune: str | None = None,
    bloom_bits: int = 1 << 23,
    bloom_hashes: int = 4,
):
    """left ⋈ right on equality of key columns -> joined Dataset.

    ``on``: key column name or list of names (the left side's; pass
    ``right_on`` when the right side names differ — output uses the
    left names). ``how``: inner | left | right | full | semi | anti
    (semi/anti return left columns only). Right payload columns that
    collide with left names gain ``suffix``. ``hot_keys``: {key value
    (tuple for multi-column keys): n_salts} — see module docstring.

    ``auto_salt=True`` detects hot LEFT keys instead of requiring them
    a priori: a Misra-Gries heavy-hitter pass (``sketch.
    heavy_hitters`` — exact counts, provable recall) finds keys above
    ``2/64`` of the rows (pass a float to set the fraction) and splits
    each into salt units of ``1/64`` of the rows; explicit
    ``hot_keys`` entries win on conflict. Costs two extra streaming
    passes over the left keys — spill a derived left first. Single-
    column keys only; same inner/left/semi/anti restriction as
    ``hot_keys``.

    ``bloom_prune="right"`` (or ``"left"``) cuts shuffle volume for
    selective joins: a bloom filter of the OTHER side's keys (built
    distributed, ``bloom_bits`` wide — size it to that side's
    distinct-key count; driver holds ONE bitmap) is broadcast and the
    pruned side drops rows whose key can't match before the shuffle.
    No false negatives, so the result is bit-identical (asserted in
    tests); false positives just ride the shuffle and lose in the
    join. Only legal where the pruned side's unmatched rows never
    reach the output: prune right for inner/left/semi/anti, prune
    left for inner/right/semi.

    Note the bloom BUILD side executes twice (bloom pass + the join
    itself) — spill a derived upstream to parquet first, the
    repo-wide spill contract. Driver state is one bitmap (O(bits)),
    never data-scale.
    """
    if how not in _HOW_TO_ARROW:
        raise ValueError(f"hash_join: how must be one of {sorted(_HOW_TO_ARROW)}")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on)
    )
    if len(on) != len(right_on):
        raise ValueError("hash_join: on and right_on lengths differ")
    if (hot_keys or auto_salt) and how in ("right", "full"):
        raise ValueError(
            "hash_join: hot_keys/auto_salt replicates right rows — "
            "unsupported for right/full outer joins"
        )
    if (hot_keys or auto_salt) and path != "bucketed":
        raise ValueError(
            "hash_join: hot_keys/auto_salt only applies to path='bucketed'"
        )
    if path not in ("bucketed", "broadcast"):
        raise ValueError("hash_join: path must be 'bucketed' or 'broadcast'")
    if auto_salt and len([on] if isinstance(on, str) else on) != 1:
        raise ValueError("hash_join: auto_salt supports single-column keys only")
    if bloom_prune is not None:
        if bloom_prune not in _BLOOM_VALID:
            raise ValueError("hash_join: bloom_prune must be 'left' or 'right'")
        if how not in _BLOOM_VALID[bloom_prune]:
            raise ValueError(
                f"hash_join: bloom_prune={bloom_prune!r} would drop "
                f"{bloom_prune}-side rows that a {how!r} join must keep"
            )
        if bloom_bits & (bloom_bits - 1):
            raise ValueError("hash_join: bloom_bits must be a power of two")

    l_wrap, r_wrap = left.schema(), right.schema()
    if l_wrap is None or r_wrap is None:
        raise ValueError(
            "hash_join: input schema unavailable (empty schema-less "
            "Dataset?) — join inputs must carry a schema"
        )
    l_schema = l_wrap.base_schema
    r_schema = r_wrap.base_schema
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    for c in on:
        if c not in l_names:
            raise KeyError(f"hash_join: left has no column {c!r}")
    for c in right_on:
        if c not in r_names:
            raise KeyError(f"hash_join: right has no column {c!r}")
    for c in on:
        t = l_schema.field(c).type
        if not (
            pa.types.is_integer(t) or pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_temporal(t) or pa.types.is_boolean(t)
        ):
            raise TypeError(
                f"hash_join: unsupported key column type {t} for "
                f"{c!r} (int and string keys only — cast first)"
            )

    l_payload = [c for c in l_names if c not in on]
    # right payload renamed: suffix on collisions with ANY left column
    r_payload_src = [c for c in r_names if c not in right_on]
    r_rename = {
        c: (c + suffix if c in l_names else c) for c in r_payload_src
    }
    r_payload = [r_rename[c] for c in r_payload_src]
    clash = set(r_payload) & set(l_payload) | set(r_payload) & set(on)
    if clash:
        raise ValueError(f"hash_join: column collision after suffix: {sorted(clash)}")

    # the bloom hash normalizes key columns to the LEFT side's types
    # first — both sides must hash identically even when their
    # declared key types differ
    key_types = [l_schema.field(c).type for c in on]

    if bloom_prune is not None:
        import ray

        from ..state.worker_cache import cached_get

        build_ds, build_cols = (
            (right, right_on) if bloom_prune == "left" else (left, on)
        )
        bloom_ref = ray.put(
            _build_bloom(build_ds, build_cols, bloom_bits, bloom_hashes, key_types)
        )
        prune_cols = on if bloom_prune == "left" else right_on

        def prune(batch: pa.Table) -> pa.Table:
            if not batch.num_rows:
                return batch
            buf = np.frombuffer(
                cached_get(bloom_ref, "hash_join_bloom"), dtype=np.uint8
            )
            pos = _bloom_positions(
                _key_hash(batch, prune_cols, key_types), bloom_bits, bloom_hashes
            )
            byte_ix = (pos >> np.uint64(3)).astype(np.int64)
            bit = np.left_shift(
                np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)
            )
            hit = ((buf[byte_ix] & bit) != 0).all(axis=0)
            return batch.filter(pa.array(hit))

        if bloom_prune == "left":
            left = left.map_batches(prune, batch_format="pyarrow")
        else:
            right = right.map_batches(prune, batch_format="pyarrow")

    # right side normalized to the output contract: key columns take
    # the LEFT names and types, payload takes the suffix renames
    l_key_types = {c: l_schema.field(c).type for c in on}

    def _normalize_right_batch(b: pa.Table) -> pa.Table:
        cols = {}
        for c in b.column_names:
            if c in right_on:
                name = on[right_on.index(c)]
                cols[name] = pc.cast(b.column(c), l_key_types[name])
            else:
                cols[r_rename[c]] = b.column(c)
        return pa.table(cols).select(on + r_payload)

    if path == "broadcast":
        # small-right path: zero shuffle — the whole right side is
        # collected ONCE under the edge cap (loud failure when it
        # isn't small), ray.put once, and every left batch joins
        # against the broadcast Arrow table. Unmatched RIGHT rows
        # can't be emitted from a streaming per-left-batch join, so
        # right/full are rejected.
        if how in ("right", "full"):
            raise ValueError(
                "hash_join: path='broadcast' cannot emit unmatched right "
                "rows — use the bucketed path for right/full outer joins"
            )
        import ray

        from ..state.collect import iter_capped_batches
        from ..state.worker_cache import cached_get

        r_types_b = {
            r_rename[f.name]: f.type for f in r_schema if f.name not in right_on
        }
        parts = [
            b
            for b in iter_capped_batches(
                right.map_batches(_normalize_right_batch, batch_format="pyarrow"),
                context="hash_join broadcast right side",
            )
            if b.num_rows
        ]
        rtab = (
            pa.concat_tables(parts)
            if parts
            else pa.table(
                {
                    c: pa.array([], l_key_types[c] if c in on else r_types_b[c])
                    for c in on + r_payload
                }
            )
        )
        rtab_ref = ray.put(rtab)
        arrow_how_b = _HOW_TO_ARROW[how]
        out_cols_b = on + l_payload + ([] if how in _LEFT_ONLY else r_payload)

        def bcast_join(batch: pa.Table) -> pa.Table:
            rt = cached_get(rtab_ref, "hash_join_bcast_right")
            return _join_tables(
                batch.select(on + l_payload), rt, on, arrow_how_b
            ).select(out_cols_b)

        return left.map_batches(bcast_join, batch_format="pyarrow")

    if auto_salt:
        import math

        from .sketch import heavy_hitters

        phi = _HOT_FRACTION if auto_salt is True else float(auto_salt)
        # null keys never match, so they need no salt
        keys_ds = left.select_columns([on[0]]).map_batches(
            lambda b: b.filter(pc.is_valid(b.column(0))), batch_format="pyarrow"
        )
        n_left = keys_ds.count()
        detected: dict = {}
        if n_left:
            # MG recall bound needs k > 1/phi (sketch.py raises at
            # equality) — size the sketch from the requested fraction,
            # so small user phis work
            k_mg = max(1024, math.ceil(1.0 / phi) + 1)
            hh = heavy_hitters(keys_ds, on[0], phi=phi, k=k_mg)
            unit = max(1.0, n_left * _HOT_FRACTION / 2)
            for row in hh.take_all():
                n_salts = math.ceil(row["n"] / unit)
                if n_salts > 1:
                    detected[row[on[0]]] = n_salts
        hot_keys = {**detected, **(hot_keys or {})}  # explicit wins

    # hot-key salt plan: key tuple -> number of salts
    salt_plan: dict = {}
    for k, n in (hot_keys or {}).items():
        if n < 1:
            raise ValueError("hash_join: hot_keys salt count must be >= 1")
        key_t = k if isinstance(k, tuple) else (k,)
        if len(key_t) != len(on):
            raise ValueError(
                f"hash_join: hot key {k!r} arity != {len(on)} key columns"
            )
        salt_plan[key_t] = int(n)

    def tag(side: int, key_cols: list[str], payload: dict):
        """map_batches fn: select/rename to the union schema + __side +
        __salt. A hot left row takes salt ``row index % n_salts`` (which
        salt never changes the result); a hot right row is replicated
        into every salt of its key."""

        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {
                ok: pc.cast(batch.column(kc), l_key_types[ok])
                for ok, kc in zip(on, key_cols)
            }
            for src, dst in payload.items():
                cols[dst] = batch.column(src)
            salt = np.zeros(n, dtype=np.int64)
            replicas: list[tuple[int, int]] = []
            if salt_plan and n:
                key_rows = zip(*(batch.column(c).to_pylist() for c in key_cols))
                for i, kt in enumerate(key_rows):
                    k = salt_plan.get(kt)
                    if k is None:
                        continue
                    if side == 0:
                        salt[i] = i % k
                    else:
                        replicas.extend((i, s) for s in range(1, k))
            out = pa.table(
                {
                    **cols,
                    "__side": pa.array(np.full(n, side, dtype=np.int8)),
                    "__salt": pa.array(salt),
                }
            )
            if replicas:
                rows, salts = (np.array(v, dtype=np.int64) for v in zip(*replicas))
                rep = out.take(pa.array(rows))
                rep = rep.set_column(rep.num_columns - 1, "__salt", pa.array(salts))
                out = pa.concat_tables([out, rep])
            return out

        return fn

    lt = left.map_batches(tag(0, on, {c: c for c in l_payload}), batch_format="pyarrow")
    rt = right.map_batches(tag(1, right_on, r_rename), batch_format="pyarrow")

    # pad to the common union schema (null columns for the other
    # side's payload — a few validity bits per row through the shuffle)
    l_types = {f.name: f.type for f in l_schema}
    r_types = {
        r_rename[f.name]: f.type for f in r_schema if f.name not in right_on
    }
    union_order = on + l_payload + r_payload + ["__side", "__salt"]

    def pad(missing_types: dict):
        def fn(batch: pa.Table) -> pa.Table:
            for c, t in missing_types.items():
                batch = batch.append_column(c, pa.nulls(batch.num_rows, t))
            return batch.select(union_order)

        return fn

    lt = lt.map_batches(pad(r_types), batch_format="pyarrow")
    rt = rt.map_batches(pad({c: l_types[c] for c in l_payload}), batch_format="pyarrow")

    arrow_how = _HOW_TO_ARROW[how]
    join_keys = on + ["__salt"]
    out_cols = on + l_payload + ([] if how in _LEFT_ONLY else r_payload)

    def merge(block: pa.Table) -> pa.Table:
        side = block.column("__side")
        l_t = block.filter(pc.equal(side, 0)).select(join_keys + l_payload)
        r_t = block.filter(pc.equal(side, 1)).select(join_keys + r_payload)
        return _join_tables(l_t, r_t, join_keys, arrow_how).select(out_cols)

    return sorted_reduce(lt.union(rt), join_keys, merge)
