"""Deterministic corpus sampling and weighted mixture — the
data-mixing step of every large-scale training-data pipeline (public
recipes: The Pile, Gao et al. 2020 table 1 epoch weights; LLaMA,
Touvron et al. 2023 table 1 sampling proportions; DoReMi, Xie et al.
2023 domain reweighting).

No RNG state anywhere (repo determinism rule): a row is kept iff
``uniform01(mix64(hash(id), seed)) < rate`` — a pure function of the
row id and the salt. Consequences, all pinned by ``test_sampling.py``:

- **reproducible**: the same call yields the same sample on any block
  layout, any cluster size, any run;
- **nested**: at one salt, the sample at rate ``r1 <= r2`` is a SUBSET
  of the sample at ``r2`` (both threshold the same per-id uniform), so
  growing a data budget never churns already-selected documents;
- **independent across salts**: different salts draw from independent
  hash families (``mix64`` seed separation).

Scale shape: sampling is a stateless vectorized ``map_batches`` filter
(integer ids never leave numpy; string ids hash per-batch) — no
shuffle, no driver state, nothing materialized. Mixing is a lazy
``union`` of per-source streams; oversampling (weight > 1) emits
``floor(w)`` full passes tagged ``epoch`` plus a fractional hash
sample, which is how public mixtures express "2.5 epochs of source X".
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray

from ..hashing import hash_str_array, stable_hash64, uniform01
from ..shuffle import sorted_reduce

__all__ = [
    "hash_sample",
    "mix_corpora",
    "group_sample",
    "deterministic_shuffle",
]


def _id_uniform(ids: pa.ChunkedArray | pa.Array, seed: int) -> np.ndarray:
    """Per-id deterministic uniform in [0, 1). Integer ids stay in
    numpy end to end; strings hash per batch (vocabulary-sized work).
    Null ids are rejected loudly — a sample keyed on null is a bug."""
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    if ids.null_count:
        raise ValueError("hash_sample: id column contains nulls")
    if pa.types.is_integer(ids.type):
        base = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        base = hash_str_array([str(v) for v in ids.to_pylist()])
    return uniform01(base, seed)


def hash_sample(
    ds,
    rate: float,
    *,
    id_col: str = "doc_id",
    salt: str = "",
):
    """Keep each row with probability ``rate`` — deterministically, as
    a pure function of ``(salt, row id)``. ``rate`` outside [0, 1]
    raises. See the module docstring for the nesting / reproducibility
    guarantees."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"hash_sample: rate {rate} outside [0, 1]")
    seed = stable_hash64("hash_sample", salt) & ((1 << 32) - 1)

    def keep(batch: pa.Table) -> pa.Table:
        if rate >= 1.0:
            return batch
        if rate <= 0.0:
            return batch.slice(0, 0)
        mask = _id_uniform(batch.column(id_col), seed) < rate
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def deterministic_shuffle(ds, *, id_col: str = "doc_id", salt: str = ""):
    """Global corpus reorder as a PURE FUNCTION of ``(salt, row id)`` —
    the training-order randomization step (every epoch of an LLM run
    wants the documents in a fresh order; ``pack_sequences`` consumes
    its input in id order, so shuffle-then-repack with a per-epoch salt
    yields a distinct, reproducible token stream per epoch).

    No RNG state (the repo determinism rule): each row gets the key
    ``uniform01(mix64(hash(id), seed(salt)))`` and the Dataset is
    SORTED by ``(key, id)`` — bit-identical order on any block layout,
    any cluster size, any run; different salts draw independent orders
    (``random_shuffle`` by contrast is seed-stable only for a fixed
    layout). The id tiebreak makes hash collisions harmless.

    Scale shape: one streaming key pass + the engine's distributed
    sample-based range sort (the same all-to-all every global reorder
    costs — there is no cheaper exact shuffle); the key column never
    outlives the op. Null ids are rejected loudly by ``_id_uniform``.
    """
    seed = stable_hash64("det_shuffle", salt) & ((1 << 32) - 1)

    def add_key(batch: pa.Table) -> pa.Table:
        if "__shuffle_key" in batch.column_names:
            raise ValueError(
                "deterministic_shuffle: input already has __shuffle_key"
            )
        u = _id_uniform(batch.column(id_col), seed)
        return batch.append_column("__shuffle_key", pa.array(u, pa.float64()))

    return (
        ds.map_batches(add_key, batch_format="pyarrow")
        .sort(["__shuffle_key", id_col])
        .map_batches(
            lambda b: b.drop_columns(["__shuffle_key"]), batch_format="pyarrow"
        )
    )


def _tag(ds, source: str, epoch: int):
    def add(batch: pa.Table) -> pa.Table:
        for col in ("source", "epoch"):
            if col in batch.column_names:
                # appending a second same-named column silently
                # corrupts downstream row conversion — fail loudly
                # (re-mixing a mixture should rename/drop tags first)
                raise ValueError(
                    f"mix_corpora: input already has a {col!r} column"
                )
        n = batch.num_rows
        batch = batch.append_column(
            "source", pa.array([source] * n, pa.string())
        )
        return batch.append_column(
            "epoch", pa.array(np.full(n, epoch, dtype=np.int32), pa.int32())
        )

    return ds.map_batches(add, batch_format="pyarrow")


def mix_corpora(
    sources: list[tuple[str, "object", float]],
    *,
    id_col: str = "doc_id",
    salt: str = "",
):
    """Weighted mixture of corpora: ``sources`` is a list of
    ``(name, dataset, weight)``. Weight semantics follow the public
    mixture tables: ``w <= 1`` downsamples to that fraction; ``w > 1``
    emits ``floor(w)`` FULL passes over the source plus a fractional
    hash sample of the remainder. Every output row carries ``source``
    (the given name) and ``epoch`` (0-based; the fractional sample is
    epoch ``floor(w)``). All sources must share a schema (including
    ``id_col``); the result is a lazy union — nothing materializes.

    The fractional sample's salt is ``{salt}:{name}`` so each source
    draws an independent family and re-weighting one source never
    perturbs another's selection."""
    if not sources:
        raise ValueError("mix_corpora: no sources")
    parts = []
    for name, ds, w in sources:
        if w < 0:
            raise ValueError(f"mix_corpora: negative weight for {name!r}")
        full = math.floor(w)
        frac = w - full
        for e in range(full):
            parts.append(_tag(ds, name, e))
        if frac > 0:
            parts.append(
                _tag(
                    hash_sample(
                        ds, frac, id_col=id_col, salt=f"{salt}:{name}"
                    ),
                    name,
                    full,
                )
            )
    if not parts:
        raise ValueError("mix_corpora: all weights are zero")
    first, *rest = parts
    return first.union(*rest) if rest else first


def group_sample(
    ds,
    k: int,
    key_col: str,
    *,
    id_col: str = "doc_id",
    salt: str = "",
    edge_cap: int | None = None,
):
    """Balanced per-group sample: for each distinct ``key_col`` value,
    keep the ``k`` rows whose per-id uniform (same
    ``uniform01(mix64(hash(id)))`` family as :func:`hash_sample`) is
    smallest — e.g. "5,000 documents per language". Deterministic, and
    NESTED in ``k`` at one salt: the k1-sample is a subset of the
    k2-sample for k1 <= k2, so growing a per-group budget never churns
    already-selected rows.

    Physical plan: a per-block combiner keeps at most ``k`` candidates
    per (block, key) — the one sorted shuffle on the key
    (``shuffle.sorted_reduce``) carries ``(key, id, u)`` short rows
    bounded by blocks x groups x k, never the corpus; the merge of each
    sorted block re-selects the global k per key; winners (k x
    n_groups ``(key, id)`` pairs, capped loudly)
    broadcast; one streaming filter pass returns the original rows
    intact. The input is consumed twice — pass a source-backed
    Dataset. Precondition: at most one row per ``(key_col, id_col)``
    pair (duplicate rows of one id inside a group each consume a slot
    of ``k`` and both survive the filter).
    """
    if k <= 0:
        raise ValueError(f"group_sample: k {k} must be positive")
    from ..state.collect import DEFAULT_EDGE_CAP, iter_capped_batches
    from ..state.worker_cache import cached_get

    cap = edge_cap or DEFAULT_EDGE_CAP
    seed = stable_hash64("group_sample", salt) & ((1 << 32) - 1)

    def _select_k(keys: list, ids: list, us: np.ndarray):
        """Per distinct key, indexes of the k smallest (u, id)."""
        by_key: dict = {}
        for i, key in enumerate(keys):
            by_key.setdefault(key, []).append(i)
        out: list[int] = []
        for idxs in by_key.values():
            idxs.sort(key=lambda i: (us[i], ids[i]))
            out.extend(idxs[:k])
        return sorted(out)

    def combine(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        ids = batch.column(id_col).to_pylist()
        us = _id_uniform(batch.column(id_col), seed)
        picked = _select_k(keys, ids, us)
        # key/id typed from the INPUT columns: an empty block's
        # pa.array([]) would infer null type and break block schema
        # unification in the shuffle (the kmv_distinct guard)
        return pa.table(
            {
                "key": pa.array(
                    [keys[i] for i in picked], batch.column(key_col).type
                ),
                "id": pa.array(
                    [ids[i] for i in picked], batch.column(id_col).type
                ),
                "u": pa.array(us[picked], pa.float64()),
            }
        )

    def merge(block: pa.Table) -> pa.Table:
        keys = block.column("key").to_pylist()
        ids = block.column("id").to_pylist()
        us = block.column("u").to_numpy(zero_copy_only=False)
        picked = _select_k(keys, ids, us)
        return pa.table(
            {
                "key": pa.array(
                    [keys[i] for i in picked], block.column("key").type
                ),
                "id": pa.array(
                    [ids[i] for i in picked], block.column("id").type
                ),
            }
        )

    winners = sorted_reduce(
        ds.map_batches(combine, batch_format="pyarrow"), "key", merge
    )
    # membership is (key, id) PAIRS, not bare ids: an id appearing
    # under several keys (a doc replicated per group) must only keep
    # the rows of the groups where it actually won
    selected: set = set()
    for b in iter_capped_batches(winners, cap=cap, context="group sample winners"):
        selected.update(
            zip(b.column("key").to_pylist(), b.column("id").to_pylist())
        )
    sel_ref = ray.put(frozenset(selected))

    def keep(batch: pa.Table) -> pa.Table:
        sel = cached_get(sel_ref, "group_sample_selected")
        mask = [
            (k, i) in sel
            for k, i in zip(
                batch.column(key_col).to_pylist(),
                batch.column(id_col).to_pylist(),
            )
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(keep, batch_format="pyarrow")
