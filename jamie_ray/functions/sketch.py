"""Mergeable sketches for wide aggregations (custom-operator class
"a novel sketch" from the brief; no reference analogue — the reference
never aggregates beyond label vocabularies).

Three operators, all DESIGNED to give exact, oracle-checkable answers
while keeping the sketch's distributed shape:

- :func:`kmv_distinct` — K-Minimum-Values distinct count per group.
  Each block keeps the k smallest ``stable_hash64`` values per group
  (a combiner — bounded state regardless of block size); one tiny
  shuffle merges per-block sketches by sorted-union-truncate. With
  fewer than k distinct values the sketch IS the distinct set (exact
  count); beyond k it estimates ``(k-1) * 2^64 / h_k`` — the standard
  KMV estimator. Deterministic either way (no RNG: the hash is fixed).
- :func:`heavy_hitters` — exact frequent items via the two-pass
  Misra-Gries pattern: pass 1 runs an MG summary per block (bounded
  memory) and merges summaries; the merged summary's guarantee
  (undercount <= n/k) makes it a SUPERSET of every item with true
  frequency >= n/k. Pass 2 broadcast-filters to the candidates and
  counts them exactly — so the output is the exact set and exact
  counts of items above the threshold, while the full-key groupby a
  naive implementation would need never happens.

- :func:`quantiles_exact` — exact distributed quantiles by
  sample/count/select: per-batch sorted samples, one vectorized
  counting pass for exact sample ranks, then a bounded window fetch
  for ranks landing between samples. No global sort, no randomness.

Scale notes: the sketch shuffles carry O(groups × k) rows, independent
of input size; the MG candidate set is <= k items broadcast via the
closure (ids only); the quantile driver state is the sample set plus
one capped window.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..hashing import stable_hash64
from ..shuffle import run_bounds, sorted_reduce

DEFAULT_K = 8192


def _min_hashes(values: list, k: int) -> list[int]:
    hs = np.unique(
        np.array([stable_hash64("kmv", v) for v in values], dtype=np.uint64)
    )
    return hs[:k].tolist()  # np.unique sorts ascending


def kmv_distinct(ds, group_col: str, value_col: str, k: int = DEFAULT_K):
    """Dataset -> (group_col, n_distinct) via per-group KMV sketches.

    Exact whenever a group's true distinct count < ``k`` (the sketch
    holds the whole hash set); the KMV estimate beyond that. One
    shuffle of <= k hashes per (block, group).
    """

    def local(batch: pa.Table) -> pa.Table:
        g_type = batch.column(group_col).type
        batch = batch.select([group_col, value_col]).sort_by(group_col)
        groups = batch.column(group_col)
        values = batch.column(value_col).to_pylist()
        out_g, out_h = [], []
        # sort + run-walk: ONE pass regardless of group count (a filter
        # per distinct value is O(groups x rows) — the near-singleton
        # regime the repo shuffle rule warns about)
        for s, e in zip(*run_bounds(batch, group_col)):
            out_g.append(groups[int(s)].as_py())
            out_h.append(_min_hashes(values[s:e], k))
        # key column typed from the INPUT (an empty block would
        # otherwise infer null type and break block schema unification)
        return pa.table(
            {
                group_col: pa.array(out_g, g_type),
                "kmv": pa.array(out_h, pa.list_(pa.uint64())),
            }
        )

    def merge(block: pa.Table) -> pa.Table:
        block = block.sort_by(group_col)
        sketches = block.column("kmv").to_pylist()
        starts, ends = run_bounds(block, group_col)
        out_n = []
        for s, e in zip(starts, ends):
            merged = np.unique(
                np.concatenate(
                    [np.asarray(h, dtype=np.uint64) for h in sketches[s:e]]
                )
            )[:k]
            if len(merged) < k:
                n = len(merged)  # sketch holds the whole set: exact
            else:
                n = int(round((k - 1) * float(1 << 64) / float(merged[-1])))
            out_n.append(n)
        return pa.table(
            {
                group_col: block.column(group_col).take(pa.array(starts, pa.int64())),
                "n_distinct": pa.array(out_n, pa.int64()),
            }
        )

    return sorted_reduce(
        ds.map_batches(local, batch_format="pyarrow"), group_col, merge
    )


def _mg_update(counters: dict, value, k: int) -> None:
    if value in counters:
        counters[value] += 1
    elif len(counters) < k - 1:
        counters[value] = 1
    else:  # decrement-all step
        dead = []
        for key in counters:
            counters[key] -= 1
            if counters[key] == 0:
                dead.append(key)
        for key in dead:
            del counters[key]


def _mg_reduce(merged: dict, k: int) -> dict:
    """The STANDARD Misra-Gries merge reduction (Agarwal et al.,
    mergeable summaries): when the summed summary exceeds k-1 items,
    subtract the k-th largest count from every item and drop
    non-positives. This keeps the total undercount <= n_total/k — a
    plain truncate-top-(k-1) would NOT: a heavy item whose mass is
    spread thin across blocks merges to a small count and can be
    out-ranked by concentrated tail items, silently losing recall."""
    if len(merged) >= k:
        kth = sorted(merged.values(), reverse=True)[k - 1]
        merged = {v: c - kth for v, c in merged.items() if c - kth > 0}
    return merged


def heavy_hitters(
    ds,
    col: str,
    min_count: int | None = None,
    *,
    phi: float | None = None,
    k: int = 1024,
):
    """Dataset -> (col, n) EXACT counts of every value occurring at
    least ``min_count`` times (or ``phi`` fraction of all rows),
    without a full-key groupby.

    Correctness requirement (checked): the merged Misra-Gries summary
    undercounts any item by at most n_total/k, so the candidate set
    provably contains every item with true count >= n_total/k; the
    function requires ``k >= n_total / min_count`` (equivalently
    ``k >= 1/phi``), failing loudly rather than silently losing
    recall — the no-silent-caps rule.
    """
    import math

    if (min_count is None) == (phi is None):
        raise ValueError("pass exactly one of min_count / phi")

    def local(batch: pa.Table) -> pa.Table:
        if batch.column(col).null_count:
            raise ValueError(
                f"heavy_hitters: column {col!r} contains nulls — a null "
                "can't be ranked (drop/impute upstream)"
            )
        counters: dict = {}
        for v in batch.column(col).to_pylist():
            _mg_update(counters, v, k)
        items = sorted(counters)
        # the block's row count rides the FIRST summary row (a null-
        # valued marker row when the MG dict emptied itself), so the
        # driver learns n_total from this same pass — no separate
        # full ds.count() scan re-executing the upstream lineage
        n = batch.num_rows
        if not items:
            if not n:
                return pa.table(
                    {
                        col: pa.array([], batch.column(col).type),
                        "mg_count": pa.array([], pa.int64()),
                        "block_n": pa.array([], pa.int64()),
                    }
                )
            return pa.table(
                {
                    col: pa.array([None], batch.column(col).type),
                    "mg_count": pa.array([0], pa.int64()),
                    "block_n": pa.array([n], pa.int64()),
                }
            )
        return pa.table(
            {
                col: pa.array(items, batch.column(col).type),
                "mg_count": pa.array([counters[i] for i in items], pa.int64()),
                "block_n": pa.array(
                    [n] + [0] * (len(items) - 1), pa.int64()
                ),
            }
        )

    # merge block summaries on the driver INCREMENTALLY: MG merge
    # (sum counts, then the subtractive reduction) is associative and
    # preserves the total undercount bound <= n_total/k (Agarwal et
    # al., mergeable summaries), so reducing after every absorbed
    # batch keeps driver state bounded at k-1 entries plus one
    # in-flight batch — never the unbounded n_blocks x (k-1) union.
    merged: dict = {}
    n_total = 0
    summaries = ds.map_batches(local, batch_format="pyarrow")
    for b in summaries.iter_batches(batch_format="pyarrow"):
        n_total += sum(b.column("block_n").to_pylist())
        for v, c in zip(b.column(col).to_pylist(), b.column("mg_count").to_pylist()):
            if v is None:  # row-count marker from an emptied MG dict
                continue
            merged[v] = merged.get(v, 0) + c
        merged = _mg_reduce(merged, k)
    if min_count is None:
        min_count = max(1, math.ceil(phi * n_total))
    # STRICT bound: MG's guarantee is undercount <= n/k, so an item
    # with true count exactly n/k can merge to zero — equality at the
    # bound loses recall, hence <= not <
    if k <= n_total / max(min_count, 1):
        raise ValueError(
            f"heavy_hitters recall bound violated: k={k} <= n_total/min_count "
            f"= {n_total}/{min_count} — raise k or min_count/phi"
        )
    merged = _mg_reduce(merged, k)
    candidates = set(merged)

    # pass 2: exact counts of the candidates only (broadcast filter ->
    # partial counts -> one tiny sorted reduce)
    def count_candidates(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_pylist()
        acc: dict = {}
        for v in vals:
            if v in candidates:
                acc[v] = acc.get(v, 0) + 1
        items = sorted(acc)
        return pa.table(
            {
                col: pa.array(items, batch.column(col).type),
                "n": pa.array([acc[i] for i in items], pa.int64()),
            }
        )

    def finish(block: pa.Table) -> pa.Table:
        agg = block.group_by(col, use_threads=False).aggregate([("n", "sum")])
        out = pa.table({col: agg.column(col), "n": agg.column("n_sum")})
        return out.filter(pc.greater_equal(out.column("n"), min_count))

    return sorted_reduce(
        ds.map_batches(count_candidates, batch_format="pyarrow"), col, finish
    )


def quantiles_exact(
    ds,
    col: str,
    qs: list[float],
    sample_stride: int = 1024,
    window_cap: int = 2_000_000,
):
    """EXACT distributed quantiles without a global sort.

    Returns a pyarrow Table (q, value) where value is the element at
    0-based rank ``floor(q * (n-1))`` of the sorted column — the
    classic sample/count/select shape:

    1. **sample pass**: each batch emits every ``sample_stride``-th
       element of its sorted values (plus endpoints) — between two
       adjacent merged samples fewer than batches × stride elements
       can hide;
    2. **count pass**: one vectorized ``searchsorted`` per batch
       against the broadcast sorted samples yields each sample's EXACT
       global rank (count below + count equal);
    3. **select**: a target rank landing inside a sample's duplicate
       run is answered directly; otherwise the strictly-between window
       (provably < batches × stride values) is fetched (capped — loud
       failure, never an OOM), sorted, and indexed.

    Three streaming passes (the total row count falls out of the count
    pass — the global max is always sampled, so n = below[-1] + eq[-1]
    — no separate counting scan), driver memory bounded by the sample
    set + one window. No randomness anywhere — bit-deterministic.
    Like ``minhash_clusters``, pass a source-backed Dataset: a derived
    pipeline would re-execute its upstream compute once per pass.
    """
    from ..state.collect import EdgeCapExceeded

    for q in qs:
        # a negative q would otherwise wrap a negative window index and
        # return an arbitrary in-window value with no error
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantiles_exact: q {q} outside [0, 1]")

    def _col_f64(batch: pa.Table) -> np.ndarray:
        # zero-copy-where-possible Arrow -> numpy (no per-row boxing)
        return batch.column(col).to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False
        )

    def sample(batch: pa.Table) -> pa.Table:
        vals = np.sort(_col_f64(batch))
        if not len(vals):
            return pa.table({"v": pa.array([], pa.float64())})
        # finite-only precondition, checked loudly: np.sort places NaN
        # last and every searchsorted comparison against NaN is false,
        # so a NaN would silently shift every rank instead of failing
        if np.isnan(vals[-1]):  # sorted => any NaN is at the tail
            raise ValueError(
                f"quantiles_exact: column {col!r} contains NaN — "
                "drop/impute NaNs upstream (finite values only)"
            )
        idx = np.unique(
            np.concatenate(
                [np.arange(0, len(vals), sample_stride), [len(vals) - 1]]
            )
        )
        return pa.table({"v": pa.array(vals[idx], pa.float64())})

    samples = np.unique(
        np.concatenate(
            [
                np.asarray(b.column("v").to_pylist(), dtype=np.float64)
                for b in ds.map_batches(sample, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
            ]
            or [np.array([], dtype=np.float64)]
        )
    )
    if not len(samples):  # empty dataset
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.float64())})
    sref = ray.put(samples)

    def count_vs_samples(batch: pa.Table) -> pa.Table:
        from ..state.worker_cache import cached_get

        s = cached_get(sref, "quantile_samples")
        vals = np.sort(_col_f64(batch))
        below = np.searchsorted(vals, s, side="left")
        upto = np.searchsorted(vals, s, side="right")
        return pa.table(
            {
                "i": pa.array(np.arange(len(s)), pa.int64()),
                "below": pa.array(below, pa.int64()),
                "eq": pa.array(upto - below, pa.int64()),
            }
        )

    below = np.zeros(len(samples), dtype=np.int64)
    eq = np.zeros(len(samples), dtype=np.int64)
    for b in ds.map_batches(count_vs_samples, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        # iter_batches can concatenate several tasks' outputs into one
        # batch, so sample indices REPEAT — np.add.at accumulates at
        # duplicate indices where fancy-indexed += would apply only once
        ix = np.asarray(b.column("i").to_pylist())
        np.add.at(below, ix, np.asarray(b.column("below").to_pylist()))
        np.add.at(eq, ix, np.asarray(b.column("eq").to_pylist()))

    # n falls out of the count pass: the global max is always sampled,
    # so everything is <= samples[-1]
    n = int(below[-1] + eq[-1])
    ranks = [int(np.floor(q * (n - 1))) for q in qs]

    out_q: list[float] = []
    out_v: list[float] = []
    pending: list[tuple[float, int, float, float, int]] = []  # (q, r, lo, hi, base)
    for q, r in zip(qs, ranks):
        # last sample whose below-count <= r
        j = int(np.searchsorted(below, r, side="right")) - 1
        j = max(j, 0)
        if below[j] <= r < below[j] + eq[j]:
            out_q.append(q)
            out_v.append(float(samples[j]))
        else:
            lo = float(samples[j])
            hi = float(samples[j + 1]) if j + 1 < len(samples) else np.inf
            pending.append((q, r, lo, hi, int(below[j] + eq[j])))

    if pending:
        bounds = [(lo, hi) for _, _, lo, hi, _ in pending]
        bref = ray.put(bounds)

        def fetch_windows(batch: pa.Table) -> pa.Table:
            from ..state.worker_cache import cached_get

            bs = cached_get(bref, "quantile_windows")
            vals = _col_f64(batch)
            out_w, out_val = [], []
            for w, (lo, hi) in enumerate(bs):
                hit = vals[(vals > lo) & (vals < hi)]
                out_w.extend([w] * len(hit))
                out_val.extend(hit.tolist())
            return pa.table(
                {
                    "w": pa.array(out_w, pa.int64()),
                    "v": pa.array(out_val, pa.float64()),
                }
            )

        windows: dict[int, list[float]] = {i: [] for i in range(len(pending))}
        n_rows = 0
        for b in ds.map_batches(fetch_windows, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            n_rows += b.num_rows
            if n_rows > window_cap:
                raise EdgeCapExceeded(
                    f"quantile window fetch exceeded {window_cap} rows — "
                    "raise sample_stride's inverse (denser samples) or "
                    "window_cap"
                )
            for w, v in zip(b.column("w").to_pylist(), b.column("v").to_pylist()):
                windows[w].append(v)
        for (q, r, _, _, base), w in zip(pending, range(len(pending))):
            inside = sorted(windows[w])
            out_q.append(q)
            out_v.append(float(inside[r - base]))

    order = np.argsort(out_q, kind="stable")
    return pa.table(
        {
            "q": pa.array([out_q[i] for i in order], pa.float64()),
            "value": pa.array([out_v[i] for i in order], pa.float64()),
        }
    )


def quantiles_approx(
    ds,
    col: str,
    qs: list[float],
    *,
    id_col: str = "doc_id",
    k: int = 4096,
    salt: str = "",
) -> pa.Table:
    """ONE-pass approximate quantiles — the scale companion to
    :func:`quantiles_exact` (whose three streaming passes are exact but
    cost three full scans; at 100 TB a profiling pass usually wants one).

    Deterministic hash reservoir: every row gets the key
    ``uniform01(mix64(hash(id), seed(salt)))``; each block emits its
    ``k`` smallest ``(key, value)`` pairs (a mergeable partial — the
    KMV idea applied to row selection) and the driver keeps the ``k``
    globally smallest, which is EXACTLY the k rows with the smallest
    per-id uniforms: a uniform simple random sample of size k drawn
    with no RNG state, bit-identical on any block layout, any cluster
    size, any run. The q-quantile estimate is the sample value at rank
    ``floor(q * (m-1))``; rank error is the binomial
    ``O(sqrt(q(1-q)/k))`` (k=4096 => ~0.8% of n at the median).

    Same output schema as ``quantiles_exact`` (``(q, value)``); same
    loud NaN/empty rejection. Driver state: blocks x k short rows.
    With ``k >= n`` the sample is the whole column and the result is
    exact (asserted in tests).
    """
    from .sampling import _id_uniform

    if not qs:
        raise ValueError("quantiles_approx: qs is empty")
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantiles_approx: q {q} outside [0, 1]")
    seed = stable_hash64("quantiles_approx", salt) & ((1 << 32) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False
        )
        if np.isnan(v).any():
            raise ValueError(
                f"quantiles_approx: column {col!r} contains NaN/null — "
                "drop/impute upstream (finite values only)"
            )
        u = _id_uniform(batch.column(id_col), seed)
        # cut the block partial by the SAME (u, v) key the driver uses:
        # an argsort on u alone breaks layout invariance when duplicate
        # ids (tied u, different v) straddle position k
        take = np.lexsort((v, u))[:k]
        return pa.table(
            {
                "u": pa.array(u[take], pa.float64()),
                "v": pa.array(v[take], pa.float64()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    if not rows:
        raise ValueError("quantiles_approx: empty input")
    us = np.array([r["u"] for r in rows])
    vs = np.array([r["v"] for r in rows])
    # (u, v) lexsort: layout-free even under u ties (duplicate ids)
    order = np.lexsort((vs, us))[:k]
    sample = np.sort(vs[order])
    m = len(sample)
    if m == 0:
        raise ValueError("quantiles_approx: empty input")
    out_q, out_v = [], []
    for q in qs:
        out_q.append(q)
        out_v.append(float(sample[int(math.floor(q * (m - 1)))]))
    return pa.table(
        {"q": pa.array(out_q, pa.float64()), "value": pa.array(out_v, pa.float64())}
    )


def quantile_buckets(
    ds,
    col: str,
    qs: tuple[float, ...] = (1.0 / 3.0, 2.0 / 3.0),
    *,
    out_col: str = "bucket",
    labels: tuple[str, ...] | None = None,
    nan_policy: str = "raise",
    sample_stride: int = 1024,
    method: str = "exact",
    id_col: str = "doc_id",
    k: int = 4096,
):
    """Tag every row with its EXACT global quantile bucket of ``col``.

    Thresholds are the rank-based quantile values of
    :func:`quantiles_exact` (value at rank ``floor(q*(n-1))``); a
    row's bucket is the count of thresholds strictly below its value,
    so ties with a threshold land in the LOWER bucket (consistent with
    the rank definition — bit-deterministic, no interpolation).
    ``labels`` (len(qs)+1 strings) adds a ``<out_col>_label`` column.

    ``nan_policy``: ``"raise"`` (default — inherits quantiles_exact's
    loud NaN rejection) or ``"bucket_null"`` — NaN/null values are
    excluded from the threshold computation and tagged bucket ``-1``
    with a null label (the CCNet empty-doc case).

    Cost: one exact-quantile computation (three streaming passes —
    pass a SOURCE-BACKED dataset, a derived pipeline would re-execute
    upstream per pass) + one broadcast tagging pass. Zero shuffles;
    the driver holds only the threshold vector.

    ``method="approx"`` swaps the threshold computation for the
    one-pass :func:`quantiles_approx` hash reservoir (``id_col``/``k``
    forwarded) — 1+1 scans instead of 3+1; bucket BOUNDARIES carry the
    reservoir's ``O(sqrt(q(1-q)/k))`` rank error, tagging stays exact
    w.r.t. the chosen thresholds. The corpus-scale CCNet-split shape.
    """
    if labels is not None and len(labels) != len(qs) + 1:
        raise ValueError(
            f"labels must have len(qs)+1 = {len(qs) + 1} entries, got {len(labels)}"
        )
    if method not in ("exact", "approx"):
        raise ValueError(
            f"quantile_buckets: method must be exact|approx, got {method!r}"
        )

    def _drop_nan(batch: pa.Table) -> pa.Table:
        v = batch.column(col)
        return batch.filter(pc.and_kleene(pc.is_valid(v), pc.is_finite(v)))

    thr_ds = (
        ds.map_batches(_drop_nan, batch_format="pyarrow")
        if nan_policy == "bucket_null"
        else ds
    )
    if method == "approx":
        thr_tab = quantiles_approx(thr_ds, col, sorted(qs), id_col=id_col, k=k)
    else:
        thr_tab = quantiles_exact(
            thr_ds, col, sorted(qs), sample_stride=sample_stride
        )
    thresholds = np.asarray(thr_tab.column("value").to_pylist(), dtype=np.float64)

    def tag(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(
            np.float64, copy=False
        )
        bucket = np.searchsorted(thresholds, v, side="left").astype(np.int32)
        nan_mask = np.isnan(v)
        if nan_mask.any():
            if nan_policy != "bucket_null":
                raise ValueError(
                    f"quantile_buckets: column {col!r} contains NaN/null — "
                    "use nan_policy='bucket_null' or clean upstream"
                )
            bucket[nan_mask] = -1
        out = batch.append_column(out_col, pa.array(bucket, pa.int32()))
        if labels is not None:
            lab = [labels[b] if b >= 0 else None for b in bucket]
            out = out.append_column(f"{out_col}_label", pa.array(lab, pa.string()))
        return out

    return ds.map_batches(tag, batch_format="pyarrow")
