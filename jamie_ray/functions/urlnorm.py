"""URL canonicalization + canonical-url keep-first dedup.

Standard web-corpus prep (the CCNet / RefinedWeb-style URL-level pass
that runs BEFORE content dedup): two crawls of the same page under
cosmetically different URLs — fragment, tracking query params, default
port, scheme/host case, trailing slash, ``www.`` prefix — are the same
document, and keying the crawl on the canonical form removes them for
the cost of a string kernel instead of a content shuffle. No reference
analogue (racerandom/JaMIE ingests local XML files); first-class per
the brief's training-data-pipeline list.

Scale shape: ``canonicalize`` is a stateless per-batch string kernel
(URLs are ~60 B — the per-row parse is microseconds and batch-
amortized, unlike document-text kernels which stay vectorized).
``url_dedup`` reuses the ``exact_dedup`` combiner algebra: each block
pre-reduces to one (canonical_url, min id, count) row per distinct
URL, so the single shuffle carries block×distinct short rows, never
documents. The canonical STRING is the group key — no hash-collision
caveat to document, and the key is ~the same width as a 64-bit hash
plus the carried representative would be.

Determinism: ``canonicalize_url`` is a pure function and idempotent
(property-tested); dedup winners are min-``id_col`` (the repo rule).
"""

from __future__ import annotations

from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import sorted_reduce

__all__ = [
    "TRACKING_PARAMS",
    "TRACKING_PREFIXES",
    "canonicalize_url",
    "add_canonical_url",
    "url_dedup",
]

# Click-tracking / attribution params that never change page content.
# Public knowledge (the usual adtech set); exact-name matches.
TRACKING_PARAMS = frozenset(
    {
        "gclid",
        "gbraid",
        "wbraid",
        "fbclid",
        "msclkid",
        "dclid",
        "twclid",
        "igshid",
        "mc_cid",
        "mc_eid",
        "mkt_tok",
        "ref",
        "ref_src",
        "referrer",
        "spm",
        "yclid",
        "_hsenc",
        "_hsmi",
        "s_kwcid",
    }
)
# Prefix matches: utm_source/utm_medium/... and piwik/matomo pk_*.
TRACKING_PREFIXES = ("utm_", "pk_", "mtm_")

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def _is_tracking(key: str) -> bool:
    k = key.lower()
    return k in TRACKING_PARAMS or k.startswith(TRACKING_PREFIXES)


def canonicalize_url(url: str | None, *, strip_www: bool = True) -> str | None:
    """Pure, idempotent URL canonical form (None passes through).

    Rules, in order: lowercase scheme + host; drop a single leading
    ``www.`` (when ``strip_www``); drop the default port for the
    scheme; drop the fragment; drop tracking query params (see
    :data:`TRACKING_PARAMS` / :data:`TRACKING_PREFIXES`) and sort the
    survivors by (key, value); empty path becomes ``/`` and a trailing
    slash on a non-root path is stripped. Unparseable input is
    returned unchanged (loud is wrong here: crawl URL columns carry
    junk rows, and an unchanged key just means that row dedups only
    against byte-identical junk).
    """
    if url is None:
        return None
    try:
        parts = urlsplit(url.strip())
    except ValueError:
        return url
    if not parts.scheme or not parts.netloc:
        # relative / schemeless junk: canonical form is itself
        return url

    scheme = parts.scheme.lower()
    host = parts.hostname
    host = host.lower() if host else ""
    if strip_www and host.startswith("www.") and host.count(".") >= 2:
        host = host[4:]
    netloc = host
    try:
        port = parts.port
    except ValueError:
        port = None
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme):
        netloc = f"{host}:{port}"
    # userinfo is dropped deliberately: credentials never identify a
    # distinct document and must not survive into a training corpus key

    path = parts.path or "/"
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/") or "/"

    pairs = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if not _is_tracking(k)
    ]
    pairs.sort()
    query = urlencode(pairs)

    return urlunsplit((scheme, netloc, path, query, ""))


def add_canonical_url(
    ds,
    url_col: str = "url",
    out_col: str = "canonical_url",
    *,
    strip_www: bool = True,
):
    """+ ``out_col`` string column with the canonical form of ``url_col``."""

    def kernel(batch: pa.Table) -> pa.Table:
        canon = [
            canonicalize_url(u, strip_www=strip_www)
            for u in batch.column(url_col).to_pylist()
        ]
        return batch.append_column(out_col, pa.array(canon, pa.string()))

    return ds.map_batches(kernel, batch_format="pyarrow")


def url_dedup(
    docs,
    url_col: str = "url",
    id_col: str = "doc_id",
    *,
    strip_www: bool = True,
):
    """docs -> (canonical_url, <id_col>=min, n_dups), one row per
    distinct canonical URL.

    Rows whose URL is null are NOT a group: a missing URL identifies
    nothing, so they are dropped before the shuffle and every null-URL
    document is always kept by downstream consumers (clean_corpus's
    URL stage, drop-losers joins).

    Same combiner algebra as :func:`dedup_docs.exact_dedup`: per-block
    ``group_by`` pre-reduction (min id + count) so the one sorted
    shuffle on the canonical URL (``shuffle.sorted_reduce``) carries
    only short distinct rows; each sorted block re-reduces the partials
    identically.
    """

    def reduce_partials(batch: pa.Table) -> pa.Table:
        gb = batch.group_by(["canonical_url"]).aggregate(
            [(id_col, "min"), ("n_dups", "sum")]
        )
        # aggregates selected BY NAME (<col>_<agg>), never positionally
        # (CLAUDE.md rule: pyarrow puts key cols first, aggs after)
        return pa.table(
            {
                "canonical_url": gb.column("canonical_url"),
                id_col: gb.column(f"{id_col}_min"),
                "n_dups": gb.column("n_dups_sum"),
            }
        )

    def local(batch: pa.Table) -> pa.Table:
        canon = [
            canonicalize_url(u, strip_www=strip_www)
            for u in batch.column(url_col).to_pylist()
        ]
        ones = pa.table(
            {
                "canonical_url": pa.array(canon, pa.string()),
                id_col: batch.column(id_col),
                "n_dups": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )
        # null URLs are always-keep, never a dedup group
        ones = ones.filter(pc.is_valid(ones.column("canonical_url")))
        return reduce_partials(ones)

    combined = docs.map_batches(local, batch_format="pyarrow")
    return sorted_reduce(combined, "canonical_url", reduce_partials)


def domain_of(url: str | None, *, strip_www: bool = True) -> str | None:
    """Lowercased hostname of a URL (``www.`` stripped by default) —
    the per-domain key for domain caps (compose with
    ``sampling.group_sample``: "at most N docs per domain"), domain
    histograms and per-site dedup scoping. Without a public-suffix
    list (no network, no baked data file) this is the FULL hostname,
    not the registrable domain — ``news.example.co.uk`` stays
    ``news.example.co.uk``; callers needing eTLD+1 grouping should
    bring a suffix table. None/unparseable/hostless input -> None.
    """
    if url is None:
        return None
    try:
        parts = urlsplit(url.strip())
    except ValueError:
        return None
    host = parts.hostname
    if not host:
        return None
    host = host.lower()
    if strip_www and host.startswith("www.") and host.count(".") >= 2:
        host = host[4:]
    return host


def add_domain(
    ds,
    url_col: str = "url",
    *,
    out_col: str = "domain",
    strip_www: bool = True,
):
    """Dataset wrapper: append ``out_col`` with :func:`domain_of` of
    ``url_col``. Streaming, no shuffle. The per-row urlsplit is the
    whole kernel (the canonicalize_url precedent)."""
    import pyarrow as pa

    def f(batch):
        doms = [
            domain_of(u, strip_www=strip_www)
            for u in batch.column(url_col).to_pylist()
        ]
        return batch.append_column(out_col, pa.array(doms, pa.string()))

    return ds.map_batches(f, batch_format="pyarrow")
