"""URL canonicalization: golden forms, idempotence property,
keep-first dedup combiner vs a driver-side replay."""

import pyarrow as pa
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from jamie_ray.functions.urlnorm import (
    add_canonical_url,
    canonicalize_url,
    url_dedup,
)

# (raw, canonical) — one line per rule
GOLDENS = [
    # scheme + host lowercase
    ("HTTPS://Example.COM/a", "https://example.com/a"),
    # www. stripped (default)
    ("https://www.example.com/a", "https://example.com/a"),
    # bare www.<tld> NOT stripped (host would lose its registrable part)
    ("https://www.com/a", "https://www.com/a"),
    # default port dropped, non-default kept
    ("https://example.com:443/a", "https://example.com/a"),
    ("http://example.com:80/a", "http://example.com/a"),
    ("https://example.com:8443/a", "https://example.com:8443/a"),
    # fragment dropped
    ("https://example.com/a#sec-2", "https://example.com/a"),
    # tracking params dropped, survivors sorted by (key, value)
    (
        "https://example.com/a?utm_source=x&b=2&a=1&fbclid=zz&a=0",
        "https://example.com/a?a=0&a=1&b=2",
    ),
    # blank values survive; ref is tracking
    ("https://example.com/a?q=&ref=home", "https://example.com/a?q="),
    # empty path -> /, trailing slash stripped on non-root
    ("https://example.com", "https://example.com/"),
    ("https://example.com/a/b/", "https://example.com/a/b"),
    ("https://example.com/", "https://example.com/"),
    # userinfo dropped
    ("https://user:pw@example.com/a", "https://example.com/a"),
    # junk passes through unchanged
    ("not a url", "not a url"),
    ("/relative/only", "/relative/only"),
]


def test_goldens():
    for raw, want in GOLDENS:
        assert canonicalize_url(raw) == want, raw


def test_none_and_strip_www_flag():
    assert canonicalize_url(None) is None
    assert (
        canonicalize_url("https://www.example.com/a", strip_www=False)
        == "https://www.example.com/a"
    )


_seg = st.text(
    alphabet=st.sampled_from("abcXYZ09-._~%"), min_size=0, max_size=6
)


@st.composite
def _urls(draw):
    scheme = draw(st.sampled_from(["http", "https", "HTTP", "HtTpS"]))
    host = ".".join(
        draw(
            st.lists(
                st.text(st.sampled_from("abcWWW09-"), min_size=1, max_size=5),
                min_size=1,
                max_size=4,
            )
        )
    )
    port = draw(st.sampled_from(["", ":80", ":443", ":8080"]))
    path = "/".join([""] + draw(st.lists(_seg, max_size=4)))
    keys = st.sampled_from(["a", "b", "utm_source", "ref", "pk_vid", "Q"])
    q = "&".join(
        f"{draw(keys)}={draw(_seg)}"
        for _ in range(draw(st.integers(0, 4)))
    )
    frag = draw(st.sampled_from(["", "#x", "#frag-2"]))
    return f"{scheme}://{host}{port}{path}" + (f"?{q}" if q else "") + frag


@settings(max_examples=200, deadline=None)
@given(_urls())
def test_canonicalize_idempotent(url):
    once = canonicalize_url(url)
    assert canonicalize_url(once) == once


def _corpus():
    # planted: ids 1-4 are one page under four cosmetic disguises;
    # 5-6 a second page; 7 junk; 8 distinct page
    rows = [
        (1, "https://www.Example.com/p/01/?utm_source=feed&b=2&a=1"),
        (2, "https://example.com:443/p/01?a=1&b=2&fbclid=x#top"),
        (3, "HTTPS://EXAMPLE.COM/p/01/?b=2&a=1"),
        (4, "https://example.com/p/01?b=2&a=1&utm_medium=rss"),
        (5, "http://site.org/home#s1"),
        (6, "http://site.org:80/home"),
        (7, "not a url"),
        (8, "https://example.com/p/02?a=1&b=2"),
    ]
    return rows


def test_add_canonical_url_column(ray_session):
    rows = _corpus()
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "url": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )
    out = {
        r["doc_id"]: r["canonical_url"]
        for r in add_canonical_url(ds).take_all()
    }
    for doc_id, raw in rows:
        assert out[doc_id] == canonicalize_url(raw)
    assert out[1] == out[2] == out[3] == out[4]
    assert out[5] == out[6]


def test_url_dedup_matches_driver_replay(ray_session):
    rows = _corpus()
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "url": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    ).repartition(4)  # force the combiner to actually merge partials

    got = sorted(
        (r["canonical_url"], r["doc_id"], r["n_dups"])
        for r in url_dedup(ds).take_all()
    )

    # independent driver-side replay of the keep-first rule
    expected: dict[str, list[int]] = {}
    for doc_id, raw in rows:
        expected.setdefault(canonicalize_url(raw), []).append(doc_id)
    want = sorted(
        (curl, min(ids), len(ids)) for curl, ids in expected.items()
    )
    assert got == want
    # the planted 4-way collapse actually collapsed
    by_url = {c: (i, n) for c, i, n in got}
    assert by_url[canonicalize_url(rows[0][1])] == (1, 4)
    assert by_url[canonicalize_url(rows[4][1])] == (5, 2)


def test_url_dedup_null_urls_are_always_keep(ray_session):
    """Null URLs must never form a dedup 'group': three null-URL rows
    are three distinct documents, not one canonical-URL cluster
    (r4-ADVICE: the old behavior grouped them and clean_corpus's URL
    stage dropped all but the min id — data loss)."""
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "url": pa.array(
                    [None, None, None, "http://a.example/x", "http://a.example/x"],
                    pa.string(),
                ),
            }
        )
    ).repartition(3)
    out = url_dedup(ds).take_all()
    # no null-key group in the output at all
    assert all(r["canonical_url"] is not None for r in out)
    by_url = {r["canonical_url"]: (r["doc_id"], r["n_dups"]) for r in out}
    assert by_url == {"http://a.example/x": (4, 2)}


def test_clean_corpus_url_stage_keeps_null_url_docs(ray_session, tmp_path):
    """End-to-end through clean_corpus's opt-in URL stage: null-URL
    documents all survive; only real canonical-URL losers drop."""
    import pyarrow.parquet as pq

    from jamie_ray.pipelines.clean import clean_corpus

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "url": pa.array(
                [None, None, "http://a.example/x?utm_source=z", "http://a.example/x", None],
                pa.string(),
            ),
            "text": pa.array(
                [
                    # distinct per-token vocab so the repetition gate
                    # (dup3gram) and near-dup stage never fire here
                    " ".join(f"the w{d}x{i} is a v{d}y{i}." for i in range(20))
                    for d in range(1, 6)
                ],
                pa.string(),
            ),
        }
    )
    src = tmp_path / "docs.parquet"
    pq.write_table(t, str(src))
    docs = ray.data.read_parquet(str(src))
    cleaned, report = clean_corpus(
        docs,
        spill_dir=str(tmp_path / "spill"),
        url_col="url",
        min_tokens=1,
    )
    kept = sorted(r["doc_id"] for r in cleaned.take_all())
    # doc 4 loses to doc 3 on canonical URL; all null-URL docs survive
    assert kept == [1, 2, 3, 5]


def test_domain_of_rules():
    from jamie_ray.functions.urlnorm import domain_of

    assert domain_of("https://WWW.Example.COM/a/b?x=1") == "example.com"
    assert domain_of("http://news.example.co.uk/p") == "news.example.co.uk"
    assert domain_of("https://www.example.com", strip_www=False) == "www.example.com"
    assert domain_of("https://example.com:8080/x") == "example.com"
    assert domain_of("not a url") is None
    assert domain_of("/relative/path") is None
    assert domain_of(None) is None
    # idempotent-adjacent: domain of a canonicalized url is the same
    from jamie_ray.functions.urlnorm import canonicalize_url

    u = "HTTPS://WWW.Example.com:443/a/?utm_source=x#frag"
    assert domain_of(canonicalize_url(u)) == domain_of(u) == "example.com"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.text(st.sampled_from("abcw09-"), min_size=1, max_size=4),
        min_size=0,
        max_size=3,
    ),
    st.sampled_from(["", ":8080"]),
)
def test_domain_of_agrees_with_canonicalize_on_www(labels, port):
    """domain_of strips ``www.`` under the same rule as canonicalize_url
    (only when a dot remains after it): ``www.com`` is a host, not a
    ``www.`` prefix on ``com``."""
    from urllib.parse import urlsplit

    from jamie_ray.functions.urlnorm import domain_of

    assert domain_of("https://www.com/x") == "www.com"
    assert domain_of("https://WWW.co") == "www.co"
    for host in (".".join(["www"] + labels), ".".join(labels) or "a"):
        url = f"https://{host}{port}/p"
        assert domain_of(url) == urlsplit(canonicalize_url(url)).hostname


def test_add_domain_and_group_sample_compose(ray_session):
    """The domain-cap workflow: add_domain -> group_sample(key=domain)
    keeps at most k docs per domain, deterministically."""
    import ray.data

    from jamie_ray.functions.sampling import group_sample
    from jamie_ray.functions.urlnorm import add_domain

    rows = [
        {"doc_id": i, "url": f"https://site{i % 3}.example.org/p{i}"}
        for i in range(30)
    ]
    ds = ray.data.from_items(rows).repartition(4)
    with_dom = add_domain(ds)
    kept = group_sample(with_dom, key_col="domain", k=4, id_col="doc_id")
    out = kept.take_all()
    from collections import Counter

    per = Counter(r["domain"] for r in out)
    assert set(per) == {f"site{j}.example.org" for j in range(3)}
    assert all(v == 4 for v in per.values())
    # deterministic: same selection on a different layout
    out2 = group_sample(
        add_domain(ray.data.from_items(rows).repartition(7)),
        key_col="domain",
        k=4,
        id_col="doc_id",
    ).take_all()
    assert sorted(r["doc_id"] for r in out) == sorted(r["doc_id"] for r in out2)
