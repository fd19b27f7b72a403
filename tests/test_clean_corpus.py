"""``clean_corpus`` as a whole: how many Ray Data executions a call
costs, a corpus with no survivors, and a second call into the same
spill directory."""

import contextlib

import pyarrow as pa
import pyarrow.parquet as pq

GOOD = (
    "This page stays through every gate today.\n"
    "It has several ordinary lines of text in it.\n"
    "Each line ends with terminal punctuation marks."
)
OTHER = (
    "A second page that differs in every single word.\n"
    "Its lines are ordinary sentences about the weather.\n"
    "Write to rain@example.com for the weather report today."
)
BENCH = (
    "the quick brown fox shares a benchmark gram here.\n"
    "so this document must be decontaminated away now.\n"
    "three lines keep the line cleaner satisfied too."
)


@contextlib.contextmanager
def _count_executions():
    """Count ``StreamingExecutor.execute`` calls (one per Ray Data
    execution: a write, a materialize, an iteration) in this process."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    orig = StreamingExecutor.execute

    def execute(self, *a, **kw):
        calls.append(1)
        return orig(self, *a, **kw)

    StreamingExecutor.execute = execute
    try:
        yield calls
    finally:
        StreamingExecutor.execute = orig


def _docs(tmp_path, rows):
    import ray.data

    path = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(path))
    return ray.data.read_parquet(str(path))


def _rows():
    return [
        {"doc_id": 1, "url": "https://www.example.com/a?utm_source=x", "text": GOOD},
        {"doc_id": 2, "url": "https://example.com/a", "text": GOOD},
        {"doc_id": 3, "url": "https://example.com/b", "text": BENCH},
        {"doc_id": 4, "url": "https://example.com/c", "text": GOOD},
        {"doc_id": 5, "url": "https://example.com/d", "text": OTHER},
        {"doc_id": 6, "url": "https://example.com/e", "text": "too short"},
    ]


def test_clean_corpus_execution_counts(ray_session, tmp_path):
    """The default call runs the gates (one pass that reads the input
    once and writes the gated spill), exact, paragraph and near-dup
    stages in 7 executions; every opt-in together runs in 20. Consuming
    the returned Dataset is one more."""
    import ray.data

    from jamie_ray.functions.lm import train_ngram_lm
    from jamie_ray.pipelines.clean import clean_corpus

    docs = _docs(tmp_path, _rows())
    with _count_executions() as calls:
        cleaned, stats = clean_corpus(docs, str(tmp_path / "default"))
        kept = sorted(r["doc_id"] for r in cleaned.take_all())
    assert kept == [1, 3, 5]
    assert stats["n_after_quality"] == 5
    assert len(calls) == 7 + 1

    lm = train_ngram_lm(ray.data.from_items([{"doc_id": 0, "text": GOOD + " " + OTHER}]))
    emb = ray.data.from_items(
        [
            {"doc_id": 1, "embedding": [1.0, 0.0]},
            {"doc_id": 5, "embedding": [0.0, 1.0]},
        ]
    )
    with _count_executions() as calls:
        cleaned, stats = clean_corpus(
            _docs(tmp_path, _rows()),
            str(tmp_path / "optins"),
            min_tokens=3,
            url_col="url",
            line_clean=True,
            gopher=True,
            compress_band=(1, 999_999_999),
            keep_lang="en",
            lm=lm,
            max_ppl=1e9,
            decontam_benchmark=["the quick brown"],
            embeddings=emb,
            semantic_n_centroids=2,
            span_min_len=50,
            pii=True,
        )
        kept = sorted(r["doc_id"] for r in cleaned.take_all())
    assert kept == [1, 5]
    assert stats["n_after_decontam"] == 3
    assert len(calls) == 20 + 1


def test_clean_corpus_zero_survivors(ray_session, tmp_path):
    """Every doc fails min_tokens: the result has no rows, every later
    count is 0, and the gated spill is an empty file that still has the
    ``(doc_id, text)`` schema for the stages that read it."""
    from jamie_ray.pipelines.clean import clean_corpus

    rows = [{"doc_id": i, "text": "too short"} for i in range(4)]
    cleaned, stats = clean_corpus(_docs(tmp_path, rows), str(tmp_path / "spill"))
    assert stats == {
        "n_input": 4,
        "n_after_quality": 0,
        "n_after_exact": 0,
        "n_after_near_dup": 0,
    }
    assert cleaned.take_all() == []
    gated = pq.read_table(str(tmp_path / "spill" / "gated"))
    assert gated.num_rows == 0
    assert gated.column_names == ["doc_id", "text"]


def test_clean_corpus_spill_dir_reuse(ray_session, tmp_path):
    """A second call into the same spill directory returns the same rows
    and stats: no stale spill file leaks into it."""
    from jamie_ray.pipelines.clean import clean_corpus

    spill = str(tmp_path / "spill")
    runs = []
    for _ in range(2):
        cleaned, stats = clean_corpus(_docs(tmp_path, _rows()), spill, url_col="url")
        runs.append((sorted((r["doc_id"], r["text"]) for r in cleaned.take_all()), stats))
    assert runs[0] == runs[1]
    assert [i for i, _ in runs[0][0]] == [1, 3, 5]
