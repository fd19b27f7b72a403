"""The ``python -m jamie_ray`` front door: its recorded option surface,
the subcommands no other test drives through ``main()`` (each checked
against a direct call of its library function), and a warnings-as-errors
``--help`` smoke run over every subcommand."""

import argparse
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

SURFACE = os.path.join(os.path.dirname(__file__), "data", "cli_surface.json")


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """{subcommand: {help, options, mutex}} with every option's strings,
    dest, default, type, choices, required, action and help; options
    sorted by their strings so declaration order does not matter."""
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {a.dest: a.help for a in sub._choices_actions}
    out = {}
    for name, p in sub.choices.items():
        opts = [
            {
                "option_strings": sorted(a.option_strings),
                "dest": a.dest,
                "default": a.default,
                "type": getattr(a.type, "__name__", None),
                "choices": list(a.choices) if a.choices is not None else None,
                "required": a.required,
                "action": type(a).__name__,
                "help": a.help,
            }
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        mutex = [
            {
                "required": g.required,
                "dests": sorted(a.dest for a in g._group_actions),
            }
            for g in p._mutually_exclusive_groups
        ]
        out[name] = {
            "help": helps.get(name),
            "options": sorted(opts, key=lambda o: o["option_strings"]),
            "mutex": mutex,
        }
    return out


def test_cli_surface_matches_recorded():
    from jamie_ray.__main__ import build_parser

    with open(SURFACE, encoding="utf-8") as f:
        want = json.load(f)
    got = json.loads(json.dumps(cli_surface(build_parser())))
    assert len(want) == 40
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_help_smoke_under_warnings_as_errors():
    """One interpreter with ``-W error``: the top-level help, then every
    subcommand's help, each must exit 0 (a parser or import that breaks,
    or warns, fails here)."""
    script = (
        "import sys\n"
        "from jamie_ray.__main__ import COMMANDS, main\n"
        "def run(argv):\n"
        "    try:\n"
        "        main(argv)\n"
        "    except SystemExit as e:\n"
        "        if e.code not in (0, None):\n"
        "            raise SystemExit(f'{argv} exited {e.code}')\n"
        "run(['--help'])\n"
        "for c in COMMANDS:\n"
        "    run([c.name, '--help'])\n"
        "print('n_commands', len(COMMANDS), file=sys.stderr)\n"
    )
    r = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert "n_commands 40" in r.stderr


# -- subcommands no other test runs through main() ---------------------

N_PAGES = 16

_TEXTS = [
    "mail alice@example.com or call 555-123-4567 today please friend",
    "the quick brown fox jumps over the lazy dog again and again here",
    "server at 10.0.0.1 answered; the quick brown fox jumps over the lazy dog",
    "今日は良い天気です。明日も晴れるでしょう。",
    "東京の大学で自然言語処理を研究しています。",
    "a short english note about nothing much at all really",
    "the quick brown fox jumps over the lazy dog and then it slept well",
    "write to bob@example.org for the full report on the fox",
    "plain text with no personal data in it whatsoever today",
    "猫が好きです。犬も好きです。",
    "one more english line that talks about the weather and the sea",
    "final doc the quick brown fox jumps over the lazy dog at last",
]


def _table(ds) -> pa.Table:
    # empty blocks may carry an empty schema; they hold no rows
    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])


def _rows(t: pa.Table) -> list:
    return sorted(
        (json.dumps(r, sort_keys=True, default=repr) for r in t.to_pylist())
    )


@pytest.fixture(scope="module")
def planted(tmp_path_factory, ray_session):
    from jamie_ray import fixtures

    root = tmp_path_factory.mktemp("cli_inputs")
    corpus = fixtures.write_corpus(str(root / "corpus"), N_PAGES)
    n = len(_TEXTS)
    docs = str(root / "docs.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": _TEXTS,
                "url": [
                    f"https://{'www.' if i % 2 else ''}site{i % 4}.example/p"
                    for i in range(n)
                ],
                "grp": [f"g{i % 3}" for i in range(n)],
                "score": pa.array([(i * 7) % 5 for i in range(n)], pa.int64()),
            }
        ),
        docs,
    )
    right = str(root / "right.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 2, 4, 6, 8, 20], pa.int64()),
                "tag": ["a", "b", "c", "d", "e", "z"],
            }
        ),
        right,
    )
    gold = os.path.join(corpus, "expected_triples.parquet")
    g = pq.read_table(gold)
    keep = [i for i in range(g.num_rows) if i % 3 != 1]
    pred = str(root / "pred.parquet")
    pq.write_table(g.take(keep), pred)
    return {
        "pages": os.path.join(corpus, "pages.parquet"),
        "docs": docs,
        "right": right,
        "gold": gold,
        "pred": pred,
    }


def _read_docs(inp, cols=("doc_id", "text")):
    return ray.data.read_parquet(inp["docs"], columns=list(cols) if cols else None)


def _case_extract(inp, out):
    from jamie_ray.pipelines import kg

    ds = kg.extracted_pages(kg.read_pages(inp["pages"]), lang="ja")
    argv = ["extract", "--pages", inp["pages"], "--out", out]
    return argv, {"command": "extract", "out": out}, _table(ds)


def _case_chunks(inp, out):
    from jamie_ray.pipelines import kg

    ds = kg.chunk_pages(
        kg.extracted_pages(kg.read_pages(inp["pages"]), lang="ja"), analyzer="mecab"
    )
    argv = ["chunks", "--pages", inp["pages"], "--out", out]
    return argv, {"command": "chunks", "out": out}, _table(ds)


def _case_triples(inp, out):
    from jamie_ray.pipelines import kg

    ds = kg.build_triples(inp["pages"], lang="ja", mode="pipeline")
    argv = ["triples", "--pages", inp["pages"], "--out", out, "--mode", "pipeline"]
    return argv, {"command": "triples", "mode": "pipeline", "out": out}, _table(ds)


def _case_eval(inp, out):
    from jamie_ray.evalx import evaluate_triples

    res = evaluate_triples(
        ray.data.read_parquet(inp["gold"]), ray.data.read_parquet(inp["pred"])
    )
    p, r, f1 = res["micro"]
    want = {
        "command": "eval",
        "p": round(p, 6),
        "r": round(r, 6),
        "f1": round(f1, 6),
        "counts": res["counts"],
        "per_class": {
            k: [round(v[0], 6), round(v[1], 6), round(v[2], 6)]
            for k, v in res["per_class"].items()
        },
    }
    assert 0 < r < 1  # the planted pred drops a third of gold
    return ["eval", "--gold", inp["gold"], "--pred", inp["pred"]], want, None


def _case_url_dedup(inp, out):
    from jamie_ray.functions.urlnorm import url_dedup

    t = _table(url_dedup(_read_docs(inp, ("doc_id", "url"))))
    n_rows = sum(t.column("n_dups").to_pylist())
    want = {
        "command": "url-dedup",
        "out": out,
        "n_canonical_urls": t.num_rows,
        "n_input_rows": n_rows,
        "n_dropped": n_rows - t.num_rows,
    }
    assert want["n_dropped"] > 0
    return ["url-dedup", "--docs", inp["docs"], "--out", out], want, t


def _case_pii(inp, out):
    from jamie_ray.functions.pii import mask_pii

    t = _table(mask_pii(_read_docs(inp)))
    want = {"command": "pii", "out": out, "n_docs": t.num_rows}
    for c in ("n_emails", "n_ips", "n_phones"):
        want[c] = sum(t.column(c).to_pylist())
        assert want[c] > 0, c
    return ["pii", "--docs", inp["docs"], "--out", out], want, t


def _case_langid(inp, out):
    from jamie_ray.functions.classifiers import lang_id_stage

    t = _table(lang_id_stage(_read_docs(inp)))
    by_lang = {}
    for v in t.column("lang_pred").to_pylist():
        by_lang[v] = by_lang.get(v, 0) + 1
    assert len(by_lang) >= 2
    want = {
        "command": "langid",
        "out": out,
        "backend": "heuristic",
        "n_docs": t.num_rows,
        "by_lang": dict(sorted(by_lang.items())),
    }
    return ["langid", "--docs", inp["docs"], "--out", out], want, t


def _case_dedup_spans(inp, out):
    from jamie_ray.functions.dedup_docs import span_dedup

    t = _table(span_dedup(_read_docs(inp), min_len=5))
    want = {
        "command": "dedup-spans",
        "out": out,
        "min_len": 5,
        "n_docs": t.num_rows,
        "n_cut_tokens": sum(t.column("n_cut_tokens").to_pylist()),
    }
    assert want["n_cut_tokens"] > 0
    argv = ["dedup-spans", "--docs", inp["docs"], "--out", out, "--min-len", "5"]
    return argv, want, t


def _case_pack(inp, out):
    from jamie_ray.functions.packing import pack_sequences

    spill = os.path.join(os.path.dirname(out), "pack_spill_direct")
    ds, n_seq = pack_sequences(_read_docs(inp), 16, spill_dir=spill)
    want = {"command": "pack", "out": out, "max_len": 16, "n_sequences": n_seq}
    argv = [
        "pack", "--docs", inp["docs"], "--out", out, "--max-len", "16",
        "--spill", os.path.join(os.path.dirname(out), "pack_spill_cli"),
    ]
    return argv, want, _table(ds)


def _case_join(inp, out):
    from jamie_ray.functions.join import hash_join

    t = _table(
        hash_join(
            _read_docs(inp, None), ray.data.read_parquet(inp["right"]), ["doc_id"],
            how="left",
        )
    )
    want = {"command": "join", "out": out, "how": "left", "n_rows": t.num_rows}
    argv = [
        "join", "--left", inp["docs"], "--right", inp["right"], "--out", out,
        "--on", "doc_id", "--how", "left",
    ]
    return argv, want, t


def _case_topk(inp, out):
    from jamie_ray.functions.skew import grouped_topk

    ds = _read_docs(inp, ("doc_id", "grp", "score"))
    t = _table(grouped_topk(ds, "grp", "score", 2))
    want = {"command": "topk", "out": out, "n_rows": t.num_rows, "k": 2}
    argv = [
        "topk", "--in", inp["docs"], "--out", out, "--key-col", "grp",
        "--value-col", "score", "-k", "2",
    ]
    return argv, want, t


def _case_sample(inp, out):
    from jamie_ray.functions.sampling import hash_sample

    t = _table(hash_sample(_read_docs(inp, None), 0.5, salt="s1"))
    want = {"command": "sample", "out": out, "rate": 0.5, "n_kept": t.num_rows}
    argv = [
        "sample", "--docs", inp["docs"], "--out", out, "--rate", "0.5",
        "--salt", "s1",
    ]
    return argv, want, t


def _case_group_sample(inp, out):
    from jamie_ray.functions.sampling import group_sample

    t = _table(group_sample(_read_docs(inp, None), 2, "grp"))
    want = {"command": "group-sample", "out": out, "k": 2, "n_kept": t.num_rows}
    argv = [
        "group-sample", "--docs", inp["docs"], "--out", out, "--k", "2",
        "--key-col", "grp",
    ]
    return argv, want, t


def _case_lm(inp, out):
    from jamie_ray.functions.lm import score_perplexity, train_ngram_lm

    docs = _read_docs(inp)
    lm = train_ngram_lm(docs)
    t = _table(score_perplexity(docs, lm))
    want = {
        "command": "lm",
        "out": out,
        "vocab_unigrams": len(lm.uni),
        "vocab_bigrams": len(lm.bi),
        "total_tokens": lm.total,
        "buckets": False,
    }
    return ["lm", "--docs", inp["docs"], "--out", out], want, t


CASES = {
    "extract": _case_extract,
    "chunks": _case_chunks,
    "triples": _case_triples,
    "eval": _case_eval,
    "url-dedup": _case_url_dedup,
    "pii": _case_pii,
    "langid": _case_langid,
    "dedup-spans": _case_dedup_spans,
    "pack": _case_pack,
    "join": _case_join,
    "topk": _case_topk,
    "sample": _case_sample,
    "group-sample": _case_group_sample,
    "lm": _case_lm,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_matches_library(name, planted, tmp_path, capsys):
    """The printed JSON line (keys, order, values) and the written table
    equal what a direct call of the library function gives."""
    from jamie_ray.__main__ import main

    out = str(tmp_path / "out")
    argv, want, table = CASES[name](planted, out)
    main(argv)
    line = capsys.readouterr().out.strip().splitlines()[-1]
    got = json.loads(line)
    assert list(got) == list(want)
    assert got == want
    if table is not None:
        assert table.num_rows > 0
        assert _rows(pq.read_table(out)) == _rows(table)
