"""bench.py --scaling rewrites only its own auto-written BASELINE section."""

import bench

MARKER = "## Latest --scaling run (auto-written; fold into the curated table above)"


def _out(value: float) -> dict:
    lo, hi = bench.SCALING_PAIR
    run = {"seconds": 1.0, "docs_per_s": 2.0, "triples_per_s": 3.0}
    return {
        "sf": "sf0.01",
        "runs": {str(lo): run, str(hi): run},
        "value": value,
        "hardware_efficiency": 0.9,
        "relative_efficiency": 0.95,
    }


def test_record_scaling_keeps_curated_section_below_marker(tmp_path):
    path = tmp_path / "BASELINE.md"
    path.write_text(
        "# Baseline\n\n## Curated above\n\nkeep above\n\n"
        f"{MARKER}\n\nstale sample value 0.111\n\n"
        "## Curated below\n\nkeep below\n",
        encoding="utf-8",
    )
    bench._record_scaling(_out(0.777), path=str(path))
    text = path.read_text(encoding="utf-8")
    assert "keep above" in text and "keep below" in text
    assert "0.111" not in text and "**0.777**" in text
    assert text.count(MARKER) == 1
    assert text.index("## Curated above") < text.index(MARKER) < text.index(
        "## Curated below"
    )
    # idempotent: a second run with the same sample changes nothing
    bench._record_scaling(_out(0.777), path=str(path))
    assert path.read_text(encoding="utf-8") == text


def test_record_scaling_appends_when_marker_absent(tmp_path):
    path = tmp_path / "BASELINE.md"
    path.write_text("# Baseline\n\n## Curated\n\nkeep\n", encoding="utf-8")
    bench._record_scaling(_out(0.5), path=str(path))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# Baseline\n\n## Curated\n\nkeep\n")
    assert text.index(MARKER) > text.index("keep")
