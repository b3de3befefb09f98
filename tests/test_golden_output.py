"""Byte-identical CLI reports: `analyze` text and JSON (without its timing)
for the README pair and the schematic-difference pair, the `analyze` JSON of
every corpus row over QQ, and `corpus --verbose` over both fields, and one
(1, 2) `search`, against outputs recorded in tests/golden."""

import json
from pathlib import Path

import pytest

from logtangent.cli import main
from logtangent.fixtures import FIXTURES

GOLDEN = Path(__file__).parent / "golden"
README = ["--f", "x0^2+x3^2", "--g", "x0^3+x0*x1*x2+x3^3"]
SCHEMATIC = ["--f", "2*x1*x3 - x1^2", "--g", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3"]
ANALYZE = {
    "readme": README,
    "schematic_qq": SCHEMATIC,
    "schematic_fp": [*SCHEMATIC, "--field", "fp:32003"],
}


def run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_reports_are_unchanged(capsys, name):
    argv = ["analyze", *ANALYZE[name], "--bourbaki", "--betti", "--validate"]
    assert run(capsys, argv) == (GOLDEN / f"{name}.txt").read_text()
    lines = run(capsys, [*argv, "--json"]).splitlines(keepends=True)
    timing = [line for line in lines if line.startswith('  "timing_seconds": ')]
    assert len(timing) == 1
    lines.remove(timing[0])
    assert "".join(lines) == (GOLDEN / f"{name}.json").read_text()


def test_corpus_analyze_reports_over_qq_are_unchanged(capsys):
    # the corpus pins few ideals; this pins every printed scheme and Bourbaki ideal
    docs = {}
    for fx in FIXTURES:
        argv = ["analyze", "--f", fx.f, "--g", fx.g, "--bourbaki", "--betti", "--json"]
        docs[fx.name] = doc = json.loads(run(capsys, argv))
        del doc["timing_seconds"]
    got = json.dumps(docs, indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / "corpus_analyze_qq.json").read_text()


@pytest.mark.parametrize("name, field", [("corpus_qq", "rational"), ("corpus_fp", "fp:32003")])
def test_corpus_report_is_unchanged(capsys, name, field):
    out = run(capsys, ["corpus", "--verbose", "--field", field])
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_search_report_beyond_cubic_pencils_is_unchanged(capsys):
    # (1, 2) pairs: the CI checks the installed script against the same file
    argv = ["search", "--df", "1", "--dg", "2", "--count", "8", "--seed", "0"]
    assert run(capsys, argv) == (GOLDEN / "search_1_2.json").read_text()
