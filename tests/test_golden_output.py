"""Byte-identical CLI reports: `analyze` text and JSON (without its timing)
for the README pair, the schematic-difference pair, a pair with exactly
one gradient row a regular sequence (over QQ and GF(32003)) and a dense
cubic pencil over QQ, the `analyze` JSON of every corpus row and of seeded
dense pairs over QQ and over GF(32003), and `corpus --verbose` over both
fields, and `search` at (0, 2), (1, 1), (1, 2), (1, 3) and (2, 3), against
outputs recorded in tests/golden."""

import json
from pathlib import Path

import pytest

from logtangent.cli import main
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES
from logtangent.poly import PolyRing
from logtangent.search import sample_pair

GOLDEN = Path(__file__).parent / "golden"
README = ["--f", "x0^2+x3^2", "--g", "x0^3+x0*x1*x2+x3^3"]
SCHEMATIC = ["--f", "2*x1*x3 - x1^2", "--g", "3*x2*x3^2 - 3*x0*x1*x3 + x1^3"]
# the gradient of g is a regular sequence and that of f is not
MIXED = ["--f", "x0^2+x1^2+x2^2", "--g", "x0^3+x1^3+x2^3+x3^3"]
# a dense cubic pencil over QQ, integer coefficients uniform in [-5, 5]
DENSE_PENCIL = [
    "--f",
    "-4*x0^3 + 5*x0*x1^2 + x1^3 + 3*x0^2*x2 - 4*x0*x1*x2 + 4*x1^2*x2 + 4*x0*x2^2"
    " + 2*x1*x2^2 - 2*x2^3 + 3*x0^2*x3 - 2*x0*x1*x3 + 3*x1^2*x3 + 4*x0*x2*x3"
    " + 4*x1*x2*x3 - 5*x2^2*x3 + 3*x0*x3^2 + 2*x1*x3^2 + 4*x2*x3^2 - 4*x3^3",
    "--g",
    "-4*x0^3 - x0^2*x1 - 5*x0*x1^2 + x1^3 - 4*x0^2*x2 + 5*x0*x1*x2 - x1^2*x2"
    " + 5*x0*x2^2 + 5*x2^3 + 2*x0^2*x3 + 2*x0*x1*x3 + x1*x2*x3 - 4*x2^2*x3"
    " - 2*x0*x3^2 + 3*x1*x3^2 - 4*x3^3",
]
ANALYZE = {
    "readme": README,
    "dense_pencil_qq": DENSE_PENCIL,
    "schematic_qq": SCHEMATIC,
    "schematic_fp": [*SCHEMATIC, "--field", "fp:32003"],
    "mixed_qq": MIXED,
    "mixed_fp": [*MIXED, "--field", "fp:32003"],
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


@pytest.mark.parametrize("name, field", [("qq", "rational"), ("fp", "fp:32003")], ids=["qq", "fp"])
def test_corpus_analyze_reports_are_unchanged(capsys, name, field):
    # the corpus pins few ideals; this pins every printed scheme and Bourbaki ideal
    docs = {}
    for fx in FIXTURES:
        argv = ["analyze", "--f", fx.f, "--g", fx.g, "--field", field, "--bourbaki", "--betti", "--json"]
        docs[fx.name] = doc = json.loads(run(capsys, argv))
        del doc["timing_seconds"]
    got = json.dumps(docs, indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"corpus_analyze_{name}.json").read_text()


@pytest.mark.parametrize("name, field", [("qq", QQ), ("fp", PrimeField(32003))], ids=["qq", "fp"])
def test_dense_analyze_reports_are_unchanged(capsys, name, field):
    # seeded dense pairs have m = 0; this pins their schemes beyond (1, 2)
    ring, docs = PolyRing(field, 4), {}
    label = "rational" if field == QQ else "fp:32003"
    for df, dg in [(0, 1), (0, 2), (1, 1), (2, 2), (1, 3)]:
        f, g = map(str, sample_pair(ring, df, dg, 0, 0))
        argv = ["analyze", "--f", f, "--g", g, "--field", label, "--bourbaki", "--betti"]
        docs[f"{df}_{dg}"] = doc = json.loads(run(capsys, [*argv, "--json"]))
        del doc["timing_seconds"]
    got = json.dumps(docs, indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / f"dense_analyze_{name}.json").read_text()


@pytest.mark.parametrize("name, field", [("corpus_qq", "rational"), ("corpus_fp", "fp:32003")])
def test_corpus_report_is_unchanged(capsys, name, field):
    out = run(capsys, ["corpus", "--verbose", "--field", field])
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("dg", [1, 2, 3])
def test_search_report_beyond_cubic_pencils_is_unchanged(capsys, dg):
    # (1, dg) pairs: the CI checks the installed script against the same files
    argv = ["search", "--df", "1", "--dg", str(dg), "--count", "8", "--seed", "0"]
    assert run(capsys, argv) == (GOLDEN / f"search_1_{dg}.json").read_text()


def test_linear_entry_search_report_is_unchanged(capsys):
    # df = 0: a linear f, whose wedge syzygies have a constant relation
    argv = ["search", "--df", "0", "--dg", "2", "--count", "8", "--seed", "0"]
    assert run(capsys, argv) == (GOLDEN / "search_0_2.json").read_text()


@pytest.mark.parametrize("dg", [0, 1])
def test_edge_shape_search_report_is_unchanged(capsys, dg):
    # df = 0 with dg <= 1: a plane-section degree cap of d + dg - 2 is negative
    argv = ["search", "--df", "0", "--dg", str(dg), "--count", "8", "--seed", "0"]
    assert run(capsys, argv) == (GOLDEN / f"search_0_{dg}.json").read_text()


def test_cubic_quartic_search_report_is_unchanged(capsys):
    # (2, 3): wedge entries of degree 5, a degree the benchmark digests miss
    argv = ["search", "--df", "2", "--dg", "3", "--count", "8", "--seed", "0"]
    assert run(capsys, argv) == (GOLDEN / "search_2_3.json").read_text()
