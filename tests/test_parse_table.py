"""Every parse outcome pinned: each fixture string over QQ and seeded random
strings over QQ and GF(7) against tests/golden/parse_cases.txt, one line per
case holding the field, the repr of the input and either the printed
polynomial or the exception type and message.

Record the table again with ``PYTHONPATH=src python tests/test_parse_table.py``
only when the parser is meant to change."""

import random
from pathlib import Path

from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES, IDEAL_PINS
from logtangent.poly import PackingOverflowError, ParseError, PolyRing

TABLE = Path(__file__).parent / "golden" / "parse_cases.txt"
RINGS = {"QQ": PolyRing(QQ, 4), "GF7": PolyRing(PrimeField(7), 4)}
# drawn one time in twenty, so that most strings reach the grammar; a
# superscript digit stays out: str.isdigit takes it, int refuses it
RARE = ["٣", "x", "x4", "y", "X", "é", "\t"]
COMMON = [*"0123456789", "x0", "x1", "x2", "x3", *"+-*^()/", " "]
# refusals and spellings that random strings seldom reach
CHOSEN = [
    "1/7*x0", "x1 + 3/14", "x0 - 5/0", "0/5", "x0^256", "x0^200*x1^56", "(x0+x1)^300",
    "x007", "x٣", "٣/٢*x1", "-(x1 - 1/2*x2)^3", " \tx0^0 ", "+-x0", "x0^2^3",
]


def parse_cases():
    """(field name, text) for every fixture string, then the chosen and the
    random strings."""
    for fx in FIXTURES:
        for text in (fx.f, fx.g, *(s for name in IDEAL_PINS for s in getattr(fx, name) or ())):
            yield "QQ", text
    rng = random.Random(22)
    for text in CHOSEN + [random_string(rng) for _ in range(300)]:
        for name in RINGS:
            yield name, text


def random_string(rng):
    size = rng.randint(0, 12)
    text = ""
    while len(text) < size:
        text += rng.choice(RARE if rng.random() < 0.05 else COMMON)
    return text[:size]


def outcome(field, text):
    try:
        return str(RINGS[field].parse(text))
    except (ParseError, PackingOverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def table_lines():
    return [f"{field}\t{text!r}\t{outcome(field, text)}\n" for field, text in parse_cases()]


def test_parse_outcomes_match_the_recorded_table():
    assert table_lines() == TABLE.read_text(encoding="utf-8").splitlines(keepends=True)


if __name__ == "__main__":
    TABLE.write_text("".join(table_lines()), encoding="utf-8")
