"""matrix_rank, the row echelon rank behind the constant-kernel dimension."""

import random
from fractions import Fraction

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.linalg import matrix_rank

GF7 = PrimeField(7)

# rows over GF(7) with values in [0, 7), and their rank
GF7_CASES = {
    "empty": ([], 0),
    "zero_rows": ([[0, 0, 0], [0, 0, 0]], 0),
    # row 0 + row 1 = (7, 7, 1) = row 2 mod 7; over QQ the rank would be 3
    "cancellation": ([[1, 3, 0], [6, 4, 1], [0, 0, 1]], 2),
    "zero_rows_between": ([[0, 0, 0], [1, 1, 1], [0, 0, 0], [2, 2, 2]], 1),
    "repeated_rows": ([[1, 2, 3, 4], [1, 2, 3, 4], [4, 3, 2, 1], [1, 2, 3, 4]], 2),
    # 3 * (1, 2, 3) = (3, 6, 2) mod 7
    "multiple_mod_7": ([[1, 2, 3], [3, 6, 2], [0, 5, 0]], 2),
    "full_rank": ([[1, 1, 0], [1, 1, 1], [1, 0, 0]], 3),
    "tall": ([[1, 0], [0, 1], [1, 1], [5, 2]], 2),
}


@pytest.mark.parametrize("case", sorted(GF7_CASES))
def test_rank_over_gf7(case):
    rows, rank = GF7_CASES[case]
    assert matrix_rank(rows, GF7) == rank
    assert matrix_rank(list(reversed(rows)), GF7) == rank


def test_rank_matches_sympy_over_qq():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(40):
        m, n, k = rng.randint(1, 5), rng.randint(1, 6), rng.randint(0, 4)
        # a product through k dimensions, so ranks below min(m, n) are common
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [
            [QQ.of(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)]
            for _ in range(k)
        ]
        rows = [
            [sum((a * r[j] for a, r in zip(row, right)), Fraction(0)) for j in range(n)]
            for row in left
        ]
        expected = sympy.Matrix(
            m, n, [sympy.Rational(c.numerator, c.denominator) for row in rows for c in row]
        ).rank()
        assert matrix_rank(rows, QQ) == expected
