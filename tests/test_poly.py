"""Polynomial arithmetic, the grevlex order, parser and printer."""

import random
import re
import sys
import time
from fractions import Fraction

import pytest

from logtangent.fields import QQ, FieldMismatchError, PrimeField
from logtangent import PackingOverflowError, groebner
from logtangent.poly import ParseError, PolyRing, dot, monomials_of_degree
from oracles import compose_linear, grevlex_key


def exponents(p):
    return {p.ring.unpack(m): c for m, c in p.terms}


def test_parse_mixed_sign_quadratic(qq4):
    p = qq4.parse("2*x1*x3 - x1^2")
    assert exponents(p) == {
        (0, 1, 0, 1): Fraction(2),
        (0, 2, 0, 0): Fraction(-1),
    }
    assert p.degree == 2 and p.is_homogeneous()


def test_parse_cancellation_to_zero(qq4):
    assert qq4.parse("x0 - x0").is_zero()


def test_parse_square_expansion(qq4):
    # oracle: expand by one explicit multiplication
    s = qq4.parse("x0 + x1")
    assert qq4.parse("(x0+x1)^2") == s * s
    assert exponents(qq4.parse("(x0+x1)^2")) == {
        (2, 0, 0, 0): Fraction(1),
        (1, 1, 0, 0): Fraction(2),
        (0, 2, 0, 0): Fraction(1),
    }


def test_parse_rational_literals(qq4):
    p = qq4.parse("1/2*x0 + 3/2*x0")
    assert p == qq4.parse("2*x0")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x0/2", "division"),
        ("(x0+x1)/3", "division"),
        ("x0 +", "expected"),
        ("2x1", "missing '*'"),
        ("x0^-2", "exponent"),
        ("x0^x1", "exponent"),
        ("y + x0", "unknown variable"),
        ("x9", "unknown variable"),
        ("x0 * * x1", "expected"),
        ("(x0", "expected ')'"),
    ],
)
def test_parse_errors(qq4, text, fragment):
    with pytest.raises(ParseError) as err:
        qq4.parse(text)
    assert fragment in str(err.value)
    assert err.value.offset >= 0


def test_parse_error_offset_points_at_problem(qq4):
    with pytest.raises(ParseError) as err:
        qq4.parse("x0 + x7^2")
    assert err.value.offset == 5


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("2*x0 x1", "missing '*' between factors", 5),
        ("x0^x1", "exponent must be a non-negative integer", 3),
        ("-(x1 - 1/2*x2)^", "exponent must be a non-negative integer", 15),
        ("3/x0", "division is only allowed in rational literals", 1),
        ("-x0^2/3", "division is only allowed in rational literals", 5),
        ("4*x1^2*(x0 - 3)^2 / 2", "division is only allowed in rational literals", 18),
        ("x0 + 2*(x1", "expected ')'", 10),
        ("x0 * * x1", "expected a number, variable or '('", 5),
        # str.isdigit takes a superscript digit, but int() refuses it
        ("x0^²", "unexpected character '²'", 3),
        ("²*x0", "unexpected character '²'", 0),
        ("x²", "unknown variable 'x'", 0),
    ],
)
def test_parse_error_messages_and_offsets(qq4, text, message, offset):
    with pytest.raises(ParseError) as err:
        qq4.parse(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [
        ("9^9999*x0", 2),  # 9542 digits
        ("9^10000000*x0", 2),  # refused before the power is built
        ("(9)^10000000", 4),
        ("(9^4000*x0)^2", 12),  # the lead of a power is the power of the lead
        ("1/10^4300", 5),  # a denominator of 4301 digits
        ("3^9999", 2),  # close enough to the limit to be built and measured
        ("9^4000*9^4000*x0", 0),  # a product of printable powers
        ("10^4299*9 + 10^4299", 0),  # a sum one digit past the limit
    ],
)
def test_unprintable_rational_coefficient_is_a_parse_error(qq4, digit_limit, text, offset):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        qq4.parse(text)
    assert time.perf_counter() - start < 1
    assert str(err.value) == f"coefficient has more than {digit_limit} digits (at offset {offset})"


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize(
    "text, offset",
    [("2*" + "1" * 4301, 2), ("x" + "0" * 4301, 0)],
    ids=["literal", "variable_index"],
)
def test_digit_run_longer_than_int_reads_is_a_parse_error(digit_limit, field, text, offset):
    with pytest.raises(ParseError) as err:
        PolyRing(field, 4).parse(text)
    assert str(err.value) == f"number has more than {digit_limit} digits (at offset {offset})"


def test_coefficients_up_to_the_digit_limit_parse_and_print(qq4, fp4, digit_limit):
    assert str(qq4.parse("10^4299*x0")) == "1" + "0" * 4299 + "*x0"
    assert str(qq4.parse("1/" + "9" * digit_limit)) == "1/" + "9" * digit_limit
    # over GF(p) a power is taken mod p, so no exponent is refused
    start = time.perf_counter()
    assert fp4.parse("9^10000000*x0") == fp4.parse("13863*x0")
    assert time.perf_counter() - start < 1
    sys.set_int_max_str_digits(0)  # no limit
    assert qq4.parse("9^9999*x0") == qq4.parse("x0") * 9**9999


def random_expression(rng, depth=2):
    """A signed sum of products of numbers, rational literals, variables,
    their powers and parenthesized subexpressions."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.3:
                factor = str(rng.randint(0, 40))
            elif roll < 0.4:
                factor = f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
            elif roll < 0.85 or not depth:
                factor = f"x{rng.randrange(4)}"
            else:
                factor = f"({random_expression(rng, depth - 1)})"
            if rng.random() < 0.3:
                factor += f"^{rng.randint(0, 4)}"
            factors.append(rng.choice(["", "", "", "-", "+"]) + factor)
        terms.append(rng.choice([" + ", " - "]) + "*".join(factors))
    return "".join(terms).removeprefix(" + ")


# every number, rational literal and variable but an exponent
ATOM = re.compile(r"(?<![\^\d])(\d+/\d+|\d+|x\d)")


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_folded_terms_match_polynomial_arithmetic(field):
    """Parenthesized, every atom is a Polynomial, so each product and power
    runs through Polynomial arithmetic instead of the folded term."""
    ring = PolyRing(field, 4)
    rng = random.Random(17)
    for _ in range(300):
        text = random_expression(rng)
        general = ATOM.sub(r"(\1)", text)
        assert "(" in general
        assert ring.parse(text) == ring.parse(general), text


def test_mul_difference_of_squares(qq4):
    a = qq4.parse("x0 + x1")
    b = qq4.parse("x0 - x1")
    assert a * b == qq4.parse("x0^2 - x1^2")


def test_mul_absorbs_zero(qq4):
    assert (qq4.parse("x0^2 + 3*x2") * qq4.zero()).is_zero()


def test_square_of_linear_form_all_variables(qq4):
    # multinomial count: 4 squares with coefficient 1, 6 cross terms with 2
    p = qq4.parse("(x0 + x1 + x2 + x3)^2")
    assert len(p.terms) == 10
    coeffs = sorted(c for _, c in p.terms)
    assert coeffs == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_mixed_fields_rejected(qq4, fp4):
    with pytest.raises(FieldMismatchError):
        qq4.parse("x0") * fp4.parse("x0")


def test_partial_derivative_pair_entry(qq4):
    p = qq4.parse("2*x1*x3 - x1^2")
    assert p.partial(3) == qq4.parse("2*x1")
    assert p.partial(0).is_zero()


def test_partial_derivative_power_rule(qq4):
    for k in range(1, 6):
        p = qq4.variable(2) ** k
        assert p.partial(2) == qq4.parse(f"{k}*x2^{k-1}" if k > 1 else f"{k}")


def test_euler_relation_on_random_homogeneous(qq4):
    rng = random.Random(1131)
    for _ in range(40):
        d = rng.randint(1, 5)
        p = qq4.random_homogeneous(d, rng)
        if p.is_zero():
            continue
        total = qq4.zero()
        for i in range(4):
            total = total + qq4.variable(i) * p.partial(i)
        assert total == p * d


def test_grevlex_is_graded_and_transitive(qq4):
    rng = random.Random(2026)
    monos = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(60)]
    key = qq4.pack
    for a in monos[:20]:
        for b in monos[20:40]:
            assert (key(a) > key(b)) == (grevlex_key(a) > grevlex_key(b))
            if key(a) > key(b):
                assert sum(a) >= sum(b)
            for c in monos[40:]:
                if key(a) > key(b) and key(b) > key(c):
                    assert key(a) > key(c)
                # multiplication compatibility
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert (key(a) > key(b)) == (key(ac) > key(bc))


def test_grevlex_classic_degree_two_chain(qq4):
    x0x0 = (2, 0, 0, 0)
    x0x1 = (1, 1, 0, 0)
    x1x1 = (0, 2, 0, 0)
    x0x3 = (1, 0, 0, 1)
    assert grevlex_key(x0x0) > grevlex_key(x0x1) > grevlex_key(x1x1) > grevlex_key(x0x3)
    assert qq4.pack(x0x0) > qq4.pack(x0x1) > qq4.pack(x1x1) > qq4.pack(x0x3)


def test_printer_parser_round_trip(qq4, fp4):
    rng = random.Random(77)
    for ring in (qq4, fp4):
        for _ in range(25):
            p = ring.random_homogeneous(rng.randint(0, 4), rng)
            assert ring.parse(str(p)) == p


def test_terms_sorted_strictly_descending(qq4):
    rng = random.Random(5)
    for _ in range(20):
        p = qq4.random_homogeneous(3, rng)
        keys = [grevlex_key(qq4.unpack(m)) for m, _ in p.terms]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


def test_packed_degree_bound(qq4):
    assert groebner.PackingOverflowError is PackingOverflowError
    assert qq4.parse("x0^255").degree == 255
    p = qq4.parse("x0^200 * x1^55")
    assert [qq4.unpack(m) for m, _ in p.terms] == [(200, 55, 0, 0)]
    for text in ("x0^256", "x0^200 * x1^56"):
        with pytest.raises(PackingOverflowError, match="packed degree bound"):
            qq4.parse(text)
    with pytest.raises(PackingOverflowError):
        qq4.pack((0, 0, 0, 256))
    with pytest.raises(PackingOverflowError):
        qq4.variable(0) ** 200 * qq4.variable(1) ** 56


def test_compose_linear_permutation(qq4):
    p = qq4.parse("x0^2*x1 - x3^3")
    # swap x0 <-> x1
    mat = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    matq = [[QQ.of(v) for v in row] for row in mat]
    assert compose_linear(p, matq) == qq4.parse("x1^2*x0 - x3^3")


def test_monomials_of_degree_count():
    assert sum(1 for _ in monomials_of_degree(4, 3)) == 20  # C(6,3)
    assert sum(1 for _ in monomials_of_degree(3, 4)) == 15  # C(6,2)


def test_prime_field_arithmetic():
    K = PrimeField(32003)
    a = K.of(-5)
    assert 0 <= a < 32003
    assert 0 <= K.reduce(-a) < 32003
    assert K.reduce(a * K.inv(a)) == K.one
    assert K.reduce(a + K.reduce(-a)) == K.zero
    assert K.of(3, 2) == K.reduce(K.of(3) * K.inv(K.of(2)))


@pytest.mark.parametrize(
    "field, text, offset",
    [(PrimeField(7), "1/7*x0", 2), (PrimeField(7), "x1 + 3/14", 7), (QQ, "x0 - 5/0", 7)],
)
def test_denominator_vanishing_in_the_field_is_a_parse_error(field, text, offset):
    with pytest.raises(ParseError) as err:
        PolyRing(field, 4).parse(text)
    assert "vanishes" in str(err.value)
    assert err.value.offset == offset


def test_denominator_invertible_mod_p_parses():
    K = PrimeField(7)
    assert PolyRing(K, 4).parse("1/3*x0").terms[0][1] == K.of(1, 3) == 5


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 32004])
def test_prime_field_rejects_bad_modulus(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_scaled_reduces_the_scalar_before_the_zero_test():
    ring = PolyRing(PrimeField(7), 4)
    p = ring.parse("x0 + x1")
    zero = p.scaled(7)
    assert zero.is_zero() and zero == ring.zero()
    assert p.scaled(8) == p
    assert p.scaled(-6) == p


def random_sparse(ring, rng):
    """Up to four terms of degree at most 3 with coefficients a/b, |a| <= 9,
    1 <= b <= 4 (reduced mod p over GF(p)); zero about one time in five."""
    if rng.random() < 0.2:
        return ring.zero()
    monomials = [rng.choice(list(monomials_of_degree(4, rng.randint(0, 3)))) for _ in range(4)]
    field = ring.field
    return ring.poly(
        (ring.pack(e), field.of(rng.randint(-9, 9), rng.randint(1, 4))) for e in monomials
    )


def schoolbook(a, b):
    ring = a.ring
    return ring.poly((ma + mb - ring.unit, ca * cb) for ma, ca in a.terms for mb, cb in b.terms)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_dot_is_the_sum_of_products(field):
    ring = PolyRing(field, 4)
    rng = random.Random(61)
    zeros = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        left = [random_sparse(ring, rng) for _ in range(n)]
        right = [random_sparse(ring, rng) for _ in range(n)]
        zeros += sum(p.is_zero() for p in left + right)
        by_star, by_hand = ring.zero(), ring.zero()
        for a, b in zip(left, right):
            by_star = by_star + a * b
            by_hand = by_hand + schoolbook(a, b)
        got = dot(left, right)
        assert got.terms == by_star.terms == by_hand.terms
        assert all(type(c) is type(field.one) for _, c in got.terms)
        if field.characteristic:
            assert all(0 < c < field.characteristic for _, c in got.terms)
    assert zeros > 40


def test_dot_refuses_what_star_refuses(qq4, fp4, qq3):
    x, y = qq4.variable(0), qq4.variable(1)
    for run in (lambda: x * fp4.variable(0), lambda: dot([x, y], [y, fp4.variable(0)])):
        with pytest.raises(FieldMismatchError):
            run()
    for run in (lambda: x * qq3.variable(0), lambda: dot([x, y], [qq3.variable(0), y])):
        with pytest.raises(ValueError, match="mixed variable counts"):
            run()
    for run in (lambda: x * "x1", lambda: dot([x], ["x1"])):
        with pytest.raises(TypeError):
            run()
    high, low = x**200, y**56
    for run in (lambda: high * low, lambda: dot([y, high], [x, low])):
        with pytest.raises(PackingOverflowError, match="packed degree bound"):
            run()
    # a zero factor makes no product, so no degree to bound
    assert dot([high, y], [qq4.zero(), x]) == x * y
    for left, right in (([x], [x, y]), ([x, y], [x]), ([], [])):
        with pytest.raises(ValueError, match="left and"):
            dot(left, right)
