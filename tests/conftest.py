import sys

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.poly import PolyRing


@pytest.fixture(scope="session")
def qq4():
    return PolyRing(QQ, 4)


@pytest.fixture(scope="session")
def qq3():
    return PolyRing(QQ, 3)


@pytest.fixture(scope="session")
def fp4():
    return PolyRing(PrimeField(32003), 4)


@pytest.fixture
def digit_limit():
    """The interpreter's int-to-str digit limit, set to its default 4300 for
    the test and restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
