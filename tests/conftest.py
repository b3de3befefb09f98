import sys
import warnings

import pytest

from logtangent.fields import QQ, PrimeField
from logtangent.poly import PolyRing

# A failing hypothesis property makes its pytest plugin import the patch
# writer, which imports libcst, whose mypy_extensions.TypedDict warns
# DeprecationWarning.  Under -W error that warning, raised inside a pytest
# hook, ends the run in an INTERNALERROR instead of the falsifying example.
# Imported once here with the warning ignored, the module stays cached.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
