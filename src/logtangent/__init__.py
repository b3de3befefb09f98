"""Exact commutative-algebra kernel and logarithmic tangent sheaf invariants.

The package has two layers.  The kernel (fields, poly, modules, groebner,
hilbert, resolution) is a self-contained graded Groebner-basis engine over
exact rationals or a word-sized prime field: normal forms, syzygies,
kernels, colon ideals, saturations, Fitting ideals, annihilators, minimal
free resolutions, Betti tables and Hilbert series.  The domain layer
(sequences, invariants, bourbaki, plane, fixtures, search) applies it to a
pair of homogeneous polynomials in four variables: the syzygy module of
the Jacobian matrix, its exponents and Chern classes, the m-invariant and
Bourbaki degree, freeness classification and slope stability.
"""

__version__ = "1.0.0"

from .bourbaki import BourbakiData, BourbakiExtractionError, bourbaki_data
from .fields import QQ, FieldMismatchError, PrimeField, RationalField
from .groebner import (
    Basis,
    ModuleOrder,
    PackingOverflowError,
    Submodule,
    annihilator_of_cokernel,
    fitting_ideal_0,
    groebner_basis,
    ideal_colon,
    ideal_equals,
    ideal_groebner,
    ideal_intersection,
    module_colon,
    normal_form,
    saturate_ideal,
    syzygy_basis,
)
from .hilbert import (
    HilbertData,
    dimension_degree,
    hilbert_of_ideal_quotient,
    hilbert_of_quotient,
    linear_hilbert_polynomial,
)
from .invariants import (
    InvariantReport,
    invariants,
    stability_class,
    validate_constraints,
)
from .modules import FreeModule, Vector
from .plane import NonReducedCurveError, tjurina_plane
from .poly import ConsistencyError, ParseError, Polynomial, PolyRing
from .resolution import (
    BettiTable,
    FreeResolution,
    minimal_generators,
    module_dual,
    resolve_ideal,
    resolve_submodule,
    verify_lifting,
)
from .sequences import (
    DependentSequenceError,
    NonNormalSequenceError,
    Sequence,
    SmallCharacteristicError,
    canonical_syzygies,
    constant_kernel_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
