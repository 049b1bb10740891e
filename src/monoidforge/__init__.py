"""monoidforge: exact arithmetic for finitely generated commutative monoids,
their ideals and monoid algebras, Milnor/conductor squares, and
conductor-square Picard/SK0 computations at desk scale."""

from .lattice import (
    AbelianGroupShape,
    facet_normals,
    nonneg_solve,
    smith_normal_form,
    subgroup_shape,
)
from .monoid import (
    CancellativeMonoid,
    InconclusiveError,
    Membership,
    PcMonoid,
    is_positive,
    is_torsion_free,
    member,
    quotient_by_ideal,
    rank,
    smash,
    star_submonoid,
    units_submonoid,
)
from .cones import Face, RationalCone, face_lattice, face_locate, interior_member, is_extremal
from .closure import (
    ClosureResult,
    SnFaceStructure,
    hilbert_basis,
    is_normal,
    is_seminormal,
    normalize,
    normalize_in_gp,
    seminormalize,
    sn_face_structure,
)
from .ideals import (
    CertificationError,
    MonoidIdeal,
    PrimeDecomposition,
    ideal_filtration,
    is_prime,
    is_radical,
    prime_decomposition,
    prime_pullback,
    radical,
)
from .rings import GF, QQ, ZZ, GaloisField, IntegerModRing, ring_from_name
from .algebra import (
    AlgebraElement,
    CancellativeAlgebra,
    MonomialQuotientAlgebra,
    MonomialSubsetAlgebra,
    PcAlgebra,
    is_domain_verdict,
    is_invertible,
    is_reduced_verdict,
    truncate,
    units_description,
)
from .squares import (
    MilnorSquare,
    build_face_filtration,
    build_pc,
    build_positive_split,
    build_prime_intersection,
    build_seminormal_step,
    build_torsion_splitting,
    corrupt_square,
    verify_cartesian,
    verify_reduced_iso,
)
from .conductor import (
    NumericalSemigroup,
    conductor_data,
    picard_by_patching,
    sk0_vanishing_certificate,
    unit_group,
)

__version__ = "0.1.0"
