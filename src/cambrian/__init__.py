"""Cambrian lattices, congruences and fans for finite Coxeter groups.

The package is organized as:

- ``coxeter``: Coxeter systems of types A, B, I2(m), H3; weak order.
- ``fields``: exact arithmetic in Q, Q(sqrt 2) and Q(sqrt 5) for root closures.
- ``lattices``: finite lattices, congruences, quotients, forcing.
- ``congruences``: orientations of the diagram and Cambrian quotients.
- ``polygon_a``: triangulations of a labeled polygon and the type A map eta.
- ``polygon_b``: centrally symmetric triangulations and the type B story.
- ``fans``: region cones, Cambrian fan rays, cluster complexes.
- ``suites``: the named verification suites used by the command line tool.
- ``cli``: the ``cambrian`` command line entry point.
"""

from .coxeter import (
    CapExceeded,
    CoxeterSystem,
    build_system,
    contains_signed_pattern,
    get_system,
    standardize_signed,
    ji_subset_to_perm,
    perm_to_ji_subset,
    signed_ji_to_perm,
    perm_to_signed_ji,
)
from .lattices import (
    FiniteLattice,
    LatticeCongruence,
    congruence_closure,
    congruence_from_partition,
    contraction_congruence,
    forcing_arrows,
    quotient_lattice,
    poset_isomorphism,
    poset_anti_isomorphism,
)
from .congruences import (
    CambrianLattice,
    NotCambrianError,
    Orientation,
    all_orientations,
    cambrian_congruence,
    cambrian_lattice,
    check_iso_anti_iso,
    descent_quotient_check,
    generating_pairs,
    orientation_from_edges,
    parabolic_restriction_check,
    parse_orientation,
    recover_orientation,
)
from .polygon_a import (
    PolygonQ,
    TriangulationA,
    UpDownSignature,
    all_triangulations,
    contains_colored_pattern,
    descent_set_of_triangulation,
    eta,
    eta_masks,
    is_pi_down_fixed,
    is_pi_up_fixed,
    ji_contracted_a,
    lambda_paths,
    pi_down,
    pi_up,
    projection_tables,
    signatures_for_orientation,
    polygon_from_signature,
    shard_arrow_a,
    shard_digraph_a,
    camb_forcing_a,
    triangulation_lattice,
    transitive_closure_digraph,
    uncontracted_ji_subsets,
)
from .polygon_b import (
    SymmetricSignature,
    TriangulationB,
    all_symmetric_signatures,
    b_shard_arrow,
    b_tamari_membership,
    descent_set_b,
    eta_b,
    ji_contraction_test_b,
    linear_signature,
    shard_digraph_b,
    symmetric_triangulation_lattice,
    symmetric_triangulations,
)
from .fans import (
    RationalCone,
    cambrian_fan_rays,
    check_fan,
    check_fan_a,
    check_fan_b,
    check_fan_h3,
    cluster_poset,
    clusters,
    compatible,
    nice_coroot,
    psi,
    ray_to_diagonal,
    region_cone,
    roots_and_diagonals_a,
    rotation_number,
    tau,
    twist_check,
)

__version__ = "0.1.0"


def enumerate_weak_order(system: CoxeterSystem, cap=None) -> FiniteLattice:
    """The weak order on the group as a finite lattice."""
    return system.weak_order_lattice(cap)


def weak_join(system: CoxeterSystem, x, y):
    """Join of two group elements in the weak order."""
    return system.join(x, y)


def weak_meet(system: CoxeterSystem, x, y):
    """Meet of two group elements in the weak order."""
    return system.meet(x, y)


def inversion_set(system: CoxeterSystem, w):
    """Left inversion set of an element, as canonical reflection keys."""
    return system.inversion_set(w)


def ji_from_subset(n: int, members) -> tuple:
    """The join-irreducible permutation with the given subset of [1, n]."""
    return ji_subset_to_perm(n, frozenset(members))


def subset_of_ji(x: tuple) -> frozenset:
    """Inverse of ``ji_from_subset`` on join-irreducible permutations."""
    return perm_to_ji_subset(x)


def signed_ji_from_signed_subset(n: int, members) -> tuple:
    """The join-irreducible signed permutation of a signed subset."""
    return signed_ji_to_perm(n, frozenset(members))


def signed_subset_of_ji(x: tuple) -> frozenset:
    """Inverse of ``signed_ji_from_signed_subset``."""
    return perm_to_signed_ji(x)


def is_lattice_congruence(lattice: FiniteLattice, blocks):
    """Whether a partition (blocks of element indices) is a congruence.

    Returns (True, None) or (False, first violated condition).
    """
    try:
        cong = congruence_from_partition(lattice, blocks)
    except ValueError as exc:
        return False, str(exc)
    return cong.verify()


def quotient(lattice: FiniteLattice, cong: LatticeCongruence) -> FiniteLattice:
    """Quotient by a congruence; elements are the class bottoms.

    Raises ValueError unless ``cong`` is a lattice congruence of ``lattice``.
    """
    if cong.lattice is not lattice:
        raise ValueError("congruence belongs to a different lattice")
    ok, reason = cong.verify()
    if not ok:
        raise ValueError(f"not a lattice congruence: {reason}")
    return quotient_lattice(cong)


def cg(lattice: FiniteLattice, ji_index: int) -> LatticeCongruence:
    """Smallest congruence contracting a join-irreducible (by index)."""
    return contraction_congruence(lattice, ji_index)


class ForcingPoset:
    """Forcing among join-irreducibles: g forces g' when every congruence
    contracting g also contracts g'."""

    def __init__(self, lattice: FiniteLattice):
        self.lattice = lattice
        self.nodes = list(lattice.join_irreducibles)
        self.forced = forcing_arrows(lattice)

    def forces(self, g: int, h: int) -> bool:
        return h in self.forced[g]


def forcing_poset(lattice: FiniteLattice) -> ForcingPoset:
    """The forcing relation on the join-irreducibles of the lattice."""
    return ForcingPoset(lattice)


def mobius(lattice: FiniteLattice, i: int, j: int) -> int:
    """Mobius function of the interval [i, j] (element indices)."""
    return lattice.mobius(i, j)


def is_atomic_interval(lattice: FiniteLattice, i: int, j: int) -> bool:
    """Whether the join of the atoms of [i, j] is j."""
    return lattice.is_atomic_interval(i, j)


def is_sublattice(lattice: FiniteLattice, subset):
    """Whether a set of element indices is closed under join and meet."""
    return lattice.is_sublattice(subset)
