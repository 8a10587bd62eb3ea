"""Finite Coxeter systems and their weak orders.

Supported families:

* ``A`` (rank r): the symmetric group on r+1 letters, elements as
  one-line permutation tuples.
* ``B`` (rank n): signed permutations, elements as abbreviated signed
  tuples (x_1, ..., x_n) with x_{-i} = -x_i implied.
* ``I2`` (parameter m) and ``H3``: a generic engine of root
  permutations, built on its first read, once per system.  I2(m) numbers
  its 2m roots by angle, in closed form, with no number field; H3 closes
  its roots over Z[2cos(pi/5)] = Z[golden ratio].  An element is the
  tuple of root ids it sends the roots to, and nothing else: its
  (positive-root) inversions are the positive roots it sends negative,
  and its word is read by stripping left descents.  A and B read the
  engine only in the tests.  I2 has no root vectors, field or Gram
  matrix, but its root supports, all the fan checks read, are closed-form.

The right weak order is generated by covers w < ws.  Joins close the
inversion sets transitively in A (``lattices._transitive``), join in S_2n
in B, and read the weak order's up-sets in I2 and H3; meets are joins
under x -> x w0 in A and B, and read the down-sets in I2 and H3.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .fields import NumberField
from .lattices import FiniteLattice, _transitive, built_lattice


class CapExceeded(Exception):
    """Raised when an enumeration would exceed the configured size cap."""


# ---------------------------------------------------------------------------
# Type A helpers: permutations of 1..n in one-line notation.


def inversion_set_a(x: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Left inversions of a permutation: pairs (a, b), a < b, with b first."""
    out = []
    for i, big in enumerate(x):
        for small in x[i + 1 :]:
            if small < big:
                out.append((small, big))
    return frozenset(out)


def join_a(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The weak-order join, whose inversions close those of x and y
    transitively.  Row b has bit a - 1 for each inversion (a, b): the a < b
    not yet seen when b is read.  Closed, with its own bit, row v puts v
    after v - |row v| smaller values and each w > v whose row holds v."""
    n = len(x)
    rows = [0] * n
    for perm in (x, y):
        seen = 0
        for b in perm:
            bit = 1 << (b - 1)
            rows[b - 1] |= (bit - 1) & ~seen
            seen |= bit
    rows = _transitive(rows)
    out = [0] * n
    for v, row in enumerate(rows):
        # The sum counts row v itself, as the bit count counts v.
        out[v - row.bit_count() + sum(r >> v & 1 for r in rows)] = v + 1
    if 0 in out:
        raise AssertionError(f"the closed inversions of {x} and {y} leave a position empty")
    return tuple(out)


# ---------------------------------------------------------------------------
# Type B helpers: signed permutations.


def full_notation(x: tuple[int, ...]) -> tuple[int, ...]:
    """Expand abbreviated (x_1..x_n) to (x_{-n}..x_{-1}, x_1..x_n)."""
    return tuple(-v for v in reversed(x)) + tuple(x)


def _check_signed(x: tuple[int, ...]) -> int:
    n = len(x)
    if sorted(abs(v) for v in x) != list(range(1, n + 1)):
        raise ValueError(f"{x} is not a signed permutation")
    return n


def canonical_reflection(a: int, b: int) -> tuple[int, int]:
    """Canonical label of the reflection swapping values a < b (and -b, -a)."""
    return max((a, b), (-b, -a))


def inversion_set_b(x: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Left inversions of a signed permutation's full notation, as canonical reflections."""
    return frozenset(canonical_reflection(a, b) for a, b in inversion_set_a(full_notation(x)))


def _b_value_to_a(v: int, n: int) -> int:
    return v + n + 1 if v < 0 else v + n


def _a_value_to_b(w: int, n: int) -> int:
    return w - n - 1 if w <= n else w - n


def embed_b_in_a(x: tuple[int, ...]) -> tuple[int, ...]:
    """Signed permutation of +-[n] as a permutation of 1..2n."""
    n = len(x)
    return tuple(_b_value_to_a(v, n) for v in full_notation(x))


def project_a_to_b(perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(perm) // 2
    signed = tuple(_a_value_to_b(w, n) for w in perm)
    if signed[: n] != tuple(-v for v in reversed(signed[n:])):
        raise ValueError(f"{perm} is not centrally symmetric")
    return signed[n:]


def join_b(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    # The signed permutations sit inside the symmetric group on 2n letters
    # as a sublattice of the weak order, so join there and project back.
    return project_a_to_b(join_a(embed_b_in_a(x), embed_b_in_a(y)))


def standardize_signed(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Signed standardization: k-th smallest absolute value maps to +-k."""
    if len({abs(v) for v in seq}) != len(seq) or 0 in seq:
        raise ValueError(f"{seq} has repeated or zero absolute values")
    rank = {a: i + 1 for i, a in enumerate(sorted(abs(v) for v in seq))}
    return tuple(rank[abs(v)] if v > 0 else -rank[abs(v)] for v in seq)


def contains_signed_pattern(x: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """Whether some subsequence of x standardizes to the signed pattern."""
    k = len(pattern)
    if k > len(x):
        return False
    return any(
        standardize_signed(sub) == pattern for sub in itertools.combinations(x, k)
    )


# ---------------------------------------------------------------------------
# Join-irreducibles as subsets (type A) and signed subsets (type B).


def ji_subset_bounds(n: int, members: frozenset[int]) -> tuple[int, int] | None:
    """(min A, max A^c) when A labels a join-irreducible of S_n, that is
    when A is a proper nonempty subset of 1..n and min A < max A^c; else
    None."""
    values = set(range(1, n + 1))
    rest = values.difference(members)
    if members and rest and values.issuperset(members) and min(members) < max(rest):
        return min(members), max(rest)
    return None


def ji_subset_to_perm(n: int, members) -> tuple[int, ...]:
    """The join-irreducible permutation Ac asc + A asc of A in [1, n] (any iterable)."""
    members = frozenset(members)
    a = sorted(members)
    ac = sorted(set(range(1, n + 1)) - set(members))
    if ji_subset_bounds(n, members) is None:
        if not set(members) <= set(range(1, n + 1)):
            raise ValueError(f"subset {a} has members outside 1..{n}")
        if a and ac:
            raise ValueError(f"subset {a} has min exceeding max of complement")
        raise ValueError("subset must be proper and nonempty")
    return tuple(ac) + tuple(a)


def perm_to_ji_subset(x: tuple[int, ...]) -> frozenset[int]:
    """Inverse of ``ji_subset_to_perm`` on join-irreducible permutations."""
    descents = [i for i in range(len(x) - 1) if x[i] > x[i + 1]]
    if len(descents) != 1:
        raise ValueError(f"{x} is not join-irreducible in the weak order")
    return frozenset(x[descents[0] + 1 :])


def all_ji_subsets_a(n: int) -> list[frozenset[int]]:
    subsets = (
        frozenset(combo)
        for r in range(1, n)
        for combo in itertools.combinations(range(1, n + 1), r)
    )
    return [a for a in subsets if ji_subset_bounds(n, a) is not None]


def signed_ji_members_valid(n: int, members: frozenset[int]) -> bool:
    if not members:
        return False
    if any(abs(v) > n or v == 0 for v in members):
        return False
    return not any(-v in members for v in members)


def signed_ji_bounds(n: int, members: frozenset[int]) -> tuple[int, int]:
    """(m, M) for a signed subset: m = min A; M = -m if |A| = n."""
    m = min(members)
    if len(members) == n:
        return (m, -m)
    pm = {v for a in members for v in (a, -a)}
    rest = set(range(-n, n + 1)) - {0} - pm
    return (m, max(rest))


def signed_ji_to_perm(n: int, members) -> tuple[int, ...]:
    """Abbreviated notation of the join-irreducible labelled by signed A (any iterable)."""
    members = frozenset(members)
    if not signed_ji_members_valid(n, members):
        raise ValueError(f"{sorted(members)} is not a valid signed subset")
    pm = {v for a in members for v in (a, -a)}
    mid = sorted(set(range(-n, n + 1)) - {0} - pm)
    full = sorted(-v for v in members) + mid + sorted(members)
    return tuple(full[n:])


def perm_to_signed_ji(x: tuple[int, ...]) -> frozenset[int]:
    """Inverse of ``signed_ji_to_perm``."""
    n = _check_signed(x)
    full = full_notation(x)
    descents = {i for i in range(2 * n - 1) if full[i] > full[i + 1]}
    # A is the final ascending block; its start is the last descent + 1.
    if not descents:
        raise ValueError(f"{x} is the identity, not join-irreducible")
    start = max(descents) + 1
    members = frozenset(full[start:])
    if signed_ji_to_perm(n, members) != x:
        raise ValueError(f"{x} is not join-irreducible in the weak order")
    return members


def all_signed_ji_subsets(n: int) -> list[frozenset[int]]:
    out = []
    values = [v for v in range(-n, n + 1) if v != 0]
    for r in range(1, n + 1):
        for combo in itertools.combinations(values, r):
            members = frozenset(combo)
            if not signed_ji_members_valid(n, members):
                continue
            m, big_m = signed_ji_bounds(n, members)
            if big_m > m:
                out.append(members)
    return out


def _length_counts(degrees) -> list:
    """The coefficients of prod (1 + q + ... + q^(d-1)) over the degrees
    d: the number of elements of each length in a Coxeter group with
    these degrees."""
    coefficients = [1]
    for d in degrees:
        coefficients = [
            sum(coefficients[max(0, k - d + 1) : k + 1])
            for k in range(len(coefficients) + d - 1)
        ]
    return coefficients


class Family(NamedTuple):
    """A family's row: the argument that picks a group ("rank", "m" for the
    bond of I2, None for H3), the rank it fixes (None if the rank picks)
    and, for rank r and bond m, the generator names, the bonds m(s, t) > 2
    of the diagram, the degrees of the basic invariants and the group's name.
    The suites number the groups by an index n from ``first``: ``key(n)``
    gives the (rank, bond) of group n, and ``label`` names it in checks."""

    parameter: Optional[str]
    rank: Optional[int]
    names: Callable
    bonds: Callable
    degrees: Callable
    group: Callable
    first: int
    key: Callable
    label: str


# Generator 0 of B changes a sign; bond m(1, 2) of H3 is 5.  Index n is
# S_n in A, B_n in B and I2(n) in I2; H3 is one group.
FAMILIES = {
    "A": Family("rank", None, lambda r, m: tuple(range(1, r + 1)),
                lambda r, m: {(s, s + 1): 3 for s in range(1, r)},
                lambda r, m: tuple(range(2, r + 2)), lambda r, m: f"S_{r + 1}",
                3, lambda n: (n - 1, None), "A n={n}"),
    "B": Family("rank", None, lambda r, m: tuple(range(r)),
                lambda r, m: {(s, s + 1): 4 if s == 0 else 3 for s in range(r - 1)},
                lambda r, m: tuple(range(2, 2 * r + 1, 2)), lambda r, m: f"B_{r}",
                2, lambda n: (n, None), "B n={n}"),
    "I2": Family("m", 2, lambda r, m: (1, 2), lambda r, m: {(1, 2): m},
                 lambda r, m: (2, m), lambda r, m: f"I2({m})", 3, lambda n: (None, n), "I2({n})"),
    "H3": Family(None, 3, lambda r, m: (1, 2, 3), lambda r, m: {(1, 2): 5, (2, 3): 3},
                 lambda r, m: (2, 6, 10), lambda r, m: "H3", 3, lambda n: (None, None), "H3"),
}


class CoxeterSystem:
    """A finite Coxeter system, labelled as its row of ``FAMILIES`` says.

    An I2 or H3 element w is one tuple: ``w[k]`` is the id of w(rho_k) for
    every root id k, where the positive roots are 0..N-1 and -rho_k is
    k+N.  Its inversion set is the positive roots p - N with p >= N in
    ``w[:N]``; its word is its least left descent s_i followed by the
    word of s_i w, the lexicographically least reduced word.
    """

    def __init__(self, family: str, rank: Optional[int] = None, bond: Optional[int] = None):
        self.family, self.rank, self.bond = family, rank, bond = _system_key(family, rank, bond)
        row = FAMILIES[family]
        self.generator_names = names = row.names(rank, bond)
        self.n = max(names) + 1  # letters of one-line notation, in A and B
        self._bonds = {p: m for (s, t), m in row.bonds(rank, bond).items() for p in ((s, t), (t, s))}
        self.degrees = row.degrees(rank, bond)

    # -- Coxeter matrix -----------------------------------------------------

    def bond_label(self, s, t) -> int:
        return 1 if s == t else self._bonds.get((s, t), 2)

    def catalan_number(self) -> int:
        """prod (h + d) / d over the degrees d, with h the largest: the
        number of classes of every Cambrian congruence."""
        h = max(self.degrees)
        return math.prod(h + d for d in self.degrees) // self.order

    @property
    def order(self) -> int:
        """|W|, the product of the degrees."""
        return math.prod(self.degrees)

    # -- elements and multiplication ---------------------------------------

    def identity(self):
        if self.family in ("A", "B"):
            return tuple(range(1, self.n + 1))
        return tuple(range(2 * self._engine.positive))

    def generator(self, name):
        return self.right_multiply(self.identity(), name)

    def right_multiply(self, w, name):
        if self.family in ("A", "B"):
            # s_0 (B only) negates the first entry; s_a swaps entries a, a+1.
            lst = list(w)
            if name == 0:
                lst[0] = -lst[0]
            else:
                lst[name - 1], lst[name] = lst[name], lst[name - 1]
            return tuple(lst)
        return tuple(w[j] for j in self._engine.gen_perms[self._gen_index(name)])

    def from_word(self, word):
        w = self.identity()
        for name in word:
            w = self.right_multiply(w, name)
        return w

    def is_right_descent(self, w, name) -> bool:
        if self.family in ("A", "B"):
            return w[0] < 0 if name == 0 else w[name - 1] > w[name]
        return w[self._gen_index(name)] >= self._engine.positive

    def length(self, w) -> int:
        return len(self.inversion_set(w))

    def inversion_set(self, w):
        """Left inversion set of an element, as canonical reflection keys."""
        if self.family == "A":
            return inversion_set_a(w)
        if self.family == "B":
            return inversion_set_b(w)
        n = self._engine.positive
        return frozenset(p - n for p in w[:n] if p >= n)

    def left_descents(self, w) -> frozenset:
        """Generators s with l(sw) < l(w).

        In A and B they are read from value positions: s_a (a >= 1) is a
        descent iff a+1 comes before a in the one-line (for B, the full)
        notation, and s_0 in B iff -1 occurs in w.
        """
        if self.family in ("A", "B"):
            line = w if self.family == "A" else full_notation(w)
            where = {v: i for i, v in enumerate(line)}
            out = {a for a in range(1, self.n) if where[a + 1] < where[a]}
            if self.family == "B" and -1 in w:
                out.add(0)
            return frozenset(out)
        inversions = self.inversion_set(w)
        return frozenset(
            name for i, name in enumerate(self.generator_names) if i in inversions
        )

    def generator_of_atom(self, w):
        """Which generator a length-one element is."""
        for name in self.generator_names:
            if w == self.generator(name):
                return name
        raise ValueError(f"{w} is not a generator")

    def act(self, w, v):
        """w(v) for v in the simple-root basis: sum of v_j * w(alpha_j)."""
        engine = self._root_vectors()
        field, root_vectors = engine.field, engine.root_vectors
        images = [root_vectors[k] for k in w[: self.rank]]
        return tuple(
            functools.reduce(
                field.add,
                (field.mul(image[a], vj) for image, vj in zip(images, v)),
                field.zero,
            )
            for a in range(self.rank)
        )

    # -- element format -----------------------------------------------------

    def element_label(self, w) -> str:
        """One-line notation for A and B, a reduced word for I2 and H3."""
        if self.family in ("A", "B"):
            return ",".join(str(v) for v in w)
        word = self._word(w)
        return " ".join(f"s{g}" for g in word) if word else "e"

    def sort_key(self, w):
        """(length, one-line notation or reduced word): the canonical order."""
        return (self.length(w), tuple(w) if self.family in ("A", "B") else self._word(w))

    def _word(self, w) -> tuple:
        """The lexicographically least reduced word of an I2 or H3 element:
        its least left descent s, then the word of s w."""
        words = self._words
        if w not in words:
            name = min(self.left_descents(w))
            s = self._engine.gen_perms[self._gen_index(name)]
            words[w] = (name,) + self._word(tuple(s[p] for p in w))
        return words[w]

    @functools.cached_property
    def _words(self) -> dict:
        """The words derived so far, by element."""
        return {self.identity(): ()}

    # -- joins and meets ----------------------------------------------------

    def join(self, x, y):
        """Join of two group elements in the weak order."""
        if self.family == "A":
            return join_a(x, y)
        if self.family == "B":
            return join_b(x, y)
        lattice = self.weak_order_lattice()
        return lattice.elements[lattice.join(lattice.index[x], lattice.index[y])]

    def meet(self, x, y):
        """Meet of two group elements in the weak order."""
        if self.family in ("A", "B"):
            # x -> x w0 reverses the weak order: it reverses one-line
            # notation in A and negates it in B.
            flip = (lambda w: w[::-1]) if self.family == "A" else (lambda w: tuple(-v for v in w))
            return flip(self.join(flip(x), flip(y)))
        lattice = self.weak_order_lattice()
        return lattice.elements[lattice.meet(lattice.index[x], lattice.index[y])]

    # -- weak order enumeration ---------------------------------------------

    def weak_order_lattice(self, cap: Optional[int] = None) -> FiniteLattice:
        """The weak order as a validated lattice, built once; CapExceeded,
        before anything is enumerated, if it has more than ``cap`` elements."""
        self.check_cap(cap)
        return self._weak_order

    def check_cap(self, cap: Optional[int]) -> None:
        """Raise CapExceeded, naming the group, if it has over ``cap`` elements."""
        if cap is not None and self.order > cap:
            name = FAMILIES[self.family].group(self.rank, self.bond)
            raise CapExceeded(f"{name} has {self.order} elements, more than cap {cap}")

    @functools.cached_property
    def _weak_order(self) -> FiniteLattice:
        """The weak order, built from its covers and validated; its forcing
        table is built on the first read, as for any lattice."""
        order, succ = self._enumerate()
        return built_lattice(order, ((i, j) for i, row in enumerate(succ) for j in row))

    def _enumerate(self):
        """Elements by breadth-first search from the identity, and each
        element's successors: ``succ[i]`` holds the index of every cover
        ws of the i-th element w, ascending, so the rows read in turn give
        the covers (w, ws) as sorted index pairs.

        The frontiers hold the elements of each length, whose numbers are
        the coefficients of prod (1 + q + ... + q^(d-1)) over the degrees
        d; AssertionError, naming both lists, if they are not.
        """
        start = self.identity()
        seen = {start: 0}
        order = [start]
        names = self.generator_names
        succ = []
        frontier = [start]
        sizes = []
        while frontier:
            sizes.append(len(frontier))
            nxt = []
            # Frontiers are met in index order, so w is the len(succ)-th element.
            for w in frontier:
                row = []
                for name in names:
                    if self.is_right_descent(w, name):
                        continue
                    ws = self.right_multiply(w, name)
                    j = seen.get(ws)
                    if j is None:
                        j = seen[ws] = len(order)
                        order.append(ws)
                        nxt.append(ws)
                    row.append(j)
                row.sort()
                succ.append(row)
            frontier = nxt
        expected = _length_counts(self.degrees)
        if sizes != expected:
            raise AssertionError(
                f"elements by length {sizes}, but the degrees {self.degrees} give {expected}"
            )
        return order, succ

    # -- generic engine internals -------------------------------------------

    def _gen_index(self, name) -> int:
        return self.generator_names.index(name)

    @functools.cached_property
    def _engine(self) -> SimpleNamespace:
        """The generic engine: the number N of positive roots, their 0/1
        supports, and each simple reflection as a permutation of the root
        ids 0..2N-1, where alpha_i has id i and -(root k) has id k + N.

        I2(m) needs no field.  Root a (0 <= a < 2m) lies at angle a*pi/m,
        -(root a) is root a + m, and the reflection in root j sends a to
        2j + m - a (mod 2m).  alpha_1 is angle 0 and alpha_2 angle
        (m - 1)*pi/m, so B(alpha_1, alpha_2) = -cos(pi/m); the positive
        roots between them follow by angle.  Every other group closes its
        simple roots over a number field (``_root_closure``)."""
        if self.family != "I2":
            return self._root_closure()
        m = self.bond
        angles = [0, m - 1, *range(1, m - 1)]
        angles += [a + m for a in angles]
        ids = {a: k for k, a in enumerate(angles)}
        gens = tuple(tuple(ids[(2 * j + m - a) % (2 * m)] for a in angles) for j in (0, m - 1))
        supports = ((1, 0), (0, 1)) + ((1, 1),) * (m - 2)
        return SimpleNamespace(positive=m, gen_perms=gens, supports=supports)

    def _root_closure(self) -> SimpleNamespace:
        """The engine of a group with root vectors: also the field Z[c],
        the Gram matrix in the simple-root basis, the positive roots in id
        order and every root by id (``root_vectors[k + N]`` is -roots[k])."""
        r = self.rank
        labels = [
            [self.bond_label(self.generator_names[i], self.generator_names[j]) for j in range(r)]
            for i in range(r)
        ]
        max_label = max((m for row in labels for m in row if m > 2), default=3)
        field = NumberField(max_label)
        # 2*B(alpha_i, alpha_j) = -2*cos(pi / m_ij), an element of Z[c].
        def two_b(m):
            if m == 1:
                return field.from_rational(2)
            if m == 2:
                return field.zero
            if m == 3:
                return field.from_rational(-1)
            if m == max_label:
                return field.neg(field.generator)
            raise ValueError(f"unsupported bond label {m} alongside {max_label}")

        two_gram = [[two_b(labels[i][j]) for j in range(r)] for i in range(r)]
        half = Fraction(1, 2)
        gram = tuple(tuple(field.scale(x, half) for x in row) for row in two_gram)

        def reflect(i, v):
            # s_i(v) = v - 2 B(alpha_i, v) alpha_i
            two_bv = functools.reduce(
                field.add, (field.mul(g, x) for g, x in zip(two_gram[i], v)), field.zero
            )
            return tuple(field.sub(x, two_bv) if a == i else x for a, x in enumerate(v))

        # Positive roots: close the simple roots under the generators.  A
        # simple reflection permutes the positive roots other than its own.
        # There are as many as reflections: sum(d - 1) over the degrees.
        reflections = sum(d - 1 for d in self.degrees)
        simples = [
            tuple(field.one if j == i else field.zero for j in range(r))
            for i in range(r)
        ]
        roots = {v: i for i, v in enumerate(simples)}
        frontier = list(simples)
        while frontier:
            if len(roots) > reflections:
                raise AssertionError(f"over {reflections} positive roots, the number of reflections")
            nxt = []
            for v in frontier:
                for i in range(r):
                    if v == simples[i]:
                        continue
                    image = reflect(i, v)
                    if image not in roots:
                        roots[image] = len(roots)
                        nxt.append(image)
            frontier = nxt
        root_list = sorted(roots, key=roots.get)
        n = len(roots)
        root_vectors = root_list + [tuple(field.neg(x) for x in v) for v in root_list]
        gens = []
        for i in range(r):
            positive = [
                i + n if k == i else roots[reflect(i, v)]
                for k, v in enumerate(root_list)
            ]
            gens.append(tuple(positive + [(k + n) % (2 * n) for k in positive]))
        return SimpleNamespace(
            positive=n, field=field, gram=gram, roots=root_list, root_vectors=root_vectors,
            gen_perms=tuple(gens),
            supports=tuple(tuple(int(x != field.zero) for x in v) for v in root_list),
        )

    def _root_vectors(self) -> SimpleNamespace:
        """The engine of a group with root vectors: ValueError in I2."""
        if self.family == "I2":
            raise ValueError(f"I2({self.bond}) has no root vectors, field or Gram matrix")
        return self._engine

    roots = property(lambda self: self._root_vectors().roots)
    field = property(lambda self: self._root_vectors().field)
    gram = property(lambda self: self._root_vectors().gram)
    supports = property(lambda self: self._engine.supports)

def _system_key(family: str, rank: Optional[int], bond: Optional[int]) -> tuple:
    """One (family, rank, bond) spelling per group, with the rank its row
    fixes.  ValueError on an unknown family, a bond or rank the row refuses,
    a family A or B without a positive rank, or I2 without a bond m >= 3."""
    row = FAMILIES.get(family)
    if row is None:
        raise ValueError(f"unknown family {family!r}")
    if bond is not None and row.parameter != "m":
        raise ValueError(f"family {family} takes no bond label, got {bond}")
    if row.rank is not None and rank not in (None, row.rank):
        raise ValueError(f"family {family} has rank {row.rank}, got {rank}")
    if row.rank is None and (rank is None or rank < 1):
        raise ValueError(f"family {family} needs a positive rank")
    if row.parameter == "m" and (bond is None or bond < 3):
        raise ValueError(f"{family} needs a bond label m >= 3")
    return family, row.rank or rank, bond


# A system for family A, B, I2(m) or H3, built anew.
build_system = CoxeterSystem


_SYSTEMS: dict = {}


def get_system(family: str, rank: Optional[int] = None, bond: Optional[int] = None) -> CoxeterSystem:
    """The one shared system per group, so that each weak order is
    enumerated once per process."""
    key = _system_key(family, rank, bond)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = CoxeterSystem(*key)
    return _SYSTEMS[key]
