import itertools
import math
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from cambrian import (
    build_system,
    enumerate_weak_order,
    inversion_set,
    ji_from_subset,
    signed_ji_from_signed_subset,
    signed_subset_of_ji,
    subset_of_ji,
    weak_join,
    weak_meet,
)
from cambrian import coxeter
from cambrian.coxeter import (
    CapExceeded,
    all_ji_subsets_a,
    all_signed_ji_subsets,
    contains_signed_pattern,
    embed_b_in_a,
    get_system,
    inversion_set_a,
    inversion_set_b,
    ji_subset_bounds,
    standardize_signed,
)
from cambrian.suites import catalan


def mat_vec(field, a, v):
    """The matrix ``a`` times the vector ``v`` over ``field``."""
    return tuple(
        reduce(field.add, (field.mul(x, y) for x, y in zip(row, v)), field.zero) for row in a
    )


def _weak_le(system, x, y) -> bool:
    return system.inversion_set(x) <= system.inversion_set(y)


def _longest_b(n: int) -> tuple[int, ...]:
    """The longest element of B_n, -1 -2 ... -n."""
    return tuple(range(-1, -n - 1, -1))


def test_catalan_number_from_degrees_matches_family_formulas():
    # The per-family class counts the degree formula replaces.
    cases = (
        [(build_system("A", n - 1), catalan(n)) for n in range(3, 9)]
        + [(build_system("B", n), math.comb(2 * n, n)) for n in range(2, 7)]
        + [(build_system("I2", None, m), m + 2) for m in range(3, 13)]
        + [(build_system("H3"), 32)]
    )
    for system, expected in cases:
        assert system.catalan_number() == expected, system.family
    assert build_system("A", 3).degrees == (2, 3, 4)
    assert build_system("B", 3).degrees == (2, 4, 6)
    assert build_system("I2", None, 7).degrees == (2, 7)
    assert build_system("H3").degrees == (2, 6, 10)


def test_build_system_families():
    a2 = build_system("A", 2)
    assert a2.bond_label(1, 2) == 3
    b2 = build_system("B", 2)
    assert b2.bond_label(0, 1) == 4
    h3 = build_system("H3")
    assert h3.bond_label(1, 2) == 5
    assert h3.bond_label(2, 3) == 3
    i25 = build_system("I2", None, 5)
    assert i25.bond_label(1, 2) == 5


def test_build_system_rejects_bad_input():
    with pytest.raises(ValueError):
        build_system("I2", None, 2)
    with pytest.raises(ValueError):
        build_system("Z", 3)


def test_weak_order_s3():
    system = build_system("A", 2)
    lattice = enumerate_weak_order(system)
    assert lattice.n == 6
    assert len(lattice.covers) == 6
    assert lattice.elements[lattice.top] == (3, 2, 1)


@pytest.mark.parametrize(
    "family, rank, bond", [("A", 3, None), ("B", 3, None), ("H3", None, None), ("I2", None, 5)]
)
def test_enumerate_records_the_generator_of_each_cover(family, rank, bond):
    system = build_system(family, rank, bond)
    order, covers = system._enumerate()
    expected = []
    for i, w in enumerate(order):
        for name in system.generator_names:
            if not system.is_right_descent(w, name):
                expected.append((i, order.index(system.right_multiply(w, name))))
    assert covers == sorted(expected)
    assert len(set(covers)) == len(covers)


def test_weak_order_counts():
    assert enumerate_weak_order(build_system("B", 2)).n == 8
    h3 = enumerate_weak_order(build_system("H3"))
    assert h3.n == 120
    assert len(h3.covers) == 180


def test_weak_order_cap():
    system = build_system("A", 3)
    with pytest.raises(CapExceeded):
        system.weak_order_lattice(cap=5)
    assert "_weak_order" not in vars(system)


def test_weak_order_cap_holds_after_cached_build():
    system = build_system("A", 3)
    lattice = system.weak_order_lattice()
    with pytest.raises(CapExceeded):
        system.weak_order_lattice(cap=5)
    assert system.weak_order_lattice(cap=24) is lattice


def test_generic_engine_is_built_once(monkeypatch):
    """identity, right_multiply, act, roots, field and gram share one
    engine: one NumberField per system."""
    fields = []
    number_field = coxeter.NumberField
    monkeypatch.setattr(coxeter, "NumberField", lambda m: fields.append(m) or number_field(m))
    system = build_system("H3")
    s1 = system.right_multiply(system.identity(), 1)
    alpha = system.roots[0]
    assert system.act(s1, alpha) == tuple(system.field.neg(x) for x in alpha)
    assert system.gram[0][0] == system.field.one
    assert fields == [5]


@pytest.mark.parametrize("family", ["A", "B"])
def test_a_and_b_build_the_engine_only_for_roots_field_and_gram(family):
    system = build_system(family, 3)
    lattice = system.weak_order_lattice()
    x, y = lattice.elements[1], lattice.elements[2]
    system.join(x, y)
    system.meet(x, y)
    system.left_descents(x)
    assert "_engine" not in vars(system)
    assert len(system.roots) == len(system.inversion_set(lattice.elements[lattice.top]))
    assert "_engine" in vars(system)


def test_get_system_is_one_memo_table():
    import cambrian
    from cambrian import suites

    assert cambrian.get_system("A", 3) is suites.get_system("A", 3)
    assert cambrian.get_system("I2", None, 5) is suites.get_system("I2", None, 5)
    # Spelling out the rank I2 and H3 always have keeps the one system.
    assert get_system("H3", 3) is get_system("H3")
    assert get_system("I2", 2, 5) is get_system("I2", None, 5)


@pytest.mark.parametrize(
    "family, rank, bond, message",
    [
        ("A", 3, 7, "takes no bond"),
        ("B", 2, 4, "takes no bond"),
        ("H3", None, 5, "takes no bond"),
        ("H3", 4, None, "has rank 3"),
        ("I2", 3, 5, "has rank 2"),
        ("A", None, None, "positive rank"),
    ],
)
def test_get_system_rejects_contradicting_keys(family, rank, bond, message):
    # Fail closed: a bond or rank the group does not have is no new system.
    before = dict(coxeter._SYSTEMS)
    for make in (get_system, build_system):
        with pytest.raises(ValueError, match=message):
            make(family, rank, bond)
    assert coxeter._SYSTEMS == before


def test_inversion_sets():
    system = build_system("A", 2)
    assert inversion_set(system, (2, 3, 1)) == {(1, 2), (1, 3)}
    assert inversion_set(system, (1, 2, 3)) == frozenset()
    b2 = build_system("B", 2)
    assert inversion_set(b2, (-1, 2)) == {(-1, 1)}


def test_join_meet_s3():
    system = build_system("A", 2)
    assert weak_join(system, (2, 1, 3), (1, 3, 2)) == (3, 2, 1)
    assert weak_meet(system, (2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    assert weak_join(system, (2, 3, 1), (2, 3, 1)) == (2, 3, 1)


def test_weak_order_is_inversion_containment():
    system = build_system("A", 3)
    lattice = system.weak_order_lattice()
    for i, v in enumerate(lattice.elements):
        for j, w in enumerate(lattice.elements):
            assert lattice.le(i, j) == (
                system.inversion_set(v) <= system.inversion_set(w)
            )


def test_longest_element_anti_automorphisms():
    system = build_system("B", 2)
    lattice = system.weak_order_lattice()
    w0 = _longest_b(system.n)
    n = lattice.n
    for i in range(n):
        for j in range(n):
            x, y = lattice.elements[i], lattice.elements[j]
            if lattice.le(i, j):
                w0x = tuple(w0[abs(v) - 1] * (1 if v > 0 else -1) for v in x)
                w0y = tuple(w0[abs(v) - 1] * (1 if v > 0 else -1) for v in y)
                assert _weak_le(system, w0y, w0x)


def test_ji_from_subset_examples():
    assert ji_from_subset(3, {1, 3}) == (2, 1, 3)
    assert ji_from_subset(3, {1, 2}) == (3, 1, 2)
    assert ji_from_subset(3, {2}) == (1, 3, 2)
    with pytest.raises(ValueError):
        ji_from_subset(3, {2, 3})


@pytest.mark.parametrize("members", [{0}, {2, 7}, {-1, 3}])
def test_ji_subset_outside_one_to_n_is_refused(members):
    assert ji_subset_bounds(3, frozenset(members)) is None
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        ji_from_subset(3, members)


def test_ji_subset_round_trip():
    for n in range(2, 8):
        lattice = build_system("A", n - 1).weak_order_lattice()
        jis = [lattice.elements[g] for g in lattice.join_irreducibles]
        assert len(jis) == len(all_ji_subsets_a(n))
        for x in jis:
            assert ji_from_subset(n, subset_of_ji(x)) == x


def test_signed_ji_examples():
    assert signed_ji_from_signed_subset(2, {-1, 2}) == (-1, 2)
    assert signed_ji_from_signed_subset(2, {-2, 1}) == (-2, 1)
    with pytest.raises(ValueError):
        signed_ji_from_signed_subset(2, {1, -1})


def test_signed_ji_round_trip():
    for n in range(2, 5):
        lattice = build_system("B", n).weak_order_lattice()
        jis = [lattice.elements[g] for g in lattice.join_irreducibles]
        assert len(jis) == len(all_signed_ji_subsets(n))
        for x in jis:
            assert signed_ji_from_signed_subset(n, signed_subset_of_ji(x)) == x


def test_standardize_signed():
    assert standardize_signed((7, -3, -5, 1)) == (4, -2, -3, 1)
    assert standardize_signed((2, -1)) == (2, -1)
    with pytest.raises(ValueError):
        standardize_signed((1, -1))


def test_signed_pattern_containment():
    assert contains_signed_pattern((2, -1), (2, -1))
    assert not contains_signed_pattern((1, 2), (2, -1))


def test_b_embedding_is_lattice_embedding():
    for n in (2, 3):
        system = build_system("B", n)
        big = build_system("A", 2 * n - 1)
        lattice = system.weak_order_lattice()
        for x, y in itertools.product(lattice.elements, repeat=2):
            assert embed_b_in_a(weak_join(system, x, y)) == weak_join(
                big, embed_b_in_a(x), embed_b_in_a(y)
            )


@st.composite
def permutations(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    values = list(range(1, n + 1))
    return tuple(draw(st.permutations(values)))


def _lattice_join_meet(system, x, y):
    # Oracle: join and meet read off the enumerated weak order.
    lattice = system.weak_order_lattice()
    i, j = lattice.index[x], lattice.index[y]
    return lattice.elements[lattice.join(i, j)], lattice.elements[lattice.meet(i, j)]


def test_join_meet_match_weak_order_on_s4():
    system = get_system("A", 3)
    elements = system.weak_order_lattice().elements
    for x, y in itertools.product(elements, repeat=2):
        assert (system.join(x, y), system.meet(x, y)) == _lattice_join_meet(system, x, y)


@st.composite
def element_pairs(draw):
    """Two elements of S_5, S_6 or B_3."""
    family, rank = draw(st.sampled_from([("A", 4), ("A", 5), ("B", 3)]))
    if family == "A":
        pair = [tuple(draw(st.permutations(range(1, rank + 2)))) for _ in "xy"]
    else:
        pair = [
            tuple(
                v * draw(st.sampled_from((1, -1)))
                for v in draw(st.permutations(range(1, rank + 1)))
            )
            for _ in "xy"
        ]
    return get_system(family, rank), *pair


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_join_is_least_upper_bound(case):
    system, x, y = case
    assert (weak_join(system, x, y), weak_meet(system, x, y)) == _lattice_join_meet(
        system, x, y
    )


@settings(max_examples=60, deadline=None)
@given(permutations(max_n=7))
def test_standardize_idempotent(x):
    assert standardize_signed(x) == x


@pytest.mark.parametrize(
    "family, rank", [("A", r) for r in range(1, 6)] + [("B", r) for r in range(1, 5)]
)
def test_left_descents_match_inversion_sets(family, rank):
    # Oracle: s is a left descent of w iff the reflection s is a left
    # inversion of w; in B, s_0 is the reflection (-1, 1).
    system = get_system(family, rank)
    for w in system.weak_order_lattice().elements:
        if family == "A":
            inv = inversion_set_a(w)
        else:
            inv = inversion_set_b(w)
        expected = frozenset(
            s for s in system.generator_names
            if ((-1, 1) if family == "B" and s == 0 else (s, s + 1)) in inv
        )
        assert system.left_descents(w) == expected, w


@pytest.mark.parametrize(
    "key",
    [("A", r, None) for r in range(1, 5)]
    + [("B", r, None) for r in range(1, 4)]
    + [("I2", None, 5), ("I2", None, 8), ("H3", None, None)],
)
def test_wall_reflection_is_the_one_inversion_of_w_or_ws(key):
    system = get_system(*key)
    for w in system.weak_order_lattice().elements:
        for name in system.generator_names:
            ws = system.right_multiply(w, name)
            (flipped,) = system.inversion_set(w) ^ system.inversion_set(ws)
            assert system.wall_reflection(w, name) == flipped, (w, name)
            assert system.wall_reflection(ws, name) == flipped, (w, name)


def _word_matrix(system, word):
    # The product of the generator matrices s_i(alpha_j) = alpha_j -
    # 2 B(alpha_i, alpha_j) alpha_i along a word, in the simple-root basis.
    field, r = system.field, system.rank
    two_gram = [[field.scale(x, 2) for x in row] for row in system.gram]
    matrix = [[field.one if a == j else field.zero for j in range(r)] for a in range(r)]
    for name in word:
        i = system.generator_names.index(name)
        for row in matrix:
            row_i = row[i]
            for j in range(r):
                row[j] = field.sub(row[j], field.mul(row_i, two_gram[i][j]))
    return matrix


@pytest.mark.parametrize(
    "key", [("H3", None, None), ("I2", None, 5), ("I2", None, 7), ("I2", None, 8)]
)
def test_root_permutations_match_matrix_products(key):
    system = get_system(*key)
    field, r = system.field, system.rank
    simples = [tuple(field.one if j == i else field.zero for j in range(r)) for i in range(r)]
    for w in system.weak_order_lattice().elements:
        word, inversions = system._word(w), system.inversion_set(w)
        assert len(word) == len(inversions)
        matrix = _word_matrix(system, word)
        for j, alpha in enumerate(simples):
            assert system.act(w, alpha) == tuple(row[j] for row in matrix)
        inverse = _word_matrix(system, word[::-1])
        negated = {
            k
            for k, beta in enumerate(system.roots)
            if any(field.sign(x) < 0 for x in mat_vec(field, inverse, beta))
        }
        assert inversions == negated, word


@pytest.mark.parametrize(
    "key", [("H3", None, None), ("I2", None, 3), ("I2", None, 5), ("I2", None, 8)]
)
def test_right_multiply_by_a_descent_keeps_the_word_reduced(key):
    system = get_system(*key)
    for w in system.weak_order_lattice().elements:
        for name in system.generator_names:
            if system.is_right_descent(w, name):
                ws = system.right_multiply(w, name)
                word = system._word(ws)
                assert len(word) == len(system.inversion_set(ws)), (system._word(w), name)
                assert system.length(ws) == system.length(w) - 1
                assert system.from_word(word) == ws


@pytest.mark.parametrize(
    "key", [("I2", None, m) for m in range(3, 13)] + [("H3", None, None)]
)
def test_word_is_least_over_lower_covers(key):
    # Oracle: the word of w is the least (word(u), s) over the lower covers
    # u of w with u s = w, walked in index order, a linear extension.
    system = build_system(*key)
    lattice = system.weak_order_lattice()
    words = []
    for i, w in enumerate(lattice.elements):
        expected = min(
            (
                (words[j], name)
                for j in lattice.lower[i]
                for name in system.generator_names
                if system.right_multiply(lattice.elements[j], name) == w
            ),
            default=None,
        )
        words.append(() if expected is None else expected[0] + (expected[1],))
        word = system._word(w)
        assert word == words[i], i
        assert system.from_word(word) == w
        assert len(word) == system.length(w)
