import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from cambrian.fields import (
    NumberField,
    minimal_polynomial_2cos,
    solve_linear,
)


def _div(field, a, b):
    return field.mul(a, field.inv(b))


def mat_vec(field, a, v):
    """The matrix ``a`` times the vector ``v`` over ``field``."""
    return tuple(
        reduce(field.add, (field.mul(x, y) for x, y in zip(row, v)), field.zero) for row in a
    )


def test_minimal_polynomial_small_orders():
    # 2cos(pi/3) = 1, 2cos(pi/4) = sqrt(2), 2cos(pi/5) = golden ratio.
    assert minimal_polynomial_2cos(3) == (Fraction(-1), Fraction(1))
    assert minimal_polynomial_2cos(4) == (Fraction(-2), Fraction(0), Fraction(1))
    assert minimal_polynomial_2cos(5) == (
        Fraction(-1),
        Fraction(-1),
        Fraction(1),
    )


def _poly_rem(a, b):
    """Remainder of integer polynomial a by monic b (increasing degree)."""
    rem = list(a)
    for i in range(len(a) - len(b), -1, -1):
        q = rem[i + len(b) - 1]
        for j, bj in enumerate(b):
            rem[i + j] -= q * bj
    return rem[: len(b) - 1]


@pytest.mark.parametrize("m", range(2, 31))
def test_minimal_polynomial_degree_and_chebyshev_root(m):
    """Q, Q(sqrt 2) and Q(sqrt 5) are the fields of m = 3, 4 and 5; every
    other m, of degree 1 (m = 2), 2 (m = 6) or more, has none: both the
    minimal polynomial and the field refuse it."""
    if m not in (3, 4, 5):
        for build in (minimal_polynomial_2cos, NumberField):
            with pytest.raises(ValueError, match=f"no number field for bond label {m}: "):
                build(m)
        return
    poly = minimal_polynomial_2cos(m)
    assert all(type(c) is int for c in poly)
    assert poly[-1] == 1
    totient = sum(1 for k in range(1, 2 * m + 1) if math.gcd(k, 2 * m) == 1)
    assert len(poly) - 1 == totient // 2
    # Q_k(2cos t) = 2cos(kt): Q_0 = 2, Q_1 = x, Q_(k+1) = x Q_k - Q_(k-1).
    # 2cos(pi/m) is a root of Q_m + 2, so the minimal polynomial divides it.
    q_prev, q = [2], [0, 1]
    for _ in range(m - 1):
        q_next = [0] + q
        for k, c in enumerate(q_prev):
            q_next[k] -= c
        q_prev, q = q, q_next
    q[0] += 2
    assert not any(_poly_rem(q, poly))


def test_field_degree_two_arithmetic():
    field = NumberField(5)  # Q(sqrt 5), generator x with x^2 = x + 1
    x = (Fraction(0), Fraction(1))
    x2 = field.mul(x, x)
    assert x2 == field.add(x, field.from_rational(1))
    assert field.mul(x, field.inv(x)) == field.from_rational(1)
    assert field.sign(field.sub(x, field.from_rational(1))) > 0
    assert field.sign(field.sub(x, field.from_rational(2))) < 0
    assert field.is_zero(field.sub(x, x))


@pytest.mark.parametrize("m, root", [(4, (0, 1)), (5, (-1, 2))])
def test_sign_of_the_square_root_itself(m, root):
    """sqrt 2 = c in Q(sqrt 2) and sqrt 5 = 2c - 1 in Q(sqrt 5): the
    elements A + B*sqrt(D) of ``sign`` with A = 0."""
    field = NumberField(m)
    assert field.sign(root) == 1
    assert field.sign(field.neg(root)) == -1


def test_field_division_by_zero_rejected():
    field = NumberField(5)
    with pytest.raises(ZeroDivisionError):
        field.inv(field.from_rational(0))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(rationals, rationals, rationals)
def test_rational_field_ring_laws(a, b, c):
    field = NumberField(3)  # Q, elements as 1-tuples
    a, b, c = (a,), (b,), (c,)
    assert field.mul(a, field.add(b, c)) == field.add(
        field.mul(a, b), field.mul(a, c)
    )
    assert field.sub(a, a) == field.from_rational(0)
    if not field.is_zero(b):
        assert field.mul(_div(field, a, b), b) == a


small_ints = st.integers(min_value=-30, max_value=30)


def _exact(element):
    return all(type(c) in (int, Fraction) for c in element)


def _approx(field, element):
    c = 2 * math.cos(math.pi / field.m)
    return sum(float(a) * c**k for k, a in enumerate(element))


@pytest.mark.parametrize("m", [3, 4, 5])
@given(data=st.data())
def test_integer_elements_never_become_floats(m, data):
    field = NumberField(m)
    a, b = (
        tuple(data.draw(st.lists(small_ints, min_size=field.degree, max_size=field.degree)))
        for _ in range(2)
    )
    assert _exact(field.mul(a, b))
    sign = field.sign(a)
    assert sign == field.sign(tuple(Fraction(x) for x in a))
    value = _approx(field, a)
    if abs(value) > 1e-6:
        assert sign == (1 if value > 0 else -1)
    assert (sign == 0) == field.is_zero(a)
    assert type(field.sign(field.sub(b, a))) is int
    if field.is_zero(a):
        return
    inverse = field.inv(a)
    assert _exact(inverse)
    assert field.mul(a, inverse) == field.one
    assert _exact(_div(field, b, a))
    assert field.sign(inverse) == sign


def test_rational_field_divides_ints_exactly():
    field = NumberField(3)
    assert field.inv((2,)) == (Fraction(1, 2),) and type(field.inv((2,))[0]) is Fraction
    assert type(_div(field, (1,), (3,))[0]) is Fraction


@given(rationals, rationals)
def test_number_field_mul_commutes(a, b):
    field = NumberField(5)
    u = (a, b)
    v = (b, a)
    assert field.mul(u, v) == field.mul(v, u)


def test_solve_linear_square_and_overdetermined():
    field = NumberField(3)
    rows = [[(Fraction(1),), (Fraction(1),)], [(Fraction(1),), (Fraction(-1),)]]
    sol = solve_linear(field, rows, [(Fraction(3),), (Fraction(1),)])
    assert sol == ((Fraction(2),), (Fraction(1),))
    # Consistent overdetermined system.
    rows3 = rows + [[(Fraction(2),), (Fraction(0),)]]
    assert solve_linear(
        field, rows3, [(Fraction(3),), (Fraction(1),), (Fraction(4),)]
    ) == ((Fraction(2),), (Fraction(1),))
    # Inconsistent system.
    assert (
        solve_linear(field, rows3, [(Fraction(3),), (Fraction(1),), (Fraction(5),)])
        is None
    )
    # Singular square system.
    rows_sing = [[(Fraction(1),), (Fraction(1),)], [(Fraction(2),), (Fraction(2),)]]
    assert solve_linear(field, rows_sing, [(Fraction(1),), (Fraction(3),)]) is None


def test_mat_vec_rational():
    field = NumberField(3)
    m = [[(Fraction(1),), (Fraction(2),)], [(Fraction(0),), (Fraction(1),)]]
    assert mat_vec(field, m, [(Fraction(3),), (Fraction(4),)]) == (
        (Fraction(11),),
        (Fraction(4),),
    )
