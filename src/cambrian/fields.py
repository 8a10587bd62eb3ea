"""Exact arithmetic in the number fields Q(2*cos(pi/m)) for m = 3, 4, 5.

A root closure runs over ``NumberField(m)`` for its group's largest bond
label m, with generator c = 2*cos(pi/m): Q for m = 3 (c = 1), Q(sqrt 2)
for m = 4 and Q(sqrt 5) for m = 5 (c is the golden ratio).  Every group
the tool has or plans needs one of these three: simply laced diagrams the
integers, B and F4 Q(sqrt 2), H3 and H4 Q(sqrt 5); I2(m) numbers its
roots by angle and needs no field.  Elements of Q(c) are coefficient
tuples (a_0,) or (a_0, a_1), standing for a_0 + a_1*c, where the length is
the degree of the minimal polynomial of c.  That polynomial is monic with
integer coefficients, so Z[c] is closed under multiplication: roots keep
plain ``int`` coefficients, and only inverses bring in ``Fraction``.  The
fan checks compute no vectors over the field, and only the tests' oracles
call ``sign``.  Every operation is exact; no floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Coeffs = tuple  # of int or Fraction

# The monic minimal polynomial of 2*cos(pi/m), as integer coefficients
# (c0, c1, ..., 1) in increasing degree: x - 1, x^2 - 2 and x^2 - x - 1.
_MINIMAL_POLYNOMIALS = {3: (-1, 1), 4: (-2, 0, 1), 5: (-1, -1, 1)}


def _rational(q):
    """q as an int when it is integral, else as a Fraction."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def minimal_polynomial_2cos(m: int) -> tuple[int, ...]:
    """Monic minimal polynomial of 2*cos(pi/m) over Q, for m = 3, 4 or 5.

    Returned as an integer coefficient tuple (c0, c1, ..., 1) in
    increasing degree; ValueError for any other m.
    """
    try:
        return _MINIMAL_POLYNOMIALS[m]
    except KeyError:
        raise ValueError(
            f"no number field for bond label {m}: only 3, 4 and 5 (Q, Q(sqrt 2), Q(sqrt 5))"
        ) from None


class NumberField:
    """The field Q(c) where c = 2*cos(pi/m), m = 3, 4 or 5, with exact elements.

    Elements are coefficient tuples of length deg(minpoly), 1 or 2.  The
    field object supplies arithmetic; elements themselves stay plain tuples
    so they hash and compare structurally.
    """

    def __init__(self, m: int):
        self.m = m
        self.minpoly = minimal_polynomial_2cos(m)
        self.degree = d = len(self.minpoly) - 1
        self.zero: Coeffs = (0,) * d
        self.one: Coeffs = (1,) + (0,) * (d - 1)
        self.generator = (-self.minpoly[0],) if d == 1 else (0, 1)

    def from_rational(self, q) -> Coeffs:
        return (_rational(q),) + (0,) * (self.degree - 1)

    def add(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a: Coeffs) -> Coeffs:
        return tuple(-x for x in a)

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        if self.degree == 1:
            return (a[0] * b[0],)
        # c^2 = -p*c - q for minpoly x^2 + p*x + q.
        a0, a1 = a
        b0, b1 = b
        top = a1 * b1
        q, p, _ = self.minpoly
        return (a0 * b0 - top * q, a0 * b1 + a1 * b0 - top * p)

    def scale(self, a: Coeffs, q) -> Coeffs:
        return tuple(_rational(x * q) for x in a)

    def inv(self, a: Coeffs) -> Coeffs:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero field element")
        if self.degree == 1:
            return (_rational(1 / Fraction(a[0])),)
        # c and its conjugate -p - c are the roots of x^2 + p*x + q, so
        # a = a0 + a1*c times its conjugate (a0 - p*a1) - a1*c is the norm
        # a0^2 - p*a0*a1 + q*a1^2, nonzero for a != 0.
        a0, a1 = a
        q, p, _ = self.minpoly
        norm = Fraction(a0 * a0 - p * a0 * a1 + q * a1 * a1)
        return (_rational((a0 - p * a1) / norm), _rational(-a1 / norm))

    def is_zero(self, a: Coeffs) -> bool:
        return all(x == 0 for x in a)

    def sign(self, a: Coeffs) -> int:
        """Sign of the element under the real embedding c = 2*cos(pi/m) > 0."""
        if self.degree == 1:
            v = a[0]
            return (v > 0) - (v < 0)
        # c is the largest root of x^2 + p*x + q, so 2c = -p + sqrt(D), and
        # 2*(a0 + a1*c) = A + B*sqrt(D) with A = 2*a0 - a1*p, B = a1.
        q_, p_, _ = self.minpoly
        disc = p_ * p_ - 4 * q_
        big_a = 2 * a[0] - a[1] * p_
        big_b = a[1]
        if big_b == 0:
            return (big_a > 0) - (big_a < 0)
        if big_a == 0:
            return (big_b > 0) - (big_b < 0)
        if big_a > 0 and big_b > 0:
            return 1
        if big_a < 0 and big_b < 0:
            return -1
        # Opposite signs: compare A^2 with B^2 * D.
        lhs, rhs = big_a * big_a, big_b * big_b * disc
        if lhs == rhs:
            return 0
        if big_a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1


def solve_linear(field, matrix, rhs):
    """Solve M x = v by Gaussian elimination over the field.

    matrix is a sequence of rows; returns the solution tuple, or None if
    the system is singular or inconsistent.
    """
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    cols = len(matrix[0]) if matrix else 0
    pivot_rows = []
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, n):
            if not field.is_zero(aug[r][col]):
                pivot = r
                break
        if pivot is None:
            return None
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = field.inv(aug[row][col])
        aug[row] = [field.mul(inv, x) for x in aug[row]]
        for r in range(n):
            if r != row and not field.is_zero(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(aug[r], aug[row])
                ]
        pivot_rows.append(col)
        row += 1
        if row == n:
            break
    # Consistency for any remaining rows.
    for r in range(row, n):
        if not field.is_zero(aug[r][cols]):
            return None
    if row < cols:
        return None
    return tuple(aug[r][cols] for r in range(cols))
