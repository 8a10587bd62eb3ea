"""Exact arithmetic in real number fields generated by 2*cos(pi/m).

Every reflection group runs over one field class, ``NumberField(m)`` for
its largest bond label m, whose generator is c = 2*cos(pi/m).  Elements of
Q(c) are coefficient tuples (a_0, ..., a_{d-1}) standing for a_0 + a_1*c +
... + a_{d-1}*c^(d-1), where d is the degree of the minimal polynomial of
c.  That polynomial is monic with integer coefficients, so Z[c] is closed
under multiplication: roots keep plain ``int`` coefficients, and only
inverses bring in ``Fraction``.  The fan checks compute no vectors over
the field, and only the tests' oracles call ``sign``.  Q itself
is ``NumberField(3)``: c = 1, the minimal polynomial is x - 1, and its
elements are 1-tuples.  Every operation is exact; no floating point is
used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

Coeffs = tuple  # of int or Fraction


def _rational(q):
    """q as an int when it is integral, else as a Fraction."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _divide_monic(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact quotient of integer polynomials (increasing degree), b monic."""
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        q = quo[i] = rem[i + len(b) - 1]
        if q:
            for j, bj in enumerate(b):
                rem[i + j] -= q * bj
    if any(rem):
        raise AssertionError("polynomial division left a remainder")
    return quo


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n: x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_monic(poly, _cyclotomic(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def minimal_polynomial_2cos(m: int) -> tuple[int, ...]:
    """Monic minimal polynomial of 2*cos(pi/m) over Q.

    Returned as an integer coefficient tuple (c0, c1, ..., 1) in
    increasing degree.  c = z + 1/z for z = exp(i*pi/m), a primitive
    2m-th root of unity.  Phi_2m is palindromic of degree 2d, so
    z^-d Phi_2m(z) = a_d + sum_j a_(d+j) (z^j + z^-j), and
    z^j + z^-j = T_j(z + 1/z) with T_0 = 2, T_1 = y and
    T_(j+1) = y T_j - T_(j-1).
    """
    if m < 2:
        raise ValueError(f"bond label must be at least 2, got {m}")
    phi = _cyclotomic(2 * m)
    d = (len(phi) - 1) // 2
    out = [phi[d]] + [0] * d
    t_prev, t = [2], [0, 1]
    for j in range(1, d + 1):
        for k, tk in enumerate(t):
            out[k] += phi[d + j] * tk
        t_next = [0] + t
        for k, tk in enumerate(t_prev):
            t_next[k] -= tk
        t_prev, t = t, t_next
    return tuple(out)


def _trim(coeffs: Sequence) -> Coeffs:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_divmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        top = rem[i + len(b) - 1]
        if top == 0:
            continue
        factor = quo[i] = Fraction(top) / lead
        for j, bj in enumerate(b):
            rem[i + j] -= factor * bj
    return _trim(quo), _trim(rem)


def _poly_eval(coeffs: Sequence, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _sturm_chain(f: Sequence) -> list[Coeffs]:
    """f, f', then negated remainders, for counting real roots of f."""
    chain = [_trim(f), _trim([k * c for k, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in _poly_divmod(chain[-2], chain[-1])[1]))
    return chain


def _sign_changes(chain: list[Coeffs], x) -> int:
    signs = [v > 0 for v in (_poly_eval(p, x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class NumberField:
    """The field Q(c) where c = 2*cos(pi/m), with exact elements.

    Elements are coefficient tuples of length deg(minpoly).  The field
    object supplies arithmetic; elements themselves stay plain tuples so
    they hash and compare structurally.
    """

    def __init__(self, m: int):
        self.m = m
        self.minpoly = minimal_polynomial_2cos(m)
        self.degree = d = len(self.minpoly) - 1
        if d < 1:
            raise ValueError(f"degenerate minimal polynomial for m={m}")
        self.zero: Coeffs = (0,) * d
        self.one: Coeffs = (1,) + (0,) * (d - 1)
        if d == 1:
            self.generator = (-self.minpoly[0],)
        else:
            self.generator = (0, 1) + (0,) * (d - 2)
        # c^k mod minpoly for k up to 2*degree - 2, for fast reduction.
        self._powers: list[Coeffs] = []
        power = list(self.one)
        for _ in range(2 * d - 1):
            self._powers.append(tuple(power))
            lead = power[-1]
            power = [0] + power[:-1]
            if lead:
                power = [c - lead * mc for c, mc in zip(power, self.minpoly)]
        self._bracket = None

    def from_rational(self, q) -> Coeffs:
        return (_rational(q),) + (0,) * (self.degree - 1)

    def add(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a: Coeffs) -> Coeffs:
        return tuple(-x for x in a)

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        d = self.degree
        if d == 2:
            # c^2 = -p*c - q for minpoly x^2 + p*x + q.
            a0, a1 = a
            b0, b1 = b
            top = a1 * b1
            q, p, _ = self.minpoly
            return (a0 * b0 - top * q, a0 * b1 + a1 * b0 - top * p)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                pk = self._powers[k]
                for t in range(d):
                    out[t] += ck * pk[t]
        return tuple(out)

    def scale(self, a: Coeffs, q) -> Coeffs:
        return tuple(_rational(x * q) for x in a)

    def inv(self, a: Coeffs) -> Coeffs:
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of zero field element")
        # Extended Euclid over Q[x]: find u with u*a = 1 mod minpoly.
        r0, r1 = self.minpoly, _trim(a)
        t0: Coeffs = ()
        t1: Coeffs = (1,)
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            t = list(t0) + [0] * max(0, len(q) + len(t1) - 1 - len(t0))
            for i, qi in enumerate(q):
                for j, tj in enumerate(t1):
                    t[i + j] -= qi * tj
            r0, r1 = r1, r
            t0, t1 = t1, _trim(t)
        lead = r1[0]
        result = [_rational(Fraction(c) / lead) for c in t1]
        result += [0] * (self.degree - len(result))
        return tuple(result[: self.degree])

    def is_zero(self, a: Coeffs) -> bool:
        return all(x == 0 for x in a)

    def sign(self, a: Coeffs) -> int:
        """Sign of the element under the real embedding c = 2*cos(pi/m) > 0."""
        if self.degree == 1:
            v = a[0]
            return (v > 0) - (v < 0)
        if self.degree > 2:
            return self._sign_by_bisection(a)
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

    def _sign_by_bisection(self, a: Coeffs) -> int:
        """Sign for degree >= 3: shrink a rational interval (lo, hi] around
        c until the interval value of a excludes 0.  A nonzero element of
        degree below the field's has no root at c, so this terminates."""
        if self.is_zero(a):
            return 0
        if self._bracket is None:
            # c is the largest root of the minimal polynomial, all of whose
            # roots 2*cos(k*pi/m) lie in (-2, 2); none is rational.
            chain = _sturm_chain(self.minpoly)
            lo, hi = Fraction(0), Fraction(2)
            while _sign_changes(chain, lo) - _sign_changes(chain, hi) > 1:
                mid = (lo + hi) / 2
                if _sign_changes(chain, mid) > _sign_changes(chain, hi):
                    lo = mid
                else:
                    hi = mid
            self._bracket = (lo, hi)
        lo, hi = self._bracket
        while True:
            low = high = 0
            for k, ak in enumerate(a):
                # 0 <= lo < c <= hi, so c^k lies in [lo^k, hi^k].
                ends = (ak * lo**k, ak * hi**k)
                low += min(ends)
                high += max(ends)
            if low > 0:
                return 1
            if high < 0:
                return -1
            mid = (lo + hi) / 2
            if (_poly_eval(self.minpoly, mid) > 0) == (_poly_eval(self.minpoly, hi) > 0):
                hi = mid
            else:
                lo = mid
            self._bracket = (lo, hi)


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
