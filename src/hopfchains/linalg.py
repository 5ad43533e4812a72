"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction` throughout, so every result is exact and
equality tests need no tolerance.  Elimination routines always pick the
first nonzero pivot, which makes their output deterministic.  `rank` runs
fraction-free (Bareiss) elimination on a denominator-cleared integer copy;
intermediate entries are then minor determinants, which keeps coefficient
growth under control.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: nothing in this package may round.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


class RatMatrix:
    """A dense matrix of Fractions.  Treated as immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        data = tuple(tuple(rat(e) for e in row) for row in entries)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows: matrix must be rectangular")
        self.entries = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction]]) -> "RatMatrix":
        """Wrap rows that are already Fractions (no per-entry coercion)."""
        m = cls.__new__(cls)
        m.entries = tuple(tuple(row) for row in rows)
        m.rows = len(m.entries)
        m.cols = len(m.entries[0]) if m.entries else 0
        if any(len(row) != m.cols for row in m.entries):
            raise ValueError("ragged rows: matrix must be rectangular")
        return m

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def _integer_rows(m: RatMatrix) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves rank and kernel)."""
    out = []
    for row in m.entries:
        denom = lcm(*(e.denominator for e in row)) if row else 1
        out.append([int(e * denom) for e in row])
    return out


def rank(m: RatMatrix) -> int:
    """Exact rank via fraction-free (Bareiss) elimination.

    Pivots are the first nonzero entry down each column; the interior
    update keeps all entries integral (divisions are exact).
    """
    a = _integer_rows(m)
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][col]
        arow = a[r]
        for i in range(r + 1, nrows):
            irow = a[i]
            factor = irow[col]
            if factor:
                for j in range(col + 1, ncols):
                    num = pivot * irow[j] - factor * arow[j]
                    q, rem = divmod(num, prev)
                    if rem:  # pragma: no cover - guards the Bareiss invariant
                        raise ArithmeticError("non-exact division in Bareiss step")
                    irow[j] = q
                irow[col] = 0
            else:
                for j in range(col + 1, ncols):
                    num = pivot * irow[j]
                    q, rem = divmod(num, prev)
                    if rem:  # pragma: no cover
                        raise ArithmeticError("non-exact division in Bareiss step")
                    irow[j] = q
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def rref(m: RatMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][col]
        a[r] = [e / inv for e in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [e - f * p for e, p in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots


def nullspace(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, from the reduced echelon form.

    Each basis vector has a 1 in one free column and the negated pivot-row
    entries elsewhere; the list is empty when the kernel is trivial.
    """
    a, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * m.cols
        vec[free] = _ONE
        for r, col in enumerate(pivots):
            vec[col] = -a[r][free]
        basis.append(tuple(vec))
    return basis


def annihilation_check(m: RatMatrix, eigenvalues: Iterable[Fraction]) -> bool:
    """True iff the product of (m - lam*I) over the given set is zero.

    With the full eigenvalue set this certifies diagonalisability.  The
    factors commute, so the product is evaluated in sorted order on a
    denominator-cleared integer copy: m = A/L gives
    m - (p/q) I = (qA - pL·I)/(qL), and the product vanishes iff the
    product of the integer factors does.
    """
    if not m.is_square():
        raise ValueError("annihilation_check needs a square matrix")
    n = m.rows
    scale = lcm(*(e.denominator for row in m.entries for e in row))
    a = [[int(e * scale) for e in row] for row in m.entries]
    lams = sorted(set(rat(v) for v in eigenvalues))
    prod = None
    for lam in lams:
        p, q = lam.numerator, lam.denominator
        factor = [[q * a[i][j] - (p * scale if i == j else 0) for j in range(n)] for i in range(n)]
        if prod is None:
            prod = factor
        else:
            new = []
            for row in prod:
                acc = [0] * n
                for k, rk in enumerate(row):
                    if rk:
                        frow = factor[k]
                        for j, fkj in enumerate(frow):
                            if fkj:
                                acc[j] += rk * fkj
                new.append(acc)
            prod = new
        if all(not e for row in prod for e in row):
            return True
    if prod is None:
        raise ValueError("need at least one eigenvalue")
    return all(not e for row in prod for e in row)
