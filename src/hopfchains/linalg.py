"""Exact dense linear algebra over the rationals.

A `RatMatrix` is integer rows over one denominator, both divided by
their gcd, so results are exact and equality needs no tolerance.  Row
scaling changes neither rank nor null space, so the elimination routines
take integer rows, picking the first nonzero pivot for determinism.
`rank` and `nullspace` share one fraction-free (Bareiss) elimination,
whose intermediate entries are minor determinants, so no `Fraction` is
formed until the kernel vectors are read off.  Eigenspace dimensions
take no rank: the traces of one annihilation chain (`annihilation_traces`)
give them.  It runs on sparse rows, (column, numerator) pairs, from any
list of start rows, each trace summed over them: from every row
(`eigenspace_dimensions`), or, on a word class whose chain commutes with
relabelling letters of equal multiplicity, from one row per relabelling
orbit with each trace times the orbit size (`spectral.verify_spectrum`):
1 row of 120 on five distinct cards, 15 of 90 on aabbcc, 105 of 2,520 on
aabbccdd.  A chain's kernel is stored sparse; `dense_matrix` forms its
dense view and the rows `rank` takes, and `sparse_rows` is its inverse;
the certificate reads a chain's stored rows directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: nothing in this package may round.
    So are booleans, which Python counts as ints.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


class RatMatrix:
    """A rational matrix: integer numerator rows `entries` over their least
    common denominator `den`, so entry (i, j) is entries[i][j] / den.
    Treated as immutable after construction."""

    __slots__ = ("rows", "cols", "entries", "den")

    def __init__(self, rows: Sequence[Sequence[int]], den: int):
        """Integer rows over a positive den, both divided by the gcd of den
        and every entry, so that den is the least common denominator."""
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows: matrix must be rectangular")
        g = den
        for row in rows:
            g = gcd(g, *row)
            if g == 1:
                break
        self.entries = tuple(tuple(e // g for e in row) if g > 1 else tuple(row) for row in rows)
        self.den, self.rows, self.cols = den // g, len(rows), width

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and (self.den, self.entries) == (other.den, other.entries)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def shifted(m: RatMatrix, lam: Fraction) -> list[list[int]]:
    """Integer rows of m - lam*I scaled by q*den: q*A - p*den*I for lam = p/q."""
    pd, q = lam.numerator * m.den, lam.denominator
    return [
        [q * e - pd if i == j else q * e for j, e in enumerate(row)] for i, row in enumerate(m.entries)
    ]


def _eliminate(rows: Sequence[Sequence[int]], reduced: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) elimination of integer rows; returns (rows, pivot columns).

    Each row is first divided by the gcd of its entries (zero rows drop
    out).  Pivots are the first nonzero entry down each column.  Every
    updated entry is a minor of the input, so each division by the
    previous pivot is exact.  With `reduced` the rows above each pivot are
    cleared the same way (Gauss-Jordan form): every pivot entry then equals
    the last pivot, and the pivot rows are that multiple of the reduced row
    echelon form.  Without it only the rows below are cleared.
    """
    a = [[e // g for e in row] for row in rows if (g := gcd(*row))]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
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
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            irow = a[i]
            factor = irow[col]
            # rows below are zero left of col; rows above are not
            lo = col + 1 if i > r else 0
            if factor:
                for j in range(lo, ncols):
                    num = pivot * irow[j] - factor * arow[j]
                    q, rem = divmod(num, prev)
                    if rem:  # pragma: no cover - guards the Bareiss invariant
                        raise ArithmeticError("non-exact division in Bareiss step")
                    irow[j] = q
                irow[col] = 0
            else:
                for j in range(lo, ncols):
                    num = pivot * irow[j]
                    q, rem = divmod(num, prev)
                    if rem:  # pragma: no cover
                        raise ArithmeticError("non-exact division in Bareiss step")
                    irow[j] = q
        prev = pivot
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return a, pivots


def rank(m: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer rows, by forward fraction-free elimination."""
    return len(_eliminate(m, reduced=False)[1])


def nullspace(m: Sequence[Sequence[int]]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of integer rows, by fraction-free Gauss-Jordan.

    Each basis vector has a 1 in one free column and, on each pivot
    column, minus its pivot row's entry in the free column over the pivot;
    the vectors come in free-column order, and the list is empty when the
    kernel is trivial.
    """
    a, pivots = _eliminate(m, reduced=True)
    cols = len(m[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * cols
        vec[free] = _ONE
        for r, col in enumerate(pivots):
            vec[col] = Fraction(-a[r][free], a[r][col])
        basis.append(tuple(vec))
    return basis


def dimensions_from_traces(lams: Sequence[Fraction], traces: Sequence[Fraction]) -> dict:
    """Eigenspace dimensions of a diagonalisable operator from its chain traces.

    With lam_1 < ... < lam_r the sorted distinct values, every eigenvalue
    among them, and traces[k] = tr prod_(i<=k) (A - lam_i) for k = 0..r-1
    (missing trailing traces are 0),

        traces[k] = sum_(l>k) d_l prod_(i<=k) (lam_l - lam_i),

    a triangular system in the dimensions d_l that is solved from k = r-1
    down (Horn-Johnson, Matrix Analysis, 3.3).  A solution that is not a
    non-negative integer raises ArithmeticError.
    """
    traces = list(traces) + [_ZERO] * (len(lams) - len(traces))
    dims = [0] * len(lams)
    for k in reversed(range(len(lams))):
        below = lams[:k]
        known = zip(lams[k + 1 :], dims[k + 1 :])
        rest = traces[k] - sum(d * prod(l - i for i in below) for l, d in known)
        d = rest / prod(lams[k] - i for i in below)
        if d.denominator != 1 or d < 0:
            raise ArithmeticError(f"eigenspace dimension {d} of {lams[k]} is not a count")
        dims[k] = int(d)
    return dict(zip(lams, dims))


def annihilation_traces(
    rows: Sequence, den: int, lams: Sequence[Fraction], starts: Sequence[int]
) -> list[Fraction] | None:
    """Traces of the annihilation chain, run on the rows `starts` only.

    rows[i] is row i of a square integer matrix A as (column, numerator)
    pairs (a column may repeat; its numerators add), so K = A / den.  For
    the sorted distinct lam_k = p/q, P_0 is the identity's rows `starts`
    and P_k = P_(k-1) (q A - p den I) divided by the gcd of all its
    entries, so the integers stay small: P_k holds the same rows of a
    positive rational multiple (the running scale) of
    prod_(i<=k) (K - lam_i I).  Returns the diagonal entries of P_0, P_1,
    ... summed over `starts` and divided by that multiple, up to the first
    P_k that vanishes, or None if P_r does not.  From every row these are
    the traces of the chain.
    """
    size = len(rows)
    chain = [[int(j == i) for j in range(size)] for i in starts]
    traces = [Fraction(len(chain))]
    scale = 1
    for lam in lams:
        p, q = lam.numerator * den, lam.denominator
        new = []
        for prow in chain:
            acc = [0] * size
            for k, a in enumerate(prow):
                if a:
                    aq = a * q
                    for j, c in rows[k]:
                        acc[j] += aq * c
                    acc[k] -= p * a
            new.append(acc)
        g = gcd(*[gcd(*prow) for prow in new])
        if not g:
            return traces
        chain = [[a // g for a in prow] for prow in new] if g > 1 else new
        scale = Fraction(scale * q * den, g)
        traces.append(sum(prow[i] for prow, i in zip(chain, starts)) / scale)
    return None


def sparse_rows(m: RatMatrix) -> list[list[tuple[int, int]]]:
    """Each row of m as its (column, numerator) pairs with a nonzero numerator."""
    return [[(j, e) for j, e in enumerate(row) if e] for row in m.entries]


def dense_matrix(rows: Sequence, den: int) -> RatMatrix:
    """The square `RatMatrix` of (column, numerator) rows with distinct
    columns over den: the inverse of `sparse_rows`."""
    dense = []
    for row in rows:
        entries = [0] * len(rows)
        for j, e in row:
            entries[j] = e
        dense.append(entries)
    return RatMatrix(dense, den)


def eigenspace_dimensions(m, eigenvalues: Iterable) -> dict | None:
    """Eigenspace dimension of each given eigenvalue, or None if m is not
    diagonalisable with its spectrum among them.

    m is a square `RatMatrix`, or a chain kernel (`chain.TransitionMatrix`),
    whose sparse rows `m.rows` over `m.den` are read as they are stored.
    If the chain prod (m - lam I) over the distinct values vanishes, m is
    diagonalisable with eigenvalues among them, and the traces of the
    partial products (`annihilation_traces` from every row) give every
    dimension (`dimensions_from_traces`).  No rank is taken.
    """
    if isinstance(m, RatMatrix):
        if m.rows != m.cols:
            raise ValueError("eigenspace_dimensions needs a square matrix")
        rows = sparse_rows(m)
    else:
        rows = m.rows
    lams = sorted(set(rat(v) for v in eigenvalues))
    if not lams:
        raise ValueError("need at least one eigenvalue")
    traces = annihilation_traces(rows, m.den, lams, range(len(rows)))
    return None if traces is None else dimensions_from_traces(lams, traces)


def annihilation_check(m, eigenvalues: Iterable[Fraction]) -> bool:
    """True iff the product of (m - lam*I) over the given set is zero.

    With the full eigenvalue set this certifies diagonalisability; it is
    the vanishing test of `eigenspace_dimensions`.
    """
    return eigenspace_dimensions(m, eigenvalues) is not None
