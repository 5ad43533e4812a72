"""Closed-form spectra of breaking-size chains, and exact verification.

For an operator with weights alpha_D at degree n, each partition lam of n
contributes the eigenvalue

    beta_lam / beta_n,  with  beta_lam = sum_D alpha_D <lam, D>,

where <lam, D> counts ordered assignments of lam's parts to blocks with
prescribed block sums.  Multiplicities come from the algebra's Hilbert
series written as prod_i (1 - t^i)^(-b_i): the eigenvalue of lam has
multiplicity prod_i multichoose(b_i, m_i(lam)) where m_i counts parts of
size i.  For a single deck's rearrangement class the same generating
function refines by letter content: the multiplicity of lam is the number
of multisets of Lyndon words with size profile lam and total content equal
to the deck's.  For a deck of distinct cards that count is the number of
permutations of cycle type lam.

Verification against a built transition matrix is rank-based: the
eigenspace dimension of lam-hat is states - rank(K - lam-hat I), and the
product of (K - lam-hat I) over all claimed eigenvalues must vanish
(diagonalisability holds whenever the algebra is commutative or
cocommutative).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .chain import TransitionMatrix
from .hopf import (
    AlgebraHandle,
    CppSpec,
    LinComb,
    apply_cpp,
    beta_n,
    homogeneous_degree,
    product,
)
from .linalg import RatMatrix, annihilation_check, nullspace, rank, rat
from .presets import top_m_unordered_spec, top_or_bottom_spec, trinomial_spec
from .shuffle import Word, lyndon_words, word_content

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# partitions and the pairing count


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All weakly decreasing tuples of positive integers summing to n."""
    if n == 0:
        return [()]
    if max_part is None:
        max_part = n
    result = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            result.append((first,) + rest)
    return result


def pairing_count(lam, comp) -> int:
    """Number of ways to assign lam's parts to blocks with sums comp.

    Blocks are ordered; a block of required sum 0 must stay empty.  The
    count only depends on the multiset of nonzero parts of comp.
    """
    lam = tuple(lam)
    comp = tuple(comp)
    if sum(lam) != sum(comp):
        raise ValueError(f"size mismatch: {lam} vs {comp}")
    remaining = [d for d in comp if d]
    total_parts = len(lam)

    def rec(idx: int) -> int:
        if idx == total_parts:
            return 1 if all(r == 0 for r in remaining) else 0
        part = lam[idx]
        count = 0
        for b, r in enumerate(remaining):
            if r >= part:
                remaining[b] = r - part
                count += rec(idx + 1)
                remaining[b] = r
        return count

    return rec(0)


def beta_lambda(spec: CppSpec, lam) -> Fraction:
    """Eigenvalue numerator: sum of weight x pairing count over the terms."""
    return sum((w * pairing_count(lam, comp) for comp, w in spec.terms), _ZERO)


def eigenvalues(spec: CppSpec) -> dict:
    """Map each partition of n to its eigenvalue beta_lam / beta_n."""
    beta = beta_n(spec)
    return {lam: beta_lambda(spec, lam) / beta for lam in partitions(spec.n)}


# ---------------------------------------------------------------------------
# Hilbert series inversion and multiplicities


@dataclass(frozen=True)
class HilbertProfile:
    """Graded dimensions together with the exponents of their product form.

    dims[d] = dim H_d for d = 0..cap, and
    sum_d dims[d] t^d = prod_i (1 - t^i)^(-b[i]) truncated at the cap.
    b[0] is a placeholder 0.
    """

    dims: tuple
    b: tuple

    @property
    def cap(self) -> int:
        return len(self.dims) - 1


def _poly_mul_trunc(p: list, q: list, cap: int) -> list:
    out = [0] * (cap + 1)
    for i, pi in enumerate(p[: cap + 1]):
        if not pi:
            continue
        for j, qj in enumerate(q[: cap + 1 - i]):
            if qj:
                out[i + j] += pi * qj
    return out


def _one_minus_power(i: int, exponent: int, cap: int) -> list:
    """(1 - t^i)^exponent truncated at degree cap; exponent may be negative."""
    out = [0] * (cap + 1)
    if exponent >= 0:
        for k in range(min(exponent, cap // i) + 1):
            out[i * k] = (-1) ** k * comb(exponent, k)
    else:
        e = -exponent
        for k in range(cap // i + 1):
            out[i * k] = comb(e + k - 1, k)
    out[0] = 1
    return out


def hilbert_invert(dims) -> HilbertProfile:
    """Recover the exponents b_i from graded dimensions.

    Iteratively: after clearing degrees below i, the current series is
    1 + b_i t^i + O(t^(i+1)), so b_i is read off and the factor
    (1 - t^i)^(b_i) is multiplied in.  The reconstruction is re-expanded
    as a closing check.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or dims[0] != 1:
        raise ValueError("graded dimensions must start with dim H_0 = 1")
    cap = len(dims) - 1
    series = list(dims)
    b = [0] * (cap + 1)
    for i in range(1, cap + 1):
        bi = series[i]
        b[i] = bi
        if bi:
            series = _poly_mul_trunc(series, _one_minus_power(i, bi, cap), cap)
    recon = [1] + [0] * cap
    for i in range(1, cap + 1):
        if b[i]:
            recon = _poly_mul_trunc(recon, _one_minus_power(i, -b[i], cap), cap)
    if tuple(recon) != dims:  # pragma: no cover - internal consistency
        raise ArithmeticError("Hilbert inversion failed to reconstruct the dimensions")
    return HilbertProfile(dims=dims, b=tuple(b))


def algebra_dims(alg: AlgebraHandle, cap: int) -> list[int]:
    return [len(alg.basis(d)) for d in range(cap + 1)]


def _multichoose(b: int, m: int) -> int:
    if m == 0:
        return 1
    if b <= 0:
        return 0
    return comb(b + m - 1, m)


def multiplicity(lam, profile: HilbertProfile) -> int:
    """Multiplicity of lam's eigenvalue on the full degree-n component."""
    lam = tuple(lam)
    if lam and max(lam) > profile.cap:
        raise ValueError(f"profile only covers degrees up to {profile.cap}")
    result = 1
    for i in set(lam):
        result *= _multichoose(profile.b[i], lam.count(i))
    return result


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, one row per partition."""

    table: tuple  # ((partition, eigenvalue, multiplicity), ...)

    def by_eigenvalue(self) -> dict:
        agg: dict = {}
        for _, value, mult in self.table:
            agg[value] = agg.get(value, 0) + mult
        return agg

    def total_multiplicity(self) -> int:
        return sum(mult for _, _, mult in self.table)

    def to_dicts(self) -> list[dict]:
        return [
            {"partition": list(lam), "eigenvalue": str(val), "multiplicity": mult}
            for lam, val, mult in self.table
        ]


def spectrum_from_profile(spec: CppSpec, profile: HilbertProfile) -> Spectrum:
    """Formula spectrum on the full degree-n component of the algebra."""
    rows = tuple(
        (lam, value, multiplicity(lam, profile)) for lam, value in eigenvalues(spec).items()
    )
    return Spectrum(table=rows)


def lyndon_contents(alg, n: int) -> dict[int, list[tuple[int, ...]]]:
    """Letter contents of the Lyndon words over alg's alphabet, by length 1..n."""
    return {
        s: [word_content(alg, Word(w)) for w in words]
        for s, words in lyndon_words(alg.alphabet, n).items()
    }


def class_multiplicity(lyndon: dict, content, lam) -> int:
    """Multisets of Lyndon words with size profile lam and total content.

    `lyndon` is the `lyndon_contents` table up to the class size;
    `content` is a tuple of letter multiplicities aligned with the
    alphabet.  For distinct cards (all-ones content) this is the number of
    permutations of cycle type lam.
    """
    lam = tuple(lam)
    n = sum(content)
    if sum(lam) != n:
        raise ValueError(f"partition {lam} does not match content of size {n}")
    sizes = sorted(set(lam))
    counts = {s: lam.count(s) for s in sizes}

    def rec(size_idx: int, remaining: tuple) -> int:
        if size_idx == len(sizes):
            return 1 if not any(remaining) else 0
        s = sizes[size_idx]
        usable = [
            c for c in lyndon[s] if all(ci <= ri for ci, ri in zip(c, remaining))
        ]
        total = 0
        for combo in itertools.combinations_with_replacement(range(len(usable)), counts[s]):
            rem = list(remaining)
            ok = True
            for idx in combo:
                for pos, ci in enumerate(usable[idx]):
                    rem[pos] -= ci
                    if rem[pos] < 0:
                        ok = False
                if not ok:
                    break
            if ok:
                total += rec(size_idx + 1, tuple(rem))
        return total

    return rec(0, tuple(content))


def word_class_spectrum(spec: CppSpec, alg, content) -> Spectrum:
    """Formula spectrum restricted to one deck's rearrangement class."""
    lyndon = lyndon_contents(alg, spec.n)
    rows = tuple(
        (lam, value, class_multiplicity(lyndon, content, lam))
        for lam, value in eigenvalues(spec).items()
    )
    return Spectrum(table=rows)


@dataclass
class SpectrumReport:
    """Comparison of a claimed spectrum against a built matrix."""

    ok: bool
    entries: list  # (eigenvalue, claimed multiplicity, rank-derived dimension)
    total_claimed: int
    size: int
    diagonalizable: bool

    def lines(self) -> list[str]:
        out = []
        for value, claimed, actual in self.entries:
            mark = "ok" if claimed == actual else "MISMATCH"
            out.append(f"eigenvalue {value}: claimed {claimed}, matrix {actual} [{mark}]")
        out.append(
            f"multiplicity total {self.total_claimed} vs {self.size} states "
            f"[{'ok' if self.total_claimed == self.size else 'MISMATCH'}]"
        )
        out.append(
            f"annihilation product {'vanishes' if self.diagonalizable else 'DOES NOT vanish'}"
        )
        return out


def verify_spectrum(matrix: TransitionMatrix, spectrum: Spectrum) -> SpectrumReport:
    """Rank-derived eigenspace dimensions and the annihilation certificate."""
    size = matrix.size
    agg = spectrum.by_eigenvalue()
    entries = []
    ok = True
    for value in sorted(agg):
        shifted = RatMatrix.from_rows(
            [
                [e - value if i == j else e for j, e in enumerate(row)]
                for i, row in enumerate(matrix.kernel.entries)
            ]
        )
        actual = size - rank(shifted)
        claimed = agg[value]
        entries.append((value, claimed, actual))
        if claimed != actual:
            ok = False
    total = spectrum.total_multiplicity()
    if total != size:
        ok = False
    support = [value for value, mult in agg.items() if mult > 0]
    diag = annihilation_check(matrix.kernel, support)
    if not diag:
        ok = False
    return SpectrumReport(
        ok=ok, entries=entries, total_claimed=total, size=size, diagonalizable=diag
    )


# ---------------------------------------------------------------------------
# primitives


def primitive_basis(alg: AlgebraHandle, n: int) -> list[LinComb]:
    """Basis of the degree-n primitives (reduced coproduct kernel).

    The reduced coproduct drops the boundary terms 1(x)x and x(x)1; its
    kernel is computed by exact elimination on the matrix whose rows are
    the inner tensor pairs.
    """
    if n < 1:
        raise ValueError("primitives live in degree >= 1")
    basis = alg.basis(n)
    if not basis:
        return []
    pair_index: dict = {}
    columns = []
    for x in basis:
        col: dict = {}
        for (u, v), c in alg.coproduct_basis(x).items():
            if 0 < u.degree < n:
                key = (u, v)
                if key not in pair_index:
                    pair_index[key] = len(pair_index)
                col[pair_index[key]] = col.get(pair_index[key], _ZERO) + c
        columns.append(col)
    if not pair_index:
        return [LinComb.single(x) for x in basis]
    rows = [[_ZERO] * len(basis) for _ in range(len(pair_index))]
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows[i][j] = c
    kernel = nullspace(RatMatrix.from_rows(rows))
    return [
        LinComb({basis[j]: c for j, c in enumerate(vec) if c}) for vec in kernel
    ]


# ---------------------------------------------------------------------------
# eigenvectors of insertion shuffles on cocommutative algebras


@dataclass
class Eigenvector:
    """An exact eigenvector with the multiset data that generated it."""

    vector: LinComb
    eigenvalue: Fraction
    j: int
    q: Fraction
    singles: tuple  # degree-1 primitive keys used
    higher: tuple  # higher-degree primitive combinations used

    def to_dict(self) -> dict:
        return {
            "eigenvalue": str(self.eigenvalue),
            "j": self.j,
            "terms": {str(k): str(c) for k, c in sorted(
                self.vector.items(), key=lambda kv: str(kv[0])
            )},
        }


def _partitions_min_2(total: int) -> list[tuple[int, ...]]:
    return [lam for lam in partitions(total) if not lam or min(lam) >= 2]


def _higher_primitive_multisets(alg, n: int, total: int):
    """Multisets of higher-degree primitive basis vectors of total degree."""
    prims = {d: primitive_basis(alg, d) for d in range(2, total + 1)}
    for lam in _partitions_min_2(total):
        groups = []
        for size in sorted(set(lam)):
            count = lam.count(size)
            groups.append(
                list(
                    itertools.combinations_with_replacement(
                        range(len(prims[size])), count
                    )
                )
            )
        sizes = sorted(set(lam))
        for choice in itertools.product(*groups):
            multiset = []
            for size, idxs in zip(sizes, choice):
                multiset.extend(prims[size][i] for i in idxs)
            yield tuple(multiset)


def _symmetrized_concat(alg, vectors) -> LinComb:
    if not vectors:
        return LinComb.single(alg.unit_key())
    total = LinComb.zero()
    for order in itertools.permutations(range(len(vectors))):
        acc = vectors[order[0]]
        for idx in order[1:]:
            acc = product(alg, acc, vectors[idx])
        total = total + acc
    return total


def build_E_j(
    alg: AlgebraHandle,
    n: int,
    j: int,
    q,
    content=None,
) -> list[Eigenvector]:
    """Eigenvectors of eigenvalue j/n for the q-weighted insertion operator.

    For each multiset of j degree-1 primitives c_1..c_j and each multiset
    of higher primitives p_1..p_k with total degree n-j, emit

      sum_i sum_{sigma} C(j,i) q^i (1-q)^(j-i)
            c_sig(1)..c_sig(i) (sum_tau p_tau(1)..p_tau(k)) c_sig(i+1)..c_sig(j).

    Requires a cocommutative algebra.  Every emitted vector is verified
    exactly against the operator q Proj_1*id + (1-q) id*Proj_1 at degree n;
    a failure aborts with the offending multisets.  With `content` set,
    only multisets whose combined letter content matches are produced.
    j = n-1 always yields the empty list: no primitive has total degree 1
    once the degree-1 slots are spent.
    """
    if not alg.cocommutative:
        raise ValueError(f"{alg.name} is not cocommutative")
    if not 0 <= j <= n:
        raise ValueError("j must lie in 0..n")
    q = rat(q)
    singles = alg.basis(1)
    op_spec = top_or_bottom_spec(n, q)
    results = []
    for c_multiset in itertools.combinations_with_replacement(singles, j):
        if content is not None:
            c_content = [0] * len(content)
            for key in c_multiset:
                c_content[alg.rank[key.letters[0]]] += 1
            if any(c > r for c, r in zip(c_content, content)):
                continue
        for p_multiset in _higher_primitive_multisets(alg, n, n - j):
            if content is not None:
                combined = list(c_content)
                for p in p_multiset:
                    for pos, cnt in enumerate(word_content(alg, next(iter(p.terms)))):
                        combined[pos] += cnt
                if tuple(combined) != tuple(content):
                    continue
            middle = _symmetrized_concat(alg, p_multiset)
            vector = LinComb.zero()
            for i in range(j + 1):
                coeff = comb(j, i) * q**i * (1 - q) ** (j - i)
                if not coeff:
                    continue
                for sigma in itertools.permutations(range(j)):
                    term = LinComb.single(alg.unit_key())
                    for s in sigma[:i]:
                        term = product(alg, term, LinComb.single(c_multiset[s]))
                    term = product(alg, term, middle)
                    for s in sigma[i:]:
                        term = product(alg, term, LinComb.single(c_multiset[s]))
                    vector = vector + term.scale(coeff)
            if vector.is_zero():
                raise ArithmeticError(
                    f"eigenvector collapsed to zero for singles {c_multiset!r}"
                )
            image = apply_cpp(alg, vector, op_spec)
            if image != vector.scale(j):
                raise ArithmeticError(
                    f"eigen-equation failed for singles {c_multiset!r}, "
                    f"higher multiset of degrees "
                    f"{[homogeneous_degree(p) for p in p_multiset]}"
                )
            results.append(
                Eigenvector(
                    vector=vector,
                    eigenvalue=Fraction(j, n),
                    j=j,
                    q=q,
                    singles=c_multiset,
                    higher=p_multiset,
                )
            )
    return results


@dataclass
class EigencheckReport:
    ok: bool
    checked: int
    lines: list


def polynomial_eigenvalue_check(
    alg: AlgebraHandle, vectors: list[Eigenvector], m: int
) -> EigencheckReport:
    """Check the m-fold single-card removal operator on q=1 eigenvectors.

    The normalised operator Proj_1^{*m} * id has eigenvalue
    C(j,m)/C(n,m) on each vector of the q=1 family.
    """
    lines = []
    ok = True
    for vec in vectors:
        if vec.q != 1:
            raise ValueError("this check applies to vectors built with q = 1")
        n = _vector_degree(vec)
        spec = top_m_unordered_spec(n, m)
        expected_scale = Fraction(factorial(m) * comb(vec.j, m))
        image = apply_cpp(alg, vec.vector, spec)
        good = image == vec.vector.scale(expected_scale)
        expected_value = Fraction(comb(vec.j, m), comb(n, m))
        lines.append(
            f"j={vec.j}: eigenvalue {expected_value} "
            f"[{'ok' if good else 'FAILED'}]"
        )
        ok = ok and good
    return EigencheckReport(ok=ok, checked=len(vectors), lines=lines)


def trinomial_eigenvalue_check(
    alg: AlgebraHandle, vectors: list[Eigenvector], q1, q2, q3
) -> EigencheckReport:
    """Check the trinomial operator's eigenvalue q2^(n-j) on a q-family.

    The vectors must have been built with q = q1/(q1+q3); the trinomial
    operator is a polynomial in the insertion operator, so the same
    vectors diagonalise it.  The middle-block parameter enters through the
    number of cards *not* handled singly, which is n-j on a member of E_j:
    assigning the j singleton parts to the m1+m3 singleton legs gives the
    numerator sum_s C(j,s) (q1+q3)^s q2^(n-s) = q2^(n-j).  In particular
    the j=n family keeps eigenvalue 1, as the stationary direction must.
    """
    q1, q2, q3 = rat(q1), rat(q2), rat(q3)
    if q1 + q3 == 0:
        raise ValueError("q1 + q3 must be positive")
    expected_q = q1 / (q1 + q3)
    lines = []
    ok = True
    for vec in vectors:
        if vec.q != expected_q:
            raise ValueError(
                f"vector built with q={vec.q}, parameters give q={expected_q}"
            )
        n = _vector_degree(vec)
        spec = trinomial_spec(n, q1, q2, q3)
        beta = beta_n(spec)
        image = apply_cpp(alg, vec.vector, spec)
        expected_value = q2 ** (n - vec.j)
        good = image == vec.vector.scale(beta * expected_value)
        lines.append(f"j={vec.j}: eigenvalue {expected_value} [{'ok' if good else 'FAILED'}]")
        ok = ok and good
    return EigencheckReport(ok=ok, checked=len(vectors), lines=lines)


def _vector_degree(vec: Eigenvector) -> int:
    degrees = {k.degree for k in vec.vector.support()}
    return degrees.pop()


def lincomb_rank(vectors: list[LinComb]) -> int:
    """Rank of a family of combinations (columns) over their joint support."""
    keys = sorted({k for v in vectors for k in v.support()}, key=str)
    key_index = {k: i for i, k in enumerate(keys)}
    rows = [[_ZERO] * len(vectors) for _ in keys]
    for col, v in enumerate(vectors):
        for k, c in v.items():
            rows[key_index[k]][col] = c
    if not rows:
        return 0
    return rank(RatMatrix.from_rows(rows))
