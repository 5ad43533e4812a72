"""Closed-form spectra of breaking-size chains, and exact verification.

For an operator with weights alpha_D at degree n, each partition lam of n
contributes the eigenvalue

    beta_lam / beta_n,  with  beta_lam = sum_D alpha_D <lam, D>,

where <lam, D> counts ordered assignments of lam's parts to blocks with
prescribed block sums.  Multiplicities have one path, `class_spectrum`.
Both algebras are free commutative (the shuffle algebra on Lyndon words,
the forest algebra on rooted trees), so on the basis keys of one content
the multiplicity of lam is the number of multisets of free generators
with size profile lam and that total content.  The algebra handle's
`generator_counts` supplies the generators by size and content, and
`class_multiplicity` counts the multisets of every profile in one
iterative pass over them, largest size first.  For a deck of distinct
cards the count is the number of permutations of cycle type lam; for
forests, whose content is the vertex count, it is
prod_i multichoose(t_i, m_i(lam)) with t_i the rooted trees on i vertices.

Verification against the chain is a trace certificate: the product of
(K - lam-hat I) over all claimed eigenvalues must vanish
(diagonalisability holds whenever the algebra is commutative or
cocommutative), and then the traces of its partial products give every
eigenspace dimension exactly (`linalg.dimensions_from_traces`).  One
routine forms that chain, `linalg.annihilation_traces`, on the kernel's
rows from `chain.kernel_rows`, the rows the matrix build stores; the
certificate forms no dense kernel, and where the rows are read off
the position law it applies the operator once.  The word chains never
read a card label, so a permutation g of the letters of equal
multiplicity has K(gx, gy) = K(x, y), and every polynomial P in K
commutes with it: P[gx][gx] = P[x][x], and row gx of P is row x with its
columns permuted (Diaconis, Group Representations in Probability and
Statistics, ch. 3).  On one whole rearrangement class the chain
therefore runs from one row per orbit of these relabellings
(`shuffle.relabelling_orbits`), each trace times the orbit size, and P
vanishes iff those rows do: one row of weight n! on distinct cards, 15
of weight 6 on aabbcc.  Forests and other state lists run it from every
row.  Only a product that does not vanish falls back to
states - rank(K - lam-hat I), on the same rows made dense.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb, lcm, prod
from typing import NamedTuple

from .chain import kernel_rows
from .hopf import (
    AlgebraHandle,
    CppSpec,
    _add_term,
    beta_n,
    homogeneous_degree,
    product,
    symmetrized_product,
)
from .linalg import (
    annihilation_traces,
    dense_matrix,
    dimensions_from_traces,
    nullspace,
    rank,
    rat,
    shifted,
)
from .presets import top_m_unordered_spec, top_or_bottom_spec, trinomial_spec
from .shuffle import WordAlgebra, position_law, position_moves, relabelling_orbits

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
    count only depends on the multiset of nonzero parts of comp, so the
    search is memoised on (part index, sorted remaining block sums), and a
    part placed in one of m blocks with equal remaining sum counts m times.
    """
    lam = tuple(lam)
    comp = tuple(comp)
    if sum(lam) != sum(comp):
        raise ValueError(f"size mismatch: {lam} vs {comp}")

    @cache
    def rec(idx: int, remaining: tuple) -> int:
        # remaining: the block sums still to fill, sorted
        if idx == len(lam):
            return int(not any(remaining))
        count = 0
        for r in set(remaining):
            if r >= lam[idx]:
                rest = list(remaining)
                rest[rest.index(r)] = r - lam[idx]
                count += remaining.count(r) * rec(idx + 1, tuple(sorted(rest)))
        return count

    return rec(0, tuple(sorted(comp)))


def eigenvalues(spec: CppSpec) -> dict:
    """Map each partition of n to its eigenvalue beta_lam / beta_n.

    beta_lam sums weight x pairing count over the terms.  The count
    depends only on the sorted nonzero blocks of a composition, so the
    weights are summed per block multiset first and each multiset is
    counted once per partition.
    """
    beta = beta_n(spec)
    weights: dict = {}
    for comp, w in spec.terms:
        blocks = tuple(sorted(b for b in comp if b))
        weights[blocks] = weights.get(blocks, _ZERO) + w
    return {
        lam: sum((w * pairing_count(lam, blocks) for blocks, w in weights.items()), _ZERO) / beta
        for lam in partitions(spec.n)
    }


# ---------------------------------------------------------------------------
# spectra


class Spectrum(NamedTuple):
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


def class_multiplicity(generators: dict, content) -> dict:
    """{lam: multisets of free generators with size profile lam and total content}.

    `generators` is the algebra's `generator_counts(content)` table
    {size: {content: count}}, and `content` the class's tuple from
    `AlgebraHandle.content`.  One pass over the table, largest size
    first, keeps the number of ways to reach each (content still to fill,
    sizes taken so far); taking k generators of one content out of
    `count` is a single multichoose(count, k) factor.  Profiles that
    fill the content exactly are kept, so a partition missing from the
    result has multiplicity 0.  For distinct cards (all-ones content)
    the count of lam is the number of permutations of cycle type lam.
    """
    content = tuple(content)
    ways = {content: {(): 1}}  # content still to fill -> {sizes taken so far: count}
    for size in sorted(generators, reverse=True):
        for gen, count in generators[size].items():
            # visit the remainders that hold gen in lexicographic order: taking
            # gen moves to a smaller remainder, whose counts were already read
            for rest in itertools.product(*(range(c - g + 1) for c, g in zip(content, gen))):
                remaining = tuple(r + g for r, g in zip(rest, gen))
                taken = ways.get(remaining, {})
                for k in range(1, min(r // g for r, g in zip(remaining, gen) if g) + 1):
                    factor, parts = comb(count + k - 1, k), (size,) * k
                    target = ways.setdefault(tuple(r - k * g for r, g in zip(remaining, gen)), {})
                    for lam, w in taken.items():
                        target[lam + parts] = target.get(lam + parts, 0) + factor * w
    return ways.get((0,) * len(content), {})


def class_spectrum(spec: CppSpec, alg: AlgebraHandle, content) -> Spectrum:
    """Formula spectrum on the basis keys of one content class.

    For a deck this is its rearrangement class; for forests, whose content
    is the vertex count, the whole degree-n basis.  Every partition's
    multiplicity is read off one `class_multiplicity` table.
    """
    if sum(content) != spec.n:
        raise ValueError(
            f"content of size {sum(content)} does not match the operator's degree {spec.n}"
        )
    counts = class_multiplicity(alg.generator_counts(content), content)
    rows = tuple((lam, value, counts.get(lam, 0)) for lam, value in eigenvalues(spec).items())
    return Spectrum(table=rows)


class SpectrumReport(NamedTuple):
    """Comparison of a claimed spectrum against a built matrix."""

    ok: bool
    entries: list  # (eigenvalue, claimed multiplicity, eigenspace dimension)
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


def verify_spectrum(
    alg: AlgebraHandle,
    spec: CppSpec,
    states: list,
    spectrum: Spectrum,
) -> SpectrumReport:
    """Eigenspace dimensions of the chain on `states` from an annihilation chain's traces.

    One chain on the claimed support certifies diagonalisability and gives
    every dimension; a value claimed with multiplicity 0 then has
    dimension 0.  The chain runs on the rows of `kernel_rows` from one row
    per letter-relabelling orbit (`relabelling_orbits`: one start of
    weight n! on a distinct deck, 15 of weight 6 on aabbcc, every row of
    weight 1 on forests or where no two letters share a multiplicity), and
    each trace is multiplied by the weight.  Only when the product does
    not vanish are the dimensions read off `rank` of those rows made
    dense, so a failing report still shows the true ones.  On aabbccd
    under riffle this takes 2.3 s where the chain from every row of the
    built kernel took 16.9 s.
    """
    states = list(states)
    size = len(states)
    agg = spectrum.by_eigenvalue()
    support = sorted(value for value, mult in agg.items() if mult > 0)
    if not support:
        raise ValueError("the spectrum claims no eigenvalue")
    rows, den, _ = kernel_rows(alg, spec, states)
    starts, weight = relabelling_orbits(alg, states)
    traces = annihilation_traces(rows, den, support, starts)
    dims = None if traces is None else dimensions_from_traces(support, [weight * t for t in traces])
    diag = dims is not None
    if not diag:
        kernel = dense_matrix(rows, den)
        dims = {value: size - rank(shifted(kernel, value)) for value in agg}
    entries = [(value, agg[value], dims.get(value, 0)) for value in sorted(agg)]
    total = spectrum.total_multiplicity()
    ok = diag and total == size and all(claimed == actual for _, claimed, actual in entries)
    return SpectrumReport(
        ok=ok, entries=entries, total_claimed=total, size=size, diagonalizable=diag
    )


# ---------------------------------------------------------------------------
# primitives


def primitive_basis(alg: AlgebraHandle, n: int) -> list[dict]:
    """Basis of the degree-n primitives (reduced coproduct kernel).

    The reduced coproduct drops the boundary terms 1(x)x and x(x)1, and
    maps the keys of one content only to tensor pairs of that content, so
    each content class is eliminated on its own: its kernel is read off
    the matrix whose rows are the class's inner tensor pairs.  A kernel
    vector ends in its free column, so sorting the vectors by the basis
    position of their last key gives the list and order that one
    elimination over the whole basis would give.
    """
    if n < 1:
        raise ValueError("primitives live in degree >= 1")
    basis = alg.basis(n)
    classes: dict = {}
    for pos, x in enumerate(basis):
        classes.setdefault(alg.content(x), []).append(pos)
    found = []
    for members in classes.values():
        rows: dict = {}
        for j, pos in enumerate(members):
            for (u, v), c in alg.coproduct_basis(basis[pos]).items():
                if 0 < u.degree < n:
                    rows.setdefault((u, v), [0] * len(members))[j] += c
        # with no inner pairs (degree 1) one zero row makes every key primitive
        for vec in nullspace(list(rows.values()) or [[0] * len(members)]):
            support = [j for j, c in enumerate(vec) if c]
            found.append((members[support[-1]], {basis[members[j]]: vec[j] for j in support}))
    found.sort(key=lambda item: item[0])
    return [p for _, p in found]


# ---------------------------------------------------------------------------
# eigenvectors of insertion shuffles on cocommutative algebras


class Eigenvector(NamedTuple):
    """An exact eigenvector of the q-weighted insertion operator."""

    vector: dict
    eigenvalue: Fraction
    j: int
    q: Fraction

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


def _higher_primitive_multisets(alg, total: int):
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


def _sub_multiset_splits(singles: tuple) -> list:
    """(A, complement, count) for each sub-multiset A of a sorted tuple.

    count = prod_a C(m_a, k_a) is the number of position subsets of
    `singles` whose letters form A, where a occurs m_a times in `singles`
    and k_a times in A.
    """
    groups = [(a, len(list(run))) for a, run in itertools.groupby(singles)]
    splits = []
    for ks in itertools.product(*(range(m + 1) for _, m in groups)):
        left = tuple(a for (a, _), k in zip(groups, ks) for _ in range(k))
        right = tuple(a for (a, m), k in zip(groups, ks) for _ in range(m - k))
        splits.append((left, right, prod(comb(m, k) for (_, m), k in zip(groups, ks))))
    return splits


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
            c_sig(1)..c_sig(i) M c_sig(i+1)..c_sig(j),   M = sum_tau p_tau(1)..p_tau(k).

    The orderings sigma that put the position set S first sum to
    sym(S) M sym(S^c), with sym the symmetrised product, and sym(S) only
    depends on the letter multiset A of S; the subsets with multiset A
    number prod_a C(m_a, k_a).  So the sum is built from one split per
    sub-multiset A, i = |A|, weighted by C(j,i) q^i (1-q)^(j-i) times that
    count: at most 2^j triple products.  sym(A) is formed once per
    sub-multiset, as sum_a m_a sym(A - a) a over the distinct singles a of
    A (the orderings grouped by their last factor), and M once per
    multiset of higher primitives.

    Requires a cocommutative word handle (`FreeAssociativeAlgebra`).  Every
    emitted vector is verified exactly against the operator
    q Proj_1*id + (1-q) id*Proj_1 at degree n through its position law
    (`_eigen_equation`); a failure aborts with the offending multisets.
    With `content` set, only multisets whose combined `alg.content`
    matches are produced.  j = n-1 always yields the empty list: no
    primitive has total degree 1 once the degree-1 slots are spent.
    """
    if not alg.cocommutative:
        raise ValueError(f"{alg.name} is not cocommutative")
    if not 0 <= j <= n:
        raise ValueError("j must lie in 0..n")
    q = rat(q)
    op_spec = top_or_bottom_spec(n, q)
    value = Fraction(j, n)
    weights = [comb(j, i) * q**i * (1 - q) ** (j - i) for i in range(j + 1)]
    higher = list(_higher_primitive_multisets(alg, n - j))
    middles: dict = {}  # position in `higher` -> M
    syms = {(): {alg.unit_key(): 1}}  # sub-multiset of singles -> sym(A)

    def sym(letters: tuple) -> dict:
        if letters not in syms:
            total: dict = {}
            for pos, a in enumerate(letters):
                if a not in letters[:pos]:
                    rest = sym(letters[:pos] + letters[pos + 1 :])
                    for k, c in product(alg, rest, {a: letters.count(a)}).items():
                        _add_term(total, k, c)
            syms[letters] = total
        return syms[letters]

    results = []
    for c_multiset in itertools.combinations_with_replacement(alg.basis(1), j):
        splits = [
            (left, right, weights[len(left)] * count)
            for left, right, count in _sub_multiset_splits(c_multiset)
            if weights[len(left)]
        ]
        for pos, p_multiset in enumerate(higher):
            if content is not None:
                # a primitive is content-homogeneous: any key of its support gives its content
                keys = c_multiset + tuple(next(iter(p)) for p in p_multiset)
                if tuple(map(sum, zip(*map(alg.content, keys)))) != tuple(content):
                    continue
            if pos not in middles:
                middles[pos] = symmetrized_product(alg, p_multiset)
            middle = middles[pos]
            vector: dict = {}
            for left, right, coeff in splits:
                term = product(alg, product(alg, sym(left), middle), sym(right))
                for k, c in term.items():
                    _add_term(vector, k, coeff * c)
            if not vector:
                raise ArithmeticError(
                    f"eigenvector collapsed to zero for singles {c_multiset!r}"
                )
            if not _eigen_equation(alg, vector, op_spec, value):
                raise ArithmeticError(
                    f"eigen-equation failed for singles {c_multiset!r}, "
                    f"higher multiset of degrees "
                    f"{[homogeneous_degree(p) for p in p_multiset]}"
                )
            results.append(Eigenvector(vector=vector, eigenvalue=value, j=j, q=q))
    return results


def _eigen_equation(alg: AlgebraHandle, vector: dict, spec: CppSpec, value: Fraction) -> bool:
    """True iff the spec's operator maps vector to beta_n * value * vector,
    that is, vector is an eigenvector of the chain's operator for value.

    Only word handles are checked: their operators never read a card
    label, so the operator sends each word x to sum_sigma beta_n Q(sigma)
    x.sigma for the spec's position law Q = numerator / den
    (`shuffle.position_law`).  The vector is scaled by the lcm of its
    denominators to integers a_x, and the check is the integer identity

      value.den * sum_x sum_sigma numerator(sigma) a_x x.sigma = den * value.num * a,

    with zero entries dropped from the left side (value 0 has an empty
    right side).  Any other handle raises ValueError.
    """
    if not isinstance(alg, WordAlgebra):
        raise ValueError(f"{alg.name} is not a word algebra; eigen-equations are checked on words")
    deg = homogeneous_degree(vector)
    if deg not in (None, spec.n):
        raise ValueError(f"degree mismatch: element degree {deg}, spec degree {spec.n}")
    value = rat(value)
    law, den = position_law(alg, spec)
    moves = position_moves(law)
    vden = lcm(*(c.denominator for _, c in vector.items()))
    scaled = {x: c.numerator * (vden // c.denominator) for x, c in vector.items()}
    image: dict = {}
    for x, a in scaled.items():
        for move, m in moves:
            y = move(x)
            image[y] = image.get(y, 0) + m * a
    lhs = {y: c * value.denominator for y, c in image.items() if c}
    rhs = {x: a * den * value.numerator for x, a in scaled.items()} if value else {}
    return lhs == rhs


def _eigencheck(alg: AlgebraHandle, vectors: list[Eigenvector], expect) -> bool:
    """True iff every vector satisfies its eigen-equation, where expect(n, j)
    gives the (spec, eigenvalue) of a degree-n vector of E_j."""
    return all(
        _eigen_equation(alg, vec.vector, *expect(homogeneous_degree(vec.vector), vec.j))
        for vec in vectors
    )


def polynomial_eigenvalue_check(
    alg: AlgebraHandle, vectors: list[Eigenvector], m: int
) -> bool:
    """Check the m-fold single-card removal operator on q=1 eigenvectors.

    The normalised operator Proj_1^{*m} * id has eigenvalue
    C(j,m)/C(n,m) on each vector of the q=1 family.
    """
    if any(vec.q != 1 for vec in vectors):
        raise ValueError("this check applies to vectors built with q = 1")
    return _eigencheck(
        alg, vectors, lambda n, j: (top_m_unordered_spec(n, m), Fraction(comb(j, m), comb(n, m)))
    )


def trinomial_eigenvalue_check(
    alg: AlgebraHandle, vectors: list[Eigenvector], q1, q2, q3
) -> bool:
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
    for vec in vectors:
        if vec.q != expected_q:
            raise ValueError(f"vector built with q={vec.q}, parameters give q={expected_q}")
    return _eigencheck(alg, vectors, lambda n, j: (trinomial_spec(n, q1, q2, q3), q2 ** (n - j)))


def lincomb_rank(vectors: list[dict]) -> int:
    """Rank of a family of combinations (columns) over their joint support,
    each column scaled to integers by the lcm of its own denominators."""
    keys = sorted({k for v in vectors for k in v}, key=str)
    key_index = {k: i for i, k in enumerate(keys)}
    rows = [[0] * len(vectors) for _ in keys]
    for col, v in enumerate(vectors):
        vden = lcm(*(c.denominator for _, c in v.items()))
        for k, c in v.items():
            rows[key_index[k]][col] = c.numerator * (vden // c.denominator)
    if not rows:
        return 0
    return rank(rows)
