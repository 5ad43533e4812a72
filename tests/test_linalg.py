from fractions import Fraction as F
from math import lcm
from typing import NamedTuple

import pytest

from hopfchains.chain import build_transition_matrix, evolve, point_mass
from hopfchains.forests import forest_algebra
from hopfchains.linalg import (
    annihilation_check,
    annihilation_traces,
    eigenspace_dimensions,
    nullspace,
    rank,
    rat,
    shifted,
)
from hopfchains.presets import riffle_spec, top_to_random_spec, trinomial_spec
from hopfchains.shuffle import FreeAssociativeAlgebra, deck_from_string, distinct_deck, rearrangement_class
from hopfchains.spectral import class_spectrum, primitive_basis

from test_chain import _dense, _grid


def rational_matrix(rows):
    """Rational rows (ints, Fractions or "p/q" strings) as (integer rows,
    den) over the lcm of their denominators."""
    rows = [[F(e) for e in row] for row in rows]
    den = lcm(*(e.denominator for row in rows for e in row))
    return [[e.numerator * (den // e.denominator) for e in row] for row in rows], den


class Square(NamedTuple):
    """A square matrix as `eigenspace_dimensions` reads a chain kernel:
    (column, numerator) rows over den."""

    rows: list
    den: int


def square(entries, den):
    """The `Square` of dense integer rows over den."""
    return Square([[(j, e) for j, e in enumerate(row) if e] for row in entries], den)


def rref(m):
    """Oracle: reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    a = [[F(e) for e in row] for row in m]
    pivots = []
    for col in range(len(a[0])):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        a[r] = [e / a[r][col] for e in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [e - f * p for e, p in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def oracle_kernel(m):
    """Oracle kernel basis read off the rref: one vector per free column, in order."""
    a, pivots = rref(m)
    cols = len(a[0])
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [F(0)] * cols
        vec[free] = F(1)
        for r, col in enumerate(pivots):
            vec[col] = -a[r][free]
        basis.append(tuple(vec))
    return basis


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat(5) == F(5)
    assert rat("-2") == F(-2)
    with pytest.raises(TypeError):
        rat(0.5)
    # a bool is an int to Python, but not an exact rational here
    with pytest.raises(TypeError, match="not an exact rational: True"):
        rat(True)


def _top_to_random_3():
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    return build_transition_matrix(alg, top_to_random_spec(3), states=states)


def test_square_matches_two_step_path_enumeration():
    # independent oracle: accumulate probability over all length-2 paths
    K = _top_to_random_3()
    for x in K.states:
        two_step = [F(0)] * K.size
        for mid, p1 in K.row_of(x).items():
            for y, p2 in K.row_of(mid).items():
                two_step[K.index[y]] += p1 * p2
        law = evolve(K, point_mass(K, x), 2)
        assert [F(c, law.den) for c in law.nums] == two_step


def test_evolve_additivity():
    K = _top_to_random_3()
    for x in K.states:
        d = point_mass(K, x)
        assert evolve(K, d, 0) == d
        for s, t in [(1, 2), (2, 3), (0, 4)]:
            assert evolve(K, evolve(K, d, s), t) == evolve(K, d, s + t)


def test_evolve_rejects_other_state_list():
    K = _top_to_random_3()
    alg, deck = distinct_deck(4)
    other = build_transition_matrix(alg, top_to_random_spec(4), states=rearrangement_class(alg, deck))
    with pytest.raises(ValueError):
        evolve(K, point_mass(other, deck), 1)


def test_nullspace_zero_and_identity():
    assert len(nullspace([[0, 0], [0, 0]])) == 2
    assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_nullspace_single_row():
    (vec,) = nullspace([[1, 1]])
    # one basis vector proportional to (1, -1)
    assert vec[0] * (-1) == vec[1]
    assert any(vec)


def test_nullspace_skipped_columns_and_zero_rows():
    rows = [
        [0, 2, 4, 1, 0, 3],
        [0, 0, 0, 0, 0, 0],
        [0, 4, 8, 5, 0, 1],
        [0, 0, 0, 0, 0, 0],
        [0, -2, -4, 2, 0, -8],  # row 3 minus 3 times row 1
    ]
    kernel = nullspace(rows)
    assert kernel == oracle_kernel(rows)
    # free columns 0, 2, 4 and 5: the zero columns are unit vectors
    assert [max(j for j, c in enumerate(v) if c) for v in kernel] == [0, 2, 4, 5]
    assert kernel[0] == (1, 0, 0, 0, 0, 0) and kernel[2] == (0, 0, 0, 0, 1, 0)
    assert kernel[3] == (0, F(-7, 3), 0, F(5, 3), 0, 1)
    for v in kernel:
        assert all(sum(e * x for e, x in zip(row, v)) == 0 for row in rows)
    assert rank(rows) == 2


def test_rank_basics():
    assert rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4
    assert rank([[0] * 5] * 3) == 0
    assert rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert rank([[4, 6], [-2, -3]]) == 1  # rows divided by their gcd keep their sign


def test_rank_of_shifted_kernel():
    # the fixed-point space of the 6-state insertion chain is 1-dimensional
    K = _top_to_random_3()
    minus_identity = [
        [e - (K.den if i == j else 0) for j, e in enumerate(row)]
        for i, row in enumerate(_dense(K))
    ]
    assert rank(minus_identity) == 5
    assert rank(shifted(K.rows, K.den, 1)) == 5


def test_shifted_is_a_positive_multiple_of_the_rational_shift():
    # the rank fallback's rows, read straight off the sparse rows, are
    # q * den * (K - lam I) for lam = p/q, entry by entry
    cells = [c for space in ("distinct n=4", "deck aabb", "forests n=4") for c in _grid(space)]
    for _, preset, *_, K in cells:
        for lam in (F(0), F(1), F(2, 3), F(-5, 4)):
            rows = shifted(K.rows, K.den, lam)
            scale = lam.denominator * K.den
            for i, x in enumerate(K.states):
                probs = K.row_of(x)
                exact = [probs.get(y, 0) - (lam if i == j else 0) for j, y in enumerate(K.states)]
                assert [F(e, scale) for e in rows[i]] == exact, (preset, lam)
    # a column may repeat in a row, as in the annihilation chain's rows: its numerators add
    assert shifted([[(0, 1), (1, 2), (0, 3)], [(1, 4)]], 5, F(1, 2)) == [[3, 4], [0, 3]]


def test_rank_plus_nullity():
    mats = [
        [[1, 2, 3], [4, 5, 6]],
        rational_matrix([["1/2", "1/3"], ["1/4", "1/6"], [1, 1]])[0],
        _dense(_top_to_random_3()),
        [[0, 0, 1], [0, 0, 2]],
    ]
    for m in mats:
        assert rank(m) + len(nullspace(m)) == len(m[0])


def test_rank_agrees_with_rref_pivots():
    mats = [
        [[2, 4, 1], [1, 2, 0], [0, 0, 1]],
        rational_matrix([["1/7", 3], ["2/7", 6]])[0],
    ]
    for m in mats:
        assert rank(m) == len(rref(m)[1])


def test_rank_matches_rref_on_random_degenerate_matrices():
    import random

    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randrange(2, 7)
        cols = rng.randrange(2, 7)
        base = [
            [F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        # inject dependent rows and zero columns to exercise pivot skips
        if rows >= 3:
            base[-1] = [2 * a + b for a, b in zip(base[0], base[1])]
        kill = rng.randrange(cols)
        for row in base:
            row[kill] = F(0)
        base.insert(rng.randrange(rows + 1), [F(0)] * cols)
        m, _ = rational_matrix(base)
        # integer rows have the rational rows' kernel, in the same basis
        assert rank(m) == len(rref(base)[1]) == len(rref(m)[1])
        assert nullspace(m) == oracle_kernel(base)
        assert rank(m) + len(nullspace(m)) == cols


def test_annihilation_identity_and_jordan_block():
    assert annihilation_check(square([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1), [F(1)])
    assert not annihilation_check(square([[0, 1], [0, 0]], 1), [F(0)])


def test_annihilation_riffle_eigenvalues():
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    K = build_transition_matrix(alg, riffle_spec(3), states=states)
    assert annihilation_check(K, [F(1, 4), F(1, 2), F(1)])
    assert not annihilation_check(K, [F(1, 2), F(1)])


def _fraction_traces(K, lams):
    """Oracle: traces of I, (K - l_1 I), (K - l_1 I)(K - l_2 I), ... over
    Fraction entries, up to the first product that vanishes, else None."""
    size = K.size
    k = [[F(e, K.den) for e in row] for row in _dense(K)]
    p = [[F(int(i == j)) for j in range(size)] for i in range(size)]
    traces = [F(size)]
    for lam in lams:
        shift = [[k[i][j] - lam * (i == j) for j in range(size)] for i in range(size)]
        p = [[sum(p[i][t] * shift[t][j] for t in range(size)) for j in range(size)] for i in range(size)]
        if not any(map(any, p)):
            return traces
        traces.append(sum(p[i][i] for i in range(size)))
    return None


@pytest.mark.parametrize("space", ["deck aabc", "forests n=4"])
def test_annihilation_traces_match_the_fraction_product(space):
    # the chain rows are divided by their gcd after each factor; the traces
    # over the running scale stay those of the plain rational product
    spec = trinomial_spec(4, F(1, 4), F(1, 2), F(1, 4))
    if space == "deck aabc":
        alg, deck = deck_from_string("aabc")
        states, content = rearrangement_class(alg, deck), alg.content(deck)
    else:
        alg = forest_algebra()
        states, content = alg.basis(4), (4,)
    K = build_transition_matrix(alg, spec, states=states)
    support = sorted(v for v, m in class_spectrum(spec, alg, content).by_eigenvalue().items() if m)

    def traces(lams):
        return annihilation_traces(K.rows, K.den, lams, range(K.size))

    assert traces(support) == _fraction_traces(K, support) is not None
    # without the smallest eigenvalue the product does not vanish
    assert traces(support[1:]) is None is _fraction_traces(K, support[1:])


def _similar_diagonal(rng, diagonal):
    """S D S^-1 for a random unit upper times unit lower triangular S."""
    n = len(diagonal)

    def entry():
        return F(rng.randrange(-2, 3))

    upper = [[entry() if j > i else F(int(i == j)) for j in range(n)] for i in range(n)]
    lower = [[entry() if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    def inverse(a):
        rows = [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
        return [row[n:] for row in rref(rows)[0]]

    s = mul(upper, lower)
    d = [[diagonal[i] if i == j else F(0) for j in range(n)] for i in range(n)]
    return mul(mul(s, d), inverse(s))


def test_eigenspace_dimensions_match_rank_on_random_diagonalisable_matrices():
    import random

    rng = random.Random(11)
    pool = [F(-1), F(0), F(1, 3), F(1, 2), F(2), F(5, 4)]
    for _ in range(60):
        size = rng.randrange(2, 7)
        diagonal = [rng.choice(pool[:4]) for _ in range(size)]
        m = square(*rational_matrix(_similar_diagonal(rng, diagonal)))
        # every true eigenvalue plus candidates of dimension 0
        candidates = sorted(set(diagonal) | set(rng.sample(pool, 2)))
        dims = eigenspace_dimensions(m, candidates)
        assert dims == {lam: size - rank(shifted(m.rows, m.den, lam)) for lam in candidates}
        assert dims == {lam: diagonal.count(lam) for lam in candidates}


def test_eigenspace_dimensions_none_without_a_certificate():
    jordan = square([[1, 2, 0], [0, 1, 0], [0, 0, 2]], 2)
    assert eigenspace_dimensions(jordan, [F(1, 2), F(1)]) is None
    diagonal = square([[1, 0], [0, 6]], 3)
    assert eigenspace_dimensions(diagonal, [F(1, 3), 2]) == {F(1, 3): 1, 2: 1}
    # a true eigenvalue left out of the list
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    K = build_transition_matrix(alg, riffle_spec(3), states=states)
    assert eigenspace_dimensions(K, [F(1, 4), F(1, 2), F(1)]) == {F(1, 4): 2, F(1, 2): 3, F(1): 1}
    assert eigenspace_dimensions(K, [F(1, 4), F(1)]) is None


def _whole_basis_primitives(alg, n):
    """Oracle: the reduced coproduct kernel from one rref over the whole basis."""
    basis = alg.basis(n)
    rows: dict = {}
    for j, x in enumerate(basis):
        for (u, v), c in alg.coproduct_basis(x).items():
            if 0 < u.degree < n:
                rows.setdefault((u, v), [0] * len(basis))[j] += c
    if not rows:
        return [{x: F(1)} for x in basis]
    return [{basis[j]: c for j, c in enumerate(v) if c} for v in oracle_kernel(list(rows.values()))]


@pytest.mark.parametrize("alphabet, top", [("abc", 4), ("1234", 3)])
def test_primitive_basis_matches_whole_basis_oracle(alphabet, top):
    # primitive_basis eliminates one content class at a time; the list and
    # its order must be those of one elimination over the whole basis
    alg = FreeAssociativeAlgebra(alphabet)
    for n in range(1, top + 1):
        got = [dict(p.items()) for p in primitive_basis(alg, n)]
        assert got == _whole_basis_primitives(alg, n)
