from fractions import Fraction as F

import pytest

from hopfchains.chain import build_transition_matrix, evolve, point_mass
from hopfchains.linalg import (
    RatMatrix,
    annihilation_check,
    nullspace,
    rank,
    rat,
    shifted,
)
from hopfchains.presets import riffle_spec, top_to_random_spec
from hopfchains.shuffle import distinct_deck, rearrangement_class


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat(5) == F(5)
    assert rat("-2") == F(-2)
    with pytest.raises(TypeError):
        rat(0.5)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])


def _top_to_random_3():
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    return build_transition_matrix(alg, top_to_random_spec(3), states=states)


def test_square_matches_two_step_path_enumeration():
    # independent oracle: accumulate probability over all length-2 paths
    K = _top_to_random_3()
    for i, x in enumerate(K.states):
        two_step = [F(0)] * K.size
        for mid in range(K.size):
            p1 = F(K.kernel.entries[i][mid], K.kernel.den)
            if not p1:
                continue
            for j in range(K.size):
                p2 = F(K.kernel.entries[mid][j], K.kernel.den)
                if p2:
                    two_step[j] += p1 * p2
        assert evolve(K, point_mass(K, x), 2).weights == two_step


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


def test_rank_basics():
    assert rank([[int(i == j) for j in range(4)] for i in range(4)]) == 4
    assert rank([[0] * 5] * 3) == 0
    assert rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert rank([[4, 6], [-2, -3]]) == 1  # rows divided by their gcd keep their sign


def test_rank_of_shifted_kernel():
    # the fixed-point space of the 6-state insertion chain is 1-dimensional
    K = _top_to_random_3()
    den = K.kernel.den
    minus_identity = [
        [e - (den if i == j else 0) for j, e in enumerate(row)]
        for i, row in enumerate(K.kernel.entries)
    ]
    assert rank(minus_identity) == 5
    assert rank(shifted(K.kernel, 1)) == 5


def test_shifted_is_a_positive_multiple_of_the_rational_shift():
    m = RatMatrix([["1/2", "1/3"], ["1/4", 1]])
    lam = F(2, 3)
    rows = shifted(m, lam)
    scale = lam.denominator * m.den
    for i in range(2):
        for j in range(2):
            exact = F(m.entries[i][j], m.den) - (lam if i == j else 0)
            assert F(rows[i][j], scale) == exact


def test_rank_plus_nullity():
    mats = [
        RatMatrix([[1, 2, 3], [4, 5, 6]]),
        RatMatrix([["1/2", "1/3"], ["1/4", "1/6"], [1, 1]]),
        _top_to_random_3().kernel,
        RatMatrix([[0, 0, 1], [0, 0, 2]]),
    ]
    for m in mats:
        assert rank(m.entries) + len(nullspace(m.entries)) == m.cols


def test_rank_agrees_with_rref_pivots():
    from hopfchains.linalg import rref

    mats = [
        RatMatrix([[2, 4, 1], [1, 2, 0], [0, 0, 1]]),
        RatMatrix([["1/7", 3], ["2/7", 6]]),
    ]
    for m in mats:
        assert rank(m.entries) == len(rref(m.entries)[1])


def test_rank_matches_rref_on_random_degenerate_matrices():
    import random

    from hopfchains.linalg import rref

    rng = random.Random(2024)
    for _ in range(25):
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
        m = RatMatrix(base)
        # rref and nullspace also accept the rational rows themselves
        assert rank(m.entries) == len(rref(base)[1]) == len(rref(m.entries)[1])
        assert rank(m.entries) + len(nullspace(base)) == m.cols
        assert nullspace(base) == nullspace(m.entries)


def test_annihilation_identity_and_jordan_block():
    assert annihilation_check(RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [F(1)])
    assert not annihilation_check(RatMatrix([[0, 1], [0, 0]]), [F(0)])


def test_annihilation_riffle_eigenvalues():
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    K = build_transition_matrix(alg, riffle_spec(3), states=states)
    assert annihilation_check(K.kernel, [F(1, 4), F(1, 2), F(1)])
    assert not annihilation_check(K.kernel, [F(1, 2), F(1)])
