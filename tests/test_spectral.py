from fractions import Fraction as F
from math import comb, factorial

import pytest

from hopfchains.chain import build_transition_matrix
from hopfchains.forests import forest_algebra
from hopfchains.hopf import LinComb, apply_cpp, beta_n, coproduct
from hopfchains.presets import (
    biased_spec,
    riffle_spec,
    top_or_bottom_spec,
    top_to_random_spec,
    trinomial_spec,
)
from hopfchains.shuffle import (
    FreeAssociativeAlgebra,
    ShuffleAlgebra,
    Word,
    distinct_alphabet,
    distinct_deck,
    rearrangement_class,
    word_content,
)
from hopfchains.spectral import (
    algebra_dims,
    build_E_j,
    class_multiplicity,
    eigenvalues,
    hilbert_invert,
    lincomb_rank,
    lyndon_contents,
    multiplicity,
    pairing_count,
    partitions,
    polynomial_eigenvalue_check,
    primitive_basis,
    spectrum_from_profile,
    trinomial_eigenvalue_check,
    verify_spectrum,
    word_class_spectrum,
)


def test_partitions():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions(0) == [()]


def test_pairing_count_examples():
    # against (1, n-1): the number of singleton parts
    for lam, n in [((2, 1, 1), 4), ((3, 1, 1), 5), ((2, 2), 4), ((1, 1, 1), 3)]:
        singles = sum(1 for p in lam if p == 1)
        assert pairing_count(lam, (1, n - 1)) == singles

    assert pairing_count((2, 1, 1), (1, 3)) == 2
    for lam in partitions(5):
        assert pairing_count(lam, (5,)) == 1

    with pytest.raises(ValueError):
        pairing_count((2, 1), (1, 1))


def test_pairing_count_order_invariance():
    for lam in partitions(5):
        assert pairing_count(lam, (2, 3)) == pairing_count(lam, (3, 2))
        assert pairing_count(lam, (1, 1, 3)) == pairing_count(lam, (3, 1, 1))


def test_top_to_random_eigenvalues():
    for n in (3, 4, 5):
        vals = set(eigenvalues(top_to_random_spec(n)).values())
        expect = {F(j, n) for j in range(n - 1)} | {F(1)}
        assert vals == expect


def test_top_or_bottom_eigenvalues_independent_of_q():
    base = eigenvalues(top_to_random_spec(4))
    for q in (F(0), F(1, 3), F(2, 3)):
        assert eigenvalues(top_or_bottom_spec(4, q)) == base


def test_riffle_eigenvalues_depend_on_length():
    for n in (3, 4):
        vals = eigenvalues(riffle_spec(n))
        for lam, v in vals.items():
            assert v == F(2 ** len(lam), 2**n)


def test_hilbert_invert_one_letter():
    profile = hilbert_invert([1, 1, 1, 1, 1])
    assert profile.b == (0, 1, 0, 0, 0)


def test_hilbert_invert_two_letters_matches_necklaces():
    dims = [2**d for d in range(6)]
    dims[0] = 1
    profile = hilbert_invert(dims)
    assert profile.b[1:] == (2, 1, 2, 3, 6)


def test_hilbert_invert_forests_gives_tree_counts():
    from hopfchains.forests import enumerate_trees

    falg = forest_algebra()
    profile = hilbert_invert(algebra_dims(falg, 5))
    assert profile.b[1:] == tuple(len(enumerate_trees(i)) for i in range(1, 6))


def test_hilbert_invert_requires_connected():
    with pytest.raises(ValueError):
        hilbert_invert([2, 1])


def test_multiplicity_one_letter():
    profile = hilbert_invert([1, 1, 1, 1])
    assert multiplicity((1, 1, 1), profile) == 1
    assert multiplicity((2, 1), profile) == 0
    assert multiplicity((3,), profile) == 0


def test_multiplicity_totals_two_letters():
    for n in range(1, 6):
        profile = hilbert_invert([2**d if d else 1 for d in range(n + 1)])
        total = sum(multiplicity(lam, profile) for lam in partitions(n))
        assert total == 2**n


def test_multiplicity_totals_forests():
    falg = forest_algebra()
    for n in (3, 4):
        profile = hilbert_invert(algebra_dims(falg, n))
        total = sum(multiplicity(lam, profile) for lam in partitions(n))
        assert total == len(falg.basis(n))


def test_class_multiplicity_distinct_is_cycle_type_count():
    def cycle_type_count(lam):
        n = sum(lam)
        counts = {}
        for p in lam:
            counts[p] = counts.get(p, 0) + 1
        denom = 1
        for size, m in counts.items():
            denom *= size**m * factorial(m)
        return factorial(n) // denom

    for n in (3, 4, 5):
        alg, deck = distinct_deck(n)
        content = word_content(alg, deck)
        lyndon = lyndon_contents(alg, n)
        for lam in partitions(n):
            assert class_multiplicity(lyndon, content, lam) == cycle_type_count(lam)


def test_class_multiplicity_repeated_content():
    alg = ShuffleAlgebra("ab")
    content = (2, 2)  # the aabb class
    lyndon = lyndon_contents(alg, 4)
    got = {lam: class_multiplicity(lyndon, content, lam) for lam in partitions(4)}
    assert got == {(4,): 1, (3, 1): 2, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}
    assert sum(got.values()) == 6


def test_verify_spectrum_top_to_random_distinct_4():
    alg, deck = distinct_deck(4)
    states = rearrangement_class(alg, deck)
    spec = top_to_random_spec(4)
    K = build_transition_matrix(alg, spec, states=states)
    s = word_class_spectrum(spec, alg, word_content(alg, deck))
    assert {v: m for v, m in s.by_eigenvalue().items() if m} == {
        F(1): 1,
        F(1, 2): 6,
        F(1, 4): 8,
        F(0): 9,
    }
    report = verify_spectrum(K, s)
    assert report.ok and report.diagonalizable


def test_verify_spectrum_catches_wrong_multiplicity():
    from hopfchains.spectral import Spectrum

    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    spec = top_to_random_spec(3)
    K = build_transition_matrix(alg, spec, states=states)
    wrong = Spectrum(table=(((1, 1, 1), F(1), 2), ((2, 1), F(1, 3), 2), ((3,), F(0), 2)))
    report = verify_spectrum(K, wrong)
    assert not report.ok


def test_verify_spectrum_forest_grid_cell():
    falg = forest_algebra()
    spec = trinomial_spec(3, F(1, 4), F(1, 2), F(1, 4))
    K = build_transition_matrix(falg, spec)
    s = spectrum_from_profile(spec, hilbert_invert(algebra_dims(falg, 3)))
    assert verify_spectrum(K, s).ok


def test_primitive_basis_degree_one():
    alg = FreeAssociativeAlgebra("ab")
    prims = primitive_basis(alg, 1)
    assert [str(next(iter(p.support()))) for p in prims] == ["a", "b"]


def test_primitive_basis_degree_two_commutator():
    alg = FreeAssociativeAlgebra("ab")
    (p,) = primitive_basis(alg, 2)
    a_b = p.coefficient(Word("ab"))
    b_a = p.coefficient(Word("ba"))
    assert a_b == -b_a != 0
    assert p.coefficient(Word("aa")) == p.coefficient(Word("bb")) == 0


def test_primitive_dimensions_match_hilbert_exponents():
    alg = FreeAssociativeAlgebra("ab")
    profile = hilbert_invert([2**d if d else 1 for d in range(5)])
    for n in range(1, 5):
        assert len(primitive_basis(alg, n)) == profile.b[n]


def test_primitive_vectors_killed_by_reduced_coproduct():
    alg = FreeAssociativeAlgebra("ab")
    for n in (2, 3):
        for p in primitive_basis(alg, n):
            delta = coproduct(alg, p)
            inner = {k: c for k, c in delta.items() if 0 < k[0].degree < n}
            assert not inner


def test_build_E_j_smallest_cases():
    alg = FreeAssociativeAlgebra("ab")
    (vec0,) = build_E_j(alg, 2, 0, F(1, 2), content=(1, 1))
    assert vec0.eigenvalue == 0
    assert vec0.vector.coefficient(Word("ab")) == -vec0.vector.coefficient(Word("ba"))

    (vec2,) = build_E_j(alg, 2, 2, F(1), content=(1, 1))
    assert vec2.eigenvalue == 1
    v = vec2.vector
    assert v.coefficient(Word("ab")) == v.coefficient(Word("ba")) != 0
    image = apply_cpp(alg, v, top_to_random_spec(2))
    assert image == v.scale(2)  # operator value 2 = beta * eigenvalue


def test_E_n_minus_one_is_empty():
    for n in (2, 3, 4):
        alg = FreeAssociativeAlgebra(distinct_alphabet(n))
        assert build_E_j(alg, n, n - 1, F(1, 2)) == []


def test_E_family_completeness_and_rank():
    for n in (2, 3):
        alg = FreeAssociativeAlgebra(distinct_alphabet(n))
        ones = tuple([1] * n)
        vectors = []
        for j in list(range(n - 1)) + [n]:
            vectors.extend(build_E_j(alg, n, j, F(1, 3), content=ones))
        assert len(vectors) == factorial(n)
        assert lincomb_rank([v.vector for v in vectors]) == factorial(n)


def test_eigenvectors_give_right_eigenfunctions_of_the_chain():
    # dual eigenvector coefficients, read as a function on decks, are a
    # right eigenfunction of the transition matrix (words need no rescaling)
    n, q = 3, F(1, 2)
    dual = FreeAssociativeAlgebra("123")
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    K = build_transition_matrix(alg, top_or_bottom_spec(n, q), states=states)
    for j in (0, 1, 3):
        for vec in build_E_j(dual, n, j, q, content=(1, 1, 1)):
            f = [vec.vector.coefficient(s) for s in states]
            Kf = [
                sum(K.kernel.at(i, k) * f[k] for k in range(len(states)))
                for i in range(len(states))
            ]
            assert Kf == [F(j, n) * v for v in f]


def test_polynomial_check_m1_reduces_to_insertion_eigenvalue():
    alg = FreeAssociativeAlgebra("123")
    vectors = []
    for j in (0, 1, 3):
        vectors.extend(build_E_j(alg, 3, j, F(1), content=(1, 1, 1)))
    rep = polynomial_eigenvalue_check(alg, vectors, 1)
    assert rep.ok and rep.checked == 6


def test_polynomial_check_m2():
    alg = FreeAssociativeAlgebra("123")
    vectors = []
    for j in (0, 1, 3):
        vectors.extend(build_E_j(alg, 3, j, F(1), content=(1, 1, 1)))
    rep = polynomial_eigenvalue_check(alg, vectors, 2)
    assert rep.ok
    # j < m annihilates, j = n gives 1
    assert any("j=0: eigenvalue 0" in line for line in rep.lines)
    assert any("j=3: eigenvalue 1" in line for line in rep.lines)


def test_polynomial_check_requires_q1_vectors():
    alg = FreeAssociativeAlgebra("12")
    vectors = build_E_j(alg, 2, 2, F(1, 2), content=(1, 1))
    with pytest.raises(ValueError):
        polynomial_eigenvalue_check(alg, vectors, 2)


def test_trinomial_eigenvalue_verified_form():
    alg = FreeAssociativeAlgebra("123")
    q1, q2, q3 = F(1, 6), F(1, 2), F(1, 3)  # q = 1/3
    vectors = []
    for j in (0, 1, 3):
        vectors.extend(build_E_j(alg, 3, j, F(1, 3), content=(1, 1, 1)))
    rep = trinomial_eigenvalue_check(alg, vectors, q1, q2, q3)
    assert rep.ok


@pytest.mark.xfail(
    strict=True,
    reason="stated trinomial eigenvalue q2^j is exactly false; the verified "
    "eigenvalue is q2^(n-j) (the stationary family j=n must keep eigenvalue 1)",
)
def test_trinomial_eigenvalue_as_literally_stated():
    alg = FreeAssociativeAlgebra("12")
    q1, q2, q3 = F(1, 4), F(1, 2), F(1, 4)
    spec = trinomial_spec(2, q1, q2, q3)
    (vec,) = build_E_j(alg, 2, 2, F(1, 2), content=(1, 1))
    image = apply_cpp(alg, vec.vector, spec)
    assert image == vec.vector.scale(beta_n(spec) * q2**vec.j)


def test_trinomial_check_rejects_mismatched_q():
    alg = FreeAssociativeAlgebra("12")
    vectors = build_E_j(alg, 2, 2, F(1), content=(1, 1))
    with pytest.raises(ValueError):
        trinomial_eigenvalue_check(alg, vectors, F(1, 4), F(1, 2), F(1, 4))


def test_spectrum_export():
    spec = top_to_random_spec(3)
    alg, deck = distinct_deck(3)
    s = word_class_spectrum(spec, alg, word_content(alg, deck))
    rows = s.to_dicts()
    assert {"partition": [1, 1, 1], "eigenvalue": "1", "multiplicity": 1} in rows
