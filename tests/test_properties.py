"""Property tests over random non-negatively weighted operator specs.

For every drawn spec on a small state space, the formula spectrum must
match the built matrix's eigenspace dimensions, certified by a vanishing
annihilation product and the traces of its partial products; every
stationary law must be fixed by the kernel, `evolve` and `expectations`
from a drawn start law must equal the Fraction loop over the formula
kernel, and on distinct decks the
descent set must lump the chain, and the annihilation chain run from any
one row must give the dimensions it gives from every row.  On decks with
letters of equal multiplicity, the certificate from one row per
letter-relabelling orbit must give them too.  The
relabelled word build must equal the per-row Hopf builder entry by entry,
the operator's one prefix walk must equal the by-arity reference on
rational combinations, and the weighted descent and peak statistics must
equal their sums written out position by position.  Every insertion
eigenvector must satisfy the eigen-equation through `apply_cpp` and equal
the construction that sums over every ordering of its singles.  The
cut-and-drop stepper must follow the reference sampler step for step, in
the state and in the Mersenne Twister state.
The examples are derandomised so the suite is repeatable.
"""

import itertools
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hopfchains.chain import (
    Distribution,
    build_transition_matrix,
    evolve,
    expectations,
    is_stationary,
    lumping_check,
    stationary_distributions,
)
from hopfchains.forests import forest_algebra
from hopfchains.hopf import (
    _add_term,
    normalize_spec,
    product,
    symmetrized_product,
)
from hopfchains.linalg import (
    annihilation_traces,
    dimensions_from_traces,
    eigenspace_dimensions,
    sparse_rows,
)
from hopfchains.presets import top_or_bottom_spec
from hopfchains.shuffle import (
    deck_from_string,
    Word,
    descent_peak_sets,
    distinct_deck,
    FreeAssociativeAlgebra,
    rearrangement_class,
    relabelling_orbits,
    ShuffleAlgebra,
    deck_statistic,
)
from hopfchains.simulate import RngStream, gsr_stepper
from hopfchains.spectral import (
    _higher_primitive_multisets,
    build_E_j,
    class_spectrum,
    verify_spectrum,
)
from test_chain import _fraction_evolve, _fraction_rows, _weights
from test_hopf import by_arity_apply_cpp, image_of
from test_simulate import _reference_gsr_stepper
from test_spectral import apply_cpp_eigen_equation

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _compositions(n):
    """Compositions of n into positive parts."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in _compositions(n - first)]


def _draw_spec(data, n):
    comps = _compositions(n)
    weight = st.fractions(min_value=0, max_value=2, max_denominator=4)
    weights = data.draw(st.lists(weight, min_size=len(comps), max_size=len(comps)))
    # at least one term must break the deck into two or more pieces
    breaking = data.draw(st.sampled_from([i for i, c in enumerate(comps) if len(c) >= 2]))
    weights[breaking] += data.draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4))
    return normalize_spec(n, zip(comps, weights))


def _word_class(deck):
    alg, word = deck_from_string(deck)
    return alg, word.degree, rearrangement_class(alg, word)


def _forests(n):
    alg = forest_algebra()
    return alg, n, list(alg.basis(n))


# forests start at n=2: at n=1 no composition breaks the single vertex
SPACES = {
    "abc": lambda: _word_class("abc"),
    "aab": lambda: _word_class("aab"),
    "aabb": lambda: _word_class("aabb"),
    "forests n=2": lambda: _forests(2),
    "forests n=3": lambda: _forests(3),
    "forests n=4": lambda: _forests(4),
}


@pytest.mark.parametrize("space", sorted(SPACES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_formula_spectrum_and_stationary_laws_on_random_specs(space, data):
    alg, n, states = SPACES[space]()
    spec = _draw_spec(data, n)
    K = build_transition_matrix(alg, spec, states=states)
    report = verify_spectrum(alg, spec, states, class_spectrum(spec, alg, alg.content(states[0])))
    assert report.ok, report.lines()
    pis = stationary_distributions(alg, n, states=states)
    assert pis
    for pi in pis:
        assert is_stationary(K, pi)


@pytest.mark.parametrize("space", sorted(SPACES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_evolve_and_expectations_match_the_fraction_loop_on_random_specs(space, data):
    # a drawn start law with its own denominator, and a drawn rational statistic
    alg, n, states = SPACES[space]()
    spec = _draw_spec(data, n)
    K = build_transition_matrix(alg, spec, states=states)
    size = len(states)
    nums = data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size).filter(any))
    start = Distribution(states, nums, sum(nums))
    value = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    values = dict(zip(states, data.draw(st.lists(value, min_size=size, max_size=size))))
    rows = _fraction_rows(alg, spec, states)
    reference = [_fraction_evolve(rows, _weights(start), t) for t in range(4)]
    assert [_weights(evolve(K, start, t)) for t in range(4)] == reference
    assert expectations(K, start, 3, values.__getitem__) == [
        sum((w * values[x] for x, w in zip(states, ws)), F(0)) for ws in reference
    ]


@pytest.mark.parametrize("n", [3, 4])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_descent_set_lumps_on_random_specs(n, data):
    # every single composition lumps by descent set, so every weighted sum does
    alg, deck = distinct_deck(n)
    K = build_transition_matrix(alg, _draw_spec(data, n), states=rearrangement_class(alg, deck))
    res = lumping_check(K, lambda w: tuple(sorted(descent_peak_sets(w, alg.alphabet).descents)))
    assert res.ok, res.witness
    assert res.quotient.size <= 2 ** (n - 1)
    for label in res.quotient.states:
        assert sum(res.quotient.row_of(label).values()) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_one_row_chain_certifies_distinct_decks_on_random_specs(n, data):
    # a distinct deck's kernel is the right-regular representation of its
    # position law: every row of a polynomial in it carries the same diagonal
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    spec = _draw_spec(data, n)
    kernel = build_transition_matrix(alg, spec, states=states).kernel
    claimed = class_spectrum(spec, alg, alg.content(deck)).by_eigenvalue()
    support = sorted(v for v, m in claimed.items() if m)
    start = data.draw(st.integers(0, len(states) - 1))
    traces = annihilation_traces(sparse_rows(kernel), kernel.den, support, [start])
    one_row = dimensions_from_traces(support, [len(states) * t for t in traces])
    assert one_row == eigenspace_dimensions(kernel, support) == {v: claimed[v] for v in support}


# deck -> examples; each deck has letters of equal multiplicity
ORBIT_DECKS = {"aabb": 20, "aabbc": 10, "abcabc": 3}


@pytest.mark.parametrize("deck", sorted(ORBIT_DECKS))
def test_orbit_certificate_matches_every_row_on_random_specs(deck):
    # relabelling letters of equal multiplicity commutes with the chain, so
    # one row per orbit, each trace times the orbit size, certifies the class
    alg, word = deck_from_string(deck)
    states = rearrangement_class(alg, word)
    assert relabelling_orbits(alg, states)[1] > 1

    @settings(PROPERTY_SETTINGS, max_examples=ORBIT_DECKS[deck])
    @given(data=st.data())
    def check(data):
        spec = _draw_spec(data, word.degree)
        spectrum = class_spectrum(spec, alg, alg.content(word))
        report = verify_spectrum(alg, spec, states, spectrum)
        assert report.ok and report.diagonalizable
        kernel = build_transition_matrix(alg, spec, states=states).kernel
        support = sorted(v for v, m in spectrum.by_eigenvalue().items() if m)
        orbit_dims = {v: d for v, claimed, d in report.entries if claimed}
        assert orbit_dims == eigenspace_dimensions(kernel, support)

    check()


# deck -> examples: the per-row builder applies the operator to all n! states
RELABEL_DECKS = {"12": 10, "123": 20, "1234": 20, "12345": 3, "abcab": 6}


@pytest.mark.parametrize("deck", sorted(RELABEL_DECKS))
def test_relabelled_build_matches_the_per_row_builder_on_random_specs(deck, monkeypatch):
    alg, word = deck_from_string(deck)
    states = rearrangement_class(alg, word)

    @settings(PROPERTY_SETTINGS, max_examples=RELABEL_DECKS[deck])
    @given(data=st.data())
    def check(data):
        spec = _draw_spec(data, word.degree)
        K = build_transition_matrix(alg, spec, states=states)
        with monkeypatch.context() as m:  # one apply_cpp call per state
            m.setattr("hopfchains.chain.relabels", lambda *a: False)
            assert K.kernel == build_transition_matrix(alg, spec, states=states).kernel

    check()


WALK_ALGEBRAS = {
    "shuffle": ShuffleAlgebra("ab"),
    "free-assoc": FreeAssociativeAlgebra("ab"),
    "forests": forest_algebra(),
}


def _weak_composition(data, n):
    """A composition of n with zero parts inserted anywhere."""
    comp = list(data.draw(st.sampled_from(_compositions(n))))
    for _ in range(data.draw(st.integers(0, 2))):
        comp.insert(data.draw(st.integers(0, len(comp))), 0)
    return tuple(comp)


@pytest.mark.parametrize("name", sorted(WALK_ALGEBRAS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_prefix_walk_matches_the_by_arity_reference(name, data):
    alg = WALK_ALGEBRAS[name]
    n = data.draw(st.integers(2, 5))
    weight = st.fractions(min_value=0, max_value=3, max_denominator=6)
    weights = data.draw(st.lists(weight, max_size=6))
    # mixed arities, zero parts, and a composition may repeat
    terms = [(_weak_composition(data, n), w) for w in weights]
    breaking = data.draw(st.sampled_from([c for c in _compositions(n) if len(c) >= 2]))
    terms.append((breaking, data.draw(st.fractions(min_value=F(1, 5), max_value=2))))
    terms.extend(data.draw(st.lists(st.sampled_from(terms), max_size=2)))
    spec = normalize_spec(n, terms)
    keys = data.draw(st.lists(st.sampled_from(alg.basis(n)), min_size=1, max_size=4, unique=True))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    x = {k: c for k, c in ((k, data.draw(coeff)) for k in keys) if c}
    assert image_of(alg, x, spec) == by_arity_apply_cpp(alg, x, spec)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cut_and_drop_stepper_makes_the_reference_draws_on_random_specs(data):
    n = data.draw(st.integers(2, 6))
    spec = _draw_spec(data, n)
    deck = Word(data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n)))
    seed = data.draw(st.integers(-(2**40), 2**40))
    stepper, reference = gsr_stepper(spec), _reference_gsr_stepper(spec)
    rng_a, rng_b = RngStream(seed, 1), RngStream(seed, 1)
    a = b = deck
    for _ in range(10):
        a, b = stepper(a, rng_a), reference(b, rng_b)
        assert a == b
        assert rng_a._rng.getstate() == rng_b._rng.getstate()


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(
    letters=st.integers(2, 9).flatmap(
        lambda n: st.lists(st.sampled_from("abcd"), min_size=n, max_size=n)
    ),
    q=st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=12)),
)
def test_weighted_statistics_equal_the_per_position_sums(letters, q):
    n = len(letters)
    v = ["abcd".index(a) for a in letters]
    descents = sum(
        (
            comb(n - 2, i - 1) * q ** (i - 1) * (1 - q) ** (n - 1 - i)
            for i in range(1, n)
            if v[i - 1] > v[i]
        ),
        F(0),
    )
    peaks = sum(
        (
            comb(n - 3, i - 1) * q ** (i - 1) * (1 - q) ** (n - 2 - i)
            for i in range(1, n - 1)
            if v[i - 1] < v[i] > v[i + 1]
        ),
        F(0),
    )
    word = Word(letters)
    for q_arg in (q, str(q)):
        assert deck_statistic("weighted-descents", "abcd", n, q_arg)(word) == descents
        assert deck_statistic("weighted-peaks", "abcd", n, q_arg)(word) == peaks


def _sigma_loop_vectors(alg, n, j, q, content):
    """The insertion eigenvectors summed over every ordering sigma of the
    singles and every cut point i, as `build_E_j` once built them."""
    higher = list(_higher_primitive_multisets(alg, n - j))
    results = []
    for c_multiset in itertools.combinations_with_replacement(alg.basis(1), j):
        for p_multiset in higher:
            if content is not None:
                # a primitive is content-homogeneous: any key of its support gives its content
                keys = c_multiset + tuple(next(iter(p)) for p in p_multiset)
                if tuple(map(sum, zip(*map(alg.content, keys)))) != tuple(content):
                    continue
            middle = symmetrized_product(alg, p_multiset)
            vector: dict = {}
            for i in range(j + 1):
                coeff = comb(j, i) * q**i * (1 - q) ** (j - i)
                if not coeff:
                    continue
                for sigma in itertools.permutations(range(j)):
                    term = {alg.unit_key(): 1}
                    for s in sigma[:i]:
                        term = product(alg, term, {c_multiset[s]: 1})
                    term = product(alg, term, middle)
                    for s in sigma[i:]:
                        term = product(alg, term, {c_multiset[s]: 1})
                    for k, c in term.items():
                        _add_term(vector, k, coeff * c)
            results.append(vector)
    return results


@pytest.mark.parametrize("deck", ["abc", "aab", "aabb", "abcd"])
@settings(PROPERTY_SETTINGS, max_examples=20)
@given(q=st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=6)))
def test_insertion_eigenvectors_match_the_sigma_loop_and_the_oracle(deck, q):
    alg = FreeAssociativeAlgebra(sorted(set(deck)))
    n = len(deck)
    content = alg.content(Word(deck))
    spec = top_or_bottom_spec(n, q)
    for j in list(range(n - 1)) + [n]:
        vectors = build_E_j(alg, n, j, q, content=content)
        assert [v.vector for v in vectors] == _sigma_loop_vectors(alg, n, j, q, content)
        for vec in vectors:
            assert apply_cpp_eigen_equation(alg, vec.vector, spec, F(j, n))
