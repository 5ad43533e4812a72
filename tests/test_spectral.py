import inspect
import itertools
import sys
from fractions import Fraction as F
from math import comb, factorial, prod

import pytest

from hopfchains import acceptance
from hopfchains.chain import build_transition_matrix
from hopfchains.cli import main
from hopfchains.forests import enumerate_trees, forest_algebra, tree_count
from hopfchains.hopf import SpecError, apply_cpp, beta_n, iterated_coproduct
from hopfchains.linalg import (
    RatMatrix,
    annihilation_traces,
    dimensions_from_traces,
    eigenspace_dimensions,
    rank,
    shifted,
    sparse_rows,
)
from hopfchains.presets import (
    biased_spec,
    expand_preset,
    preset_names,
    riffle_spec,
    top_m_unordered_spec,
    top_or_bottom_spec,
    top_to_random_spec,
    trinomial_spec,
)
from hopfchains.shuffle import (
    FreeAssociativeAlgebra,
    ShuffleAlgebra,
    Word,
    deck_from_string,
    distinct_alphabet,
    distinct_deck,
    lyndon_words,
    position_law,
    rearrangement_class,
    relabelling_orbits,
)
from hopfchains.spectral import (
    Spectrum,
    _eigen_equation,
    build_E_j,
    class_multiplicity,
    class_spectrum,
    eigenvalues,
    lincomb_rank,
    pairing_count,
    partitions,
    polynomial_eigenvalue_check,
    primitive_basis,
    trinomial_eigenvalue_check,
    verify_spectrum,
)

from test_forests import _tree_size
from test_hopf import combine, image_of


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


def _compositions(n):
    for cuts in itertools.product((False, True), repeat=n - 1):
        comp, size = [], 1
        for cut in cuts:
            if cut:
                comp.append(size)
                size = 0
            size += 1
        yield tuple(comp + [size])


def _brute_pairing_count(lam, comp):
    # walk every assignment of parts to blocks, one at a time, never
    # letting a block overflow its sum
    def walk(idx, left):
        if idx == len(lam):
            return int(not any(left))
        total = 0
        for b, r in enumerate(left):
            if r >= lam[idx]:
                total += walk(idx + 1, left[:b] + (r - lam[idx],) + left[b + 1 :])
        return total

    return walk(0, tuple(comp))


def test_pairing_count_matches_brute_force():
    for n in range(1, 8):
        for lam in partitions(n):
            for comp in _compositions(n):
                assert pairing_count(lam, comp) == _brute_pairing_count(lam, comp), (lam, comp)
            # empty blocks stay empty
            assert pairing_count(lam, (0, n, 0)) == _brute_pairing_count(lam, (0, n, 0)) == 1


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


def _generators_by_size(table):
    return {size: sum(row.values()) for size, row in table.items()}


def test_generator_counts_one_letter():
    # the one-letter word algebra is polynomial in its single letter
    assert ShuffleAlgebra("a").generator_counts((4,)) == {1: {(1,): 1}}


def test_generator_counts_two_letters_match_necklaces():
    # every content of length <= 5 fits inside (5, 5)
    table = ShuffleAlgebra("ab").generator_counts((5, 5))
    short = {size: count for size, count in _generators_by_size(table).items() if size <= 5}
    assert short == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}
    assert table[4] == {(1, 3): 1, (2, 2): 1, (3, 1): 1}


def test_forest_generator_counts_are_tree_counts():
    falg = forest_algebra()
    table = falg.generator_counts((8,))
    assert table == {s: {(s,): len(enumerate_trees(s))} for s in range(1, 9)}
    assert _generators_by_size(table) == dict(enumerate([1, 1, 2, 4, 9, 20, 48, 115], 1))


def test_class_multiplicity_rejects_size_mismatch():
    with pytest.raises(ValueError):
        class_spectrum(top_to_random_spec(4), forest_algebra(), (3,))


def test_multiplicity_one_letter():
    counts = class_multiplicity(ShuffleAlgebra("a").generator_counts((3,)), (3,))
    assert counts.get((1, 1, 1), 0) == 1
    assert counts.get((2, 1), 0) == 0
    assert counts.get((3,), 0) == 0


def test_multiplicity_totals_two_letters():
    # each content class of ab words, and all of them together: 2^n
    alg = ShuffleAlgebra("ab")
    for n in range(1, 6):
        grand_total = 0
        for i in range(n + 1):
            content = (i, n - i)
            counts = class_multiplicity(alg.generator_counts(content), content)
            total = sum(counts.get(lam, 0) for lam in partitions(n))
            assert total == comb(n, i)
            grand_total += total
        assert grand_total == 2**n


def test_multiplicity_totals_forests():
    falg = forest_algebra()
    for n in (1, 2, 3, 4, 5, 6, 12, 20, 30, 40):
        counts = class_multiplicity(falg.generator_counts((n,)), (n,))
        total = sum(counts.get(lam, 0) for lam in partitions(n))
        # the forests on n vertices number the rooted trees on n + 1
        assert total == (len(falg.basis(n)) if n <= 6 else tree_count(n + 1))


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

    for n in (3, 4, 5, 6, 9, 10):
        content = (1,) * n
        table = ShuffleAlgebra("abcdefghij"[:n]).generator_counts(content)
        counts = class_multiplicity(table, content)
        for lam in partitions(n):
            assert counts.get(lam, 0) == cycle_type_count(lam)


def test_class_multiplicity_repeated_content():
    for content in ((2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4, 4)):
        n = sum(content)
        table = ShuffleAlgebra("abcd"[: len(content)]).generator_counts(content)
        counts = class_multiplicity(table, content)
        got = {lam: counts.get(lam, 0) for lam in partitions(n)}
        if content == (2, 2):  # the aabb class
            assert got == {(4,): 1, (3, 1): 2, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}
        # one word per multiset of Lyndon words: the class has n! / prod c!
        # words, the weakly decreasing one alone factors into letters, and
        # the Lyndon words of the whole content are the one-part multisets
        assert sum(got.values()) == factorial(n) // prod(map(factorial, content))
        assert got[(1,) * n] == 1
        assert got[(n,)] == table[n][content]


def _lyndon_factor_lengths(word) -> tuple:
    """Part lengths, largest first, of the Chen-Fox-Lyndon factorisation of
    a word (Duval's algorithm)."""
    lengths, i = [], 0
    while i < len(word):
        j, k = i + 1, i
        while j < len(word) and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        while i <= k:
            lengths.append(j - k)
            i += j - k
    return tuple(sorted(lengths, reverse=True))


def test_class_multiplicity_counts_lyndon_factorisations():
    # a word is the product of its Lyndon factors in decreasing order, one
    # word per multiset of Lyndon words: the multiplicity of lam on a class
    # counts its words whose factor lengths are lam
    alg = ShuffleAlgebra("abc")
    classes = 0
    for n in range(1, 7):
        profiles: dict = {}
        for word in itertools.product("abc", repeat=n):
            content = tuple(word.count(a) for a in "abc")
            lam = _lyndon_factor_lengths(word)
            by_lam = profiles.setdefault(content, {})
            by_lam[lam] = by_lam.get(lam, 0) + 1
        for content, expected in profiles.items():
            counts = class_multiplicity(alg.generator_counts(content), content)
            assert {lam: counts.get(lam, 0) for lam in partitions(n)} == {
                lam: expected.get(lam, 0) for lam in partitions(n)
            }
            classes += 1
    assert classes == 83


def test_class_multiplicity_counts_forests_by_tree_sizes():
    falg = forest_algebra()
    for n in range(1, 8):
        expected: dict = {}
        for forest in falg.basis(n):
            lam = tuple(sorted(map(_tree_size, forest), reverse=True))
            expected[lam] = expected.get(lam, 0) + 1
        counts = class_multiplicity(falg.generator_counts((n,)), (n,))
        for lam in partitions(n):
            assert counts.get(lam, 0) == expected.get(lam, 0)


def test_class_spectrum_needs_no_deep_recursion():
    # the multiplicities of nine distinct letters were once searched with
    # one stack frame per generator content of a size, past this limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        spectrum = class_spectrum(riffle_spec(9), ShuffleAlgebra("abcdefghi"), (1,) * 9)
    finally:
        sys.setrecursionlimit(limit)
    assert spectrum.total_multiplicity() == factorial(9)


def test_verify_spectrum_top_to_random_distinct_4():
    alg, deck = distinct_deck(4)
    states = rearrangement_class(alg, deck)
    spec = top_to_random_spec(4)
    s = class_spectrum(spec, alg, alg.content(deck))
    assert {v: m for v, m in s.by_eigenvalue().items() if m} == {
        F(1): 1,
        F(1, 2): 6,
        F(1, 4): 8,
        F(0): 9,
    }
    report = verify_spectrum(alg, spec, states, s)
    assert report.ok and report.diagonalizable


def test_verify_spectrum_catches_wrong_multiplicity():
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    spec = top_to_random_spec(3)
    wrong = Spectrum(table=(((1, 1, 1), F(1), 2), ((2, 1), F(1, 3), 2), ((3,), F(0), 2)))
    report = verify_spectrum(alg, spec, states, wrong)
    assert not report.ok

    # one multiplicity of the forest formula spectrum moved by one
    falg = forest_algebra()
    spec = riffle_spec(3)
    K = build_transition_matrix(falg, spec)
    right = class_spectrum(spec, falg, (3,))
    assert verify_spectrum(falg, spec, K.states, right).ok
    (lam, value, mult), *rest = right.table
    wrong = Spectrum(table=((lam, value, mult + 1), *rest))
    report = verify_spectrum(falg, spec, K.states, wrong)
    assert not report.ok
    assert any(claimed != actual for _, claimed, actual in report.entries)

    # a multiplicity moved between two claimed eigenvalues: the support is
    # unchanged, so the trace certificate holds and reports the true dimensions
    truth = sorted(right.by_eigenvalue().items())
    assert truth == [(F(1, 4), 2), (F(1, 2), 1), (F(1), 1)]
    table = [list(row) for row in right.table]
    next(row for row in table if row[1] == F(1, 4) and row[2])[2] -= 1
    next(row for row in table if row[1] == F(1, 2) and row[2])[2] += 1
    report = verify_spectrum(falg, spec, K.states, Spectrum(table=tuple(map(tuple, table))))
    assert not report.ok and report.diagonalizable
    assert report.entries == [(F(1, 4), 1, 2), (F(1, 2), 2, 1), (F(1), 1, 1)]
    assert report.total_claimed == K.size

    # a true eigenvalue claimed with multiplicity 0: the product no longer
    # vanishes, and the rank fallback still shows its true dimension
    dropped = Spectrum(
        table=tuple((lam, v, 0 if v == F(1, 2) else mult) for lam, v, mult in right.table)
    )
    report = verify_spectrum(falg, spec, K.states, dropped)
    assert not report.ok and not report.diagonalizable
    assert report.entries == [(F(1, 4), 2, 2), (F(1, 2), 0, 1), (F(1), 1, 1)]
    assert "annihilation product DOES NOT vanish" in report.lines()


# every preset, with parameters where it needs them
PRESET_PARAMS = {
    "biased": {"q": "1/3"},
    "top-m-ordered": {"m": "2"},
    "top-m-unordered": {"m": "2"},
    "trinomial": {"q1": "1/4", "q2": "1/2", "q3": "1/4"},
}


def test_no_preset_has_a_chain_on_one_card():
    # the group certificate has nothing to certify at n=1: no operator breaks one card
    for name in preset_names():
        with pytest.raises(SpecError):
            expand_preset(name, 1, PRESET_PARAMS.get(name, {}))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_certificate_matches_class_spectrum_and_the_matrix_chain(n, monkeypatch):
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    for name in preset_names():
        params = dict(PRESET_PARAMS.get(name, {}))
        if name.startswith("top-m") and n == 2:
            params["m"] = "1"
        spec = expand_preset(name, n, params)
        spectrum = class_spectrum(spec, alg, alg.content(deck))
        with monkeypatch.context() as m:
            # a distinct deck's class is certified without a dense kernel
            for module in ("chain", "spectral"):
                m.setattr(f"hopfchains.{module}.dense_matrix", None)
            report = verify_spectrum(alg, spec, states, spectrum)
        assert report.ok and report.diagonalizable, (name, report.lines())
        dims = {value: actual for value, _, actual in report.entries}
        assert dims == spectrum.by_eigenvalue(), name
        if n <= 5:  # the matrix chain on 720 states takes seconds per preset
            K = build_transition_matrix(alg, spec, states=states)
            support = [value for value, mult in dims.items() if mult]
            assert eigenspace_dimensions(K.kernel, support) == {v: dims[v] for v in support}, name


def _one_row_dimensions(kernel, lams):
    """Dimensions read from one row's chain, each trace times the state count."""
    traces = annihilation_traces(sparse_rows(kernel), kernel.den, lams, [0])
    return dimensions_from_traces(lams, [kernel.rows * t for t in traces])


def test_one_row_is_wrong_on_aabb_and_one_row_per_orbit_is_right():
    # on aabb the chain's diagonal is not constant: one row's traces times
    # the class size give wrong dimensions (or none) under every grid preset,
    # while the rows of one start per relabelling orbit, each trace times
    # the orbit size, give the dimensions of every row
    cells = [m for m in acceptance._grid_matrices() if m[0] == "deck aabb"]
    assert len(cells) == len(acceptance.grid_presets(4))
    unsolved = 0
    for _, preset, alg, n, states, K in cells:
        starts, weight = relabelling_orbits(alg, states)
        assert (len(starts), weight) == (3, 2)
        claimed = class_spectrum(K.spec, alg, alg.content(states[0])).by_eigenvalue()
        support = sorted(v for v, m in claimed.items() if m)
        dims = eigenspace_dimensions(K.kernel, support)
        assert dims == {v: claimed[v] for v in support}, preset
        traces = annihilation_traces(sparse_rows(K.kernel), K.kernel.den, support, starts)
        assert dimensions_from_traces(support, [weight * t for t in traces]) == dims, preset
        try:
            one_row = _one_row_dimensions(K.kernel, support)
        except ArithmeticError:  # the triangular solve finds no count
            unsolved += 1
            continue
        assert one_row != dims, preset
    assert unsolved < len(cells)


def _letter_relabellings(alg, content):
    """Every permutation of the letters in use that keeps each multiplicity, as a dict."""
    letters = [a for a, m in zip(alg.alphabet, content) if m]
    mult = dict(zip(alg.alphabet, content))
    for image in itertools.permutations(letters):
        if all(mult[a] == mult[b] for a, b in zip(letters, image)):
            yield dict(zip(letters, image))


@pytest.mark.parametrize("deck", ["aabb", "aabbcc", "abcabc"])
def test_relabelling_letters_of_equal_multiplicity_keeps_the_kernel(deck):
    # the chains cut and merge by position only: K(gx, gy) = K(x, y)
    alg, word = deck_from_string(deck)
    states = rearrangement_class(alg, word)
    content = alg.content(word)
    index = {x: i for i, x in enumerate(states)}
    moves = [
        [index[Word(g[a] for a in x)] for x in states]
        for g in _letter_relabellings(alg, content)
    ]
    assert len(moves) == relabelling_orbits(alg, states)[1] > 1
    for preset, spec in acceptance.grid_presets(len(deck)):
        rows = build_transition_matrix(alg, spec, states=states).kernel.entries
        for image in moves:
            assert all(
                rows[image[i]][image[j]] == e for i, row in enumerate(rows) for j, e in enumerate(row)
            ), (deck, preset)


def test_orbit_certificate_builds_no_kernel_on_aabbcc(monkeypatch):
    # every grid preset's position law is small enough for 90 states: the
    # certificate runs from 15 rows read off it and never makes them dense
    alg, word = deck_from_string("aabbcc")
    states = rearrangement_class(alg, word)
    for module in ("chain", "spectral"):
        monkeypatch.setattr(f"hopfchains.{module}.dense_matrix", None)
    for preset, spec in acceptance.grid_presets(6):
        report = verify_spectrum(alg, spec, states, class_spectrum(spec, alg, alg.content(word)))
        assert report.ok and report.diagonalizable, (preset, report.lines())


def test_relabelling_orbits_pick_one_start_per_orbit():
    for n in range(1, 7):
        alg, deck = distinct_deck(n)
        states = rearrangement_class(alg, deck)
        assert relabelling_orbits(alg, states) == ([0], factorial(n))
    for deck, count, weight in [("aabbcc", 15, 6), ("abcabc", 15, 6), ("aabb", 3, 2),
                                ("aabbcd", 45, 4), ("aaabbc", 60, 1)]:
        alg, word = deck_from_string(deck)
        states = rearrangement_class(alg, word)
        starts, w = relabelling_orbits(alg, states)
        assert (len(starts), w) == (count, weight), deck
        # the orbits of the starts cover the class, each state once
        content = alg.content(word)
        reached = [
            Word(g[a] for a in states[i])
            for i in starts
            for g in _letter_relabellings(alg, content)
        ]
        assert sorted(reached) == sorted(states), deck
    # the start of an orbit meets the letters of each multiplicity in alphabet order
    alg, word = deck_from_string("aabbcc")
    states = rearrangement_class(alg, word)
    assert [str(states[i]) for i in relabelling_orbits(alg, states)[0]][:4] == [
        "aabbcc", "aabcbc", "aabccb", "ababcc",
    ]


def test_relabelling_orbits_keep_every_row_off_one_whole_class():
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    every = lambda size: (list(range(size)), 1)
    assert relabelling_orbits(alg, states[:3]) == every(3)
    assert relabelling_orbits(alg, states[:5] + states[:1]) == every(6)
    other = rearrangement_class(alg, Word("112"))
    assert relabelling_orbits(alg, states[:3] + other[:3]) == every(6)
    assert relabelling_orbits(alg, []) == every(0)
    falg = forest_algebra()
    assert relabelling_orbits(falg, list(falg.basis(3))) == every(len(falg.basis(3)))


def test_group_certificate_reports_true_dimensions_on_wrong_claims():
    alg, deck = distinct_deck(4)
    states = rearrangement_class(alg, deck)
    spec = riffle_spec(4)
    right = class_spectrum(spec, alg, alg.content(deck))
    truth = sorted((v, m) for v, m in right.by_eigenvalue().items() if m)
    assert truth == [(F(1, 8), 6), (F(1, 4), 11), (F(1, 2), 6), (F(1), 1)]

    # a multiplicity moved between two claimed eigenvalues: the group
    # product still vanishes and the report shows the true dimensions
    table = [list(row) for row in right.table]
    next(row for row in table if row[1] == F(1, 4) and row[2])[2] -= 1
    next(row for row in table if row[1] == F(1, 2) and row[2])[2] += 1
    report = verify_spectrum(alg, spec, states, Spectrum(table=tuple(map(tuple, table))))
    assert not report.ok and report.diagonalizable
    assert [(v, c, a) for v, c, a in report.entries if c or a] == [
        (F(1, 8), 6, 6), (F(1, 4), 10, 11), (F(1, 2), 7, 6), (F(1), 1, 1),
    ]
    assert "eigenvalue 1/4: claimed 10, matrix 11 [MISMATCH]" in report.lines()

    # a true eigenvalue left out: the group product does not vanish, and the
    # rank fallback on the relabelled kernel still shows its true dimension
    dropped = Spectrum(
        table=tuple((lam, v, 0 if v == F(1, 2) else mult) for lam, v, mult in right.table)
    )
    report = verify_spectrum(alg, spec, states, dropped)
    assert not report.ok and not report.diagonalizable
    assert [(v, c, a) for v, c, a in report.entries if c or a] == [
        (F(1, 8), 6, 6), (F(1, 4), 11, 11), (F(1, 2), 0, 6), (F(1), 1, 1),
    ]
    assert "annihilation product DOES NOT vanish" in report.lines()


def test_group_fallback_forms_the_position_law_once(monkeypatch):
    # with a true eigenvalue left out the rank fallback needs the kernel:
    # it is built from the memoised law the certificate already read
    alg, deck = distinct_deck(4)
    states = rearrangement_class(alg, deck)
    spec = riffle_spec(4)
    right = class_spectrum(spec, alg, alg.content(deck))
    dropped = Spectrum(
        table=tuple((lam, v, 0 if v == F(1, 2) else mult) for lam, v, mult in right.table)
    )
    K = build_transition_matrix(alg, spec, states=states).kernel
    expected = [
        (v, c, len(states) - rank(shifted(K, v))) for v, c in sorted(dropped.by_eigenvalue().items())
    ]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return apply_cpp(*args, **kwargs)

    # spectral no longer binds apply_cpp; setting it anyway counts a call
    # that comes back.  The expected kernel above formed the law already.
    for module in ("shuffle", "chain", "spectral"):
        monkeypatch.setattr(f"hopfchains.{module}.apply_cpp", counted, raising=False)
    position_law.cache_clear()
    report = verify_spectrum(alg, spec, states, dropped)
    assert len(calls) == 1
    assert not report.ok and not report.diagonalizable
    assert report.entries == expected
    assert [(v, c, a) for v, c, a in report.entries if c or a] == [
        (F(1, 8), 6, 6), (F(1, 4), 11, 11), (F(1, 2), 0, 6), (F(1), 1, 1),
    ]


def test_verify_spectrum_rejects_a_non_diagonalisable_kernel(monkeypatch):
    h = F(1, 2)
    kernel = RatMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]], 2)  # h on and above the diagonal
    # a three-state word class (every row its own orbit) reads hand-made
    # rows of a non-diagonalisable kernel
    alg, deck = deck_from_string("aab")
    states = rearrangement_class(alg, deck)
    monkeypatch.setattr("hopfchains.spectral.kernel_rows", lambda *a: (sparse_rows(kernel), kernel.den, None))
    # the right eigenvalues and algebraic multiplicities, but 1/2 has one eigenvector
    claimed = Spectrum(table=(((1,), F(1), 1), ((2,), h, 2)))
    report = verify_spectrum(alg, top_to_random_spec(3), states, claimed)
    assert not report.ok and not report.diagonalizable
    assert report.entries == [(h, 2, 1), (F(1), 1, 1)]
    assert report.lines() == [
        "eigenvalue 1/2: claimed 2, matrix 1 [MISMATCH]",
        "eigenvalue 1: claimed 1, matrix 1 [ok]",
        "multiplicity total 3 vs 3 states [ok]",
        "annihilation product DOES NOT vanish",
    ]


def test_certificate_checks_the_row_sums_of_the_position_law(capsys, monkeypatch):
    # the certificate's rows are read off the position law; a law whose
    # numerators do not sum to its den is refused before any trace
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    spec = riffle_spec(3)
    law, den = position_law(alg, spec)
    monkeypatch.setattr("hopfchains.chain.position_law", lambda *a: (law, den + 1))
    with pytest.raises(ArithmeticError, match="not 1"):
        verify_spectrum(alg, spec, states, class_spectrum(spec, alg, alg.content(deck)))
    assert main(["spectrum", "--distinct", "3", "--preset", "riffle", "--verify-matrix"]) == 1
    assert "verification failure" in capsys.readouterr().err


def test_verify_spectrum_forest_grid_cell():
    falg = forest_algebra()
    spec = trinomial_spec(3, F(1, 4), F(1, 2), F(1, 4))
    s = class_spectrum(spec, falg, (3,))
    assert verify_spectrum(falg, spec, falg.basis(3), s).ok


def test_primitive_basis_degree_one():
    alg = FreeAssociativeAlgebra("ab")
    prims = primitive_basis(alg, 1)
    assert [str(next(iter(p))) for p in prims] == ["a", "b"]


def test_primitive_basis_degree_two_commutator():
    alg = FreeAssociativeAlgebra("ab")
    (p,) = primitive_basis(alg, 2)
    assert p[Word("ab")] == -p[Word("ba")] != 0
    assert Word("aa") not in p and Word("bb") not in p


def test_primitive_dimensions_match_hilbert_exponents():
    alg = FreeAssociativeAlgebra("ab")
    lyndon = lyndon_words("ab", 4)
    for n in range(1, 5):
        assert len(primitive_basis(alg, n)) == len(lyndon[n])


def test_primitive_vectors_killed_by_reduced_coproduct():
    alg = FreeAssociativeAlgebra("ab")
    for n in (2, 3):
        for p in primitive_basis(alg, n):
            delta = iterated_coproduct(alg, p, 2).terms
            inner = {k: c for k, c in delta.items() if 0 < k[0].degree < n}
            assert not inner


def test_build_E_j_smallest_cases():
    alg = FreeAssociativeAlgebra("ab")
    (vec0,) = build_E_j(alg, 2, 0, F(1, 2), content=(1, 1))
    assert vec0.eigenvalue == 0
    assert vec0.vector[Word("ab")] == -vec0.vector[Word("ba")]

    (vec2,) = build_E_j(alg, 2, 2, F(1), content=(1, 1))
    assert vec2.eigenvalue == 1
    v = vec2.vector
    assert v[Word("ab")] == v[Word("ba")] != 0
    image = image_of(alg, v, top_to_random_spec(2))
    assert image == combine((2, v))  # operator value 2 = beta * eigenvalue


def test_build_E_j_forms_the_position_law_once(monkeypatch):
    # every eigen-equation check of one operator reads the memoised law
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return apply_cpp(*args, **kwargs)

    monkeypatch.setattr("hopfchains.shuffle.apply_cpp", counted)
    alg = FreeAssociativeAlgebra("1234")  # a fresh handle: no law is memoised yet
    vectors = [v for j in (0, 1, 2, 4) for v in build_E_j(alg, 4, j, F(1, 2))]
    assert len(vectors) == 4**4 and len(calls) == 1


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
            f = [vec.vector.get(s, 0) for s in states]
            Kf = [
                sum(F(K.kernel.entries[i][k], K.kernel.den) * f[k] for k in range(len(states)))
                for i in range(len(states))
            ]
            assert Kf == [F(j, n) * v for v in f]


def test_polynomial_check_m1_reduces_to_insertion_eigenvalue():
    alg = FreeAssociativeAlgebra("123")
    vectors = []
    for j in (0, 1, 3):
        vectors.extend(build_E_j(alg, 3, j, F(1), content=(1, 1, 1)))
    assert len(vectors) == 6
    assert polynomial_eigenvalue_check(alg, vectors, 1)


def test_polynomial_check_m2():
    alg = FreeAssociativeAlgebra("123")
    vectors = []
    for j in (0, 1, 3):
        vectors.extend(build_E_j(alg, 3, j, F(1), content=(1, 1, 1)))
    assert polynomial_eigenvalue_check(alg, vectors, 2)
    # j < m annihilates, j = n gives 1
    spec = top_m_unordered_spec(3, 2)
    values = {0: F(0), 3: F(1)}
    checked = [vec for vec in vectors if vec.j in values]
    assert {vec.j for vec in checked} == {0, 3}
    for vec in checked:
        assert _eigen_equation(alg, vec.vector, spec, values[vec.j])
        assert not _eigen_equation(alg, vec.vector, spec, 1 - values[vec.j])


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
    assert trinomial_eigenvalue_check(alg, vectors, q1, q2, q3)


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
    image = image_of(alg, vec.vector, spec)
    assert image == combine((beta_n(spec) * q2**vec.j, vec.vector))


def test_trinomial_check_rejects_mismatched_q():
    alg = FreeAssociativeAlgebra("12")
    vectors = build_E_j(alg, 2, 2, F(1), content=(1, 1))
    with pytest.raises(ValueError):
        trinomial_eigenvalue_check(alg, vectors, F(1, 4), F(1, 2), F(1, 4))


def apply_cpp_eigen_equation(alg, vector, spec, value) -> bool:
    """The eigen-equation through one `apply_cpp` call: the oracle that the
    position-law check in `spectral._eigen_equation` must agree with."""
    return image_of(alg, vector, spec) == combine((beta_n(spec) * value, vector))


def _insertion_families():
    """(handle, n, q, vectors) for distinct n <= 4 and decks aab, aabb, at q in {0, 1/3, 1}."""
    spaces = [(distinct_alphabet(n), (1,) * n) for n in (2, 3, 4)]
    spaces += [("ab", (2, 1)), ("ab", (2, 2))]
    for letters, content in spaces:
        alg = FreeAssociativeAlgebra(letters)
        n = sum(content)
        for q in (F(0), F(1, 3), F(1)):
            vectors = []
            for j in list(range(n - 1)) + [n]:
                vectors.extend(build_E_j(alg, n, j, q, content=content))
            yield alg, n, q, vectors


def test_every_insertion_eigenvector_satisfies_the_apply_cpp_oracle():
    for alg, n, q, vectors in _insertion_families():
        assert vectors
        spec = top_or_bottom_spec(n, q)
        for vec in vectors:
            assert apply_cpp_eigen_equation(alg, vec.vector, spec, F(vec.j, n))


def test_position_law_check_rejects_one_changed_coefficient():
    for alg, n, q, vectors in _insertion_families():
        spec = top_or_bottom_spec(n, q)
        for vec in vectors:
            key, c = min(vec.vector.items(), key=lambda kv: str(kv[0]))
            for changed in (c + 1, -c, F(0)):
                wrong = combine((1, vec.vector), (changed - c, {key: 1}))
                if not wrong:
                    continue
                assert not apply_cpp_eigen_equation(alg, wrong, spec, F(vec.j, n))
                assert not _eigen_equation(alg, wrong, spec, F(vec.j, n))


def test_position_law_check_agrees_with_the_oracle_on_other_operators():
    # the polynomial and trinomial checks, true and false values alike
    alg = FreeAssociativeAlgebra("123")
    vectors = []
    for j in (0, 1, 3):
        vectors.extend(build_E_j(alg, 3, j, F(1, 3), content=(1, 1, 1)))
    specs = [top_m_unordered_spec(3, 2), trinomial_spec(3, F(1, 6), F(1, 2), F(1, 3))]
    values = [F(0), F(1, 4), F(1, 2), F(1), F(1, 8)]
    seen = set()
    for spec in specs:
        for vec in vectors:
            for value in values:
                verdict = _eigen_equation(alg, vec.vector, spec, value)
                assert verdict == apply_cpp_eigen_equation(alg, vec.vector, spec, value)
                seen.add(verdict)
    assert seen == {True, False}


def test_position_law_check_needs_a_word_handle_and_the_spec_degree():
    forests = forest_algebra()
    x = {forests.basis(2)[0]: 1}
    with pytest.raises(ValueError, match="not a word algebra"):
        _eigen_equation(forests, x, top_to_random_spec(2), F(1))
    alg = FreeAssociativeAlgebra("ab")
    with pytest.raises(ValueError, match="degree mismatch"):
        _eigen_equation(alg, {Word("ab"): 1}, top_to_random_spec(3), F(1))
    assert _eigen_equation(alg, {}, top_to_random_spec(3), F(1, 3))


def test_spectrum_export():
    spec = top_to_random_spec(3)
    alg, deck = distinct_deck(3)
    s = class_spectrum(spec, alg, alg.content(deck))
    rows = s.to_dicts()
    assert {"partition": [1, 1, 1], "eigenvalue": "1", "multiplicity": 1} in rows
