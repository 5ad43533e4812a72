from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import comb

import pytest

from hopfchains.presets import riffle_spec
from hopfchains.shuffle import (
    FreeAssociativeAlgebra,
    ShuffleAlgebra,
    Word,
    concat_product,
    deck_from_string,
    deck_statistic,
    deconcat_coproduct,
    descent_peak_sets,
    deshuffle_coproduct,
    distinct_alphabet,
    distinct_deck,
    lyndon_words,
    position_law,
    rearrangement_class,
    shuffle_product,
    weighted_descent_stat,
)


def w(s):
    return Word(s)


def all_words(alphabet, n):
    return ShuffleAlgebra(alphabet).basis(n)


def test_word_is_the_tuple_of_its_letters():
    assert w("ab") == ("a", "b") and hash(w("ab")) == hash(("a", "b"))
    assert str(w("ab")) == "ab" and repr(w("ab")) == "Word('ab')"
    assert w("abc").degree == 3 and w("").degree == 0 and str(w("")) == ""
    # the position law's keys are words of positions
    assert repr(w(range(3))) == "Word('012')"
    # a tensor key of two one-letter words is not the two-letter word
    keys = {(w("a"), w("b")): 1, w("ab"): 2}
    assert len(keys) == 2 and keys[("a", "b")] == 2


def test_structure_maps_return_words_in_every_leg():
    # slicing or adding words gives plain tuples; every key must be rewrapped
    for alg in (ShuffleAlgebra("ab"), FreeAssociativeAlgebra("ab")):
        for i in range(5):
            for x in alg.basis(i):
                for u, v in alg.coproduct_basis(x):
                    assert type(u) is Word and type(v) is Word
                for j in range(5 - i):
                    for y in alg.basis(j):
                        assert all(type(k) is Word for k in alg.product_basis(x, y))


def test_shuffle_product_examples():
    got = shuffle_product(w("ac"), w("cb"))
    assert got.get(w("accb"), 0) == 2
    assert got.get(w("acbc"), 0) == 1
    assert sum(got.values()) == comb(4, 2)

    assert shuffle_product(w("ab"), w("")) == {w("ab"): 1}
    assert shuffle_product(w("a"), w("a")) == {w("aa"): 2}


def test_shuffle_coefficient_sum_is_binomial():
    for left in ["a", "ab", "ba", "aab"]:
        for right in ["b", "ab", "bb"]:
            got = shuffle_product(w(left), w(right))
            total = sum(c for _, c in got.items())
            assert total == comb(len(left) + len(right), len(left))


def test_shuffle_commutative():
    for left, right in [("ab", "ba"), ("a", "bb"), ("aab", "ab")]:
        assert shuffle_product(w(left), w(right)) == shuffle_product(w(right), w(left))


def test_deconcat_examples():
    got = deconcat_coproduct(w("accb"))
    assert got.get((w("ac"), w("cb")), 0) == 1
    assert len(got) == 5
    assert deconcat_coproduct(w("")) == {(w(""), w("")): 1}
    got1 = deconcat_coproduct(w("a"))
    assert got1 == {(w(""), w("a")): 1, (w("a"), w("")): 1}


def test_concat_product():
    assert concat_product(w("ab"), w("c")) == {w("abc"): 1}
    assert concat_product(w(""), w("ab")) == {w("ab"): 1}
    assert concat_product(w("a"), w("b")) != concat_product(w("b"), w("a"))


def test_deshuffle_examples():
    got = deshuffle_coproduct(w("ab"))
    expect = {
        (w(""), w("ab")): 1,
        (w("a"), w("b")): 1,
        (w("b"), w("a")): 1,
        (w("ab"), w("")): 1,
    }
    assert got == expect

    got = deshuffle_coproduct(w("aa"))
    assert got.get((w("a"), w("a")), 0) == 2
    assert got.get((w(""), w("aa")), 0) == 1


def test_deshuffle_cocommutative():
    for word in ["ab", "aab", "abc"]:
        got = deshuffle_coproduct(w(word))
        flipped = {(b, a): c for (a, b), c in got.items()}
        assert got == flipped


def test_duality_shuffle_vs_deshuffle():
    # coefficient of x in w*z equals coefficient of (w, z) in the subset split of x
    for total in range(1, 6):
        for x in all_words("ab", total):
            split = deshuffle_coproduct(x)
            for i in range(total + 1):
                for left in all_words("ab", i):
                    for right in all_words("ab", total - i):
                        lhs = shuffle_product(left, right).get(x, 0)
                        rhs = split.get((left, right), 0)
                        assert lhs == rhs


def test_duality_concat_vs_deconcat():
    for total in range(1, 6):
        for x in all_words("ab", total):
            split = deconcat_coproduct(x)
            for i in range(total + 1):
                for left in all_words("ab", i):
                    for right in all_words("ab", total - i):
                        lhs = concat_product(left, right).get(x, 0)
                        rhs = split.get((left, right), 0)
                        assert lhs == rhs


def test_free_associative_is_cocommutative_flagged():
    assert FreeAssociativeAlgebra("ab").cocommutative
    assert ShuffleAlgebra("ab").commutative


def test_descent_peak_sets():
    order = "abcd"
    assert descent_peak_sets(w("abcd"), order) == descent_peak_sets(w("abcd"), order)
    stats = descent_peak_sets(w("abcd"), order)
    assert stats.descents == frozenset() and stats.peaks == frozenset()

    stats = descent_peak_sets(w("dcba"), order)
    assert stats.descents == frozenset({1, 2, 3})
    assert stats.peaks == frozenset()

    stats = descent_peak_sets(w("acb"), order)
    assert stats.descents == frozenset({2})
    assert stats.peaks == frozenset({1})


def test_repeated_letters_no_false_descents():
    stats = descent_peak_sets(w("aabb"), "ab")
    assert stats.descents == frozenset()


def test_weighted_stats():
    order = "abcd"
    assert deck_statistic("weighted-descents", order, 4, F(1, 2))(w("abcd")) == 0
    assert deck_statistic("weighted-peaks", order, 4, F(1, 2))(w("abcd")) == 0

    # n=3, descent at position 2 only
    assert deck_statistic("weighted-descents", "abc", 3, F(1, 2))(w("bca")) == F(1, 2)

    # q=1 keeps only the bottom descent position
    bottom = deck_statistic("weighted-descents", order, 4, F(1))
    assert bottom(w("abdc")) == 1
    assert bottom(w("bacd")) == 0
    # the one-deck form reads the same weights
    assert weighted_descent_stat(w("abdc"), F(1), order) == 1
    assert weighted_descent_stat(w("bacd"), F(1), order) == 0


def test_deck_statistic_matches_the_set_definitions():
    # every word of 0..5 letters over "abc", repeated letters included
    for n in range(6):
        stats = {name: deck_statistic(name, "abc", n, F(1, 3))
                 for name in ("descents", "peaks", "weighted-descents", "weighted-peaks")}
        for word in all_words("abc", n):
            sets = descent_peak_sets(word, "abc")
            values = {name: fn(word) for name, fn in stats.items()}
            assert all(type(v) is F for v in values.values())
            assert values["descents"] == len(sets.descents)
            assert values["peaks"] == len(sets.peaks)
            q = F(1, 3)
            assert values["weighted-descents"] == sum(
                (comb(n - 2, i - 1) * q ** (i - 1) * (1 - q) ** (n - 1 - i) for i in sets.descents),
                F(0),
            )
            assert values["weighted-peaks"] == sum(
                (comb(n - 3, i - 1) * q ** (i - 1) * (1 - q) ** (n - 2 - i) for i in sets.peaks),
                F(0),
            )
    with pytest.raises(ValueError, match="3-card decks got a deck of 4"):
        deck_statistic("descents", "abc", 3)(w("abca"))
    with pytest.raises(ValueError, match="unknown deck statistic"):
        deck_statistic("ascents", "abc", 3)


def test_distinct_deck_and_classes():
    alg, deck = distinct_deck(3)
    assert str(deck) == "123"
    states = rearrangement_class(alg, deck)
    assert [str(s) for s in states] == ["123", "132", "213", "231", "312", "321"]

    alg2, deck2 = deck_from_string("aab")
    states2 = rearrangement_class(alg2, deck2)
    assert [str(s) for s in states2] == ["aab", "aba", "baa"]
    assert alg2.content(deck2) == (2, 1)


def test_rearrangement_class_matches_set_and_sort():
    # independent oracle: every permutation into a set, sorted by letter ranks
    def oracle(alg, deck):
        seen = {Word(p) for p in permutations(deck)}
        return sorted(seen, key=lambda v: tuple(alg.rank[a] for a in v))

    for alg in (ShuffleAlgebra("abc"), ShuffleAlgebra("cab")):
        expected = {}
        for n in range(1, 7):
            for letters in product("abc", repeat=n):
                deck = Word(letters)
                key = tuple(sorted(letters))
                if key not in expected:
                    expected[key] = oracle(alg, deck)
                assert rearrangement_class(alg, deck) == expected[key]


def test_lyndon_word_counts_match_necklace_formula():
    # independent oracle: (1/n) sum over d | n of mobius(d) k^(n/d)
    def mobius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result

    for k, alphabet in [(2, "ab"), (3, "abc")]:
        found = lyndon_words(alphabet, 6)
        for n in range(1, 7):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            expected = sum(mobius(d) * k ** (n // d) for d in divisors) // n
            assert len(found[n]) == expected


def test_lyndon_words_are_smallest_rotations():
    found = lyndon_words("ab", 5)
    for n, words in found.items():
        for word in words:
            rotations = {word[i:] + word[:i] for i in range(n)}
            assert min(rotations) == word
            assert len(rotations) == n  # aperiodic


def test_generator_counts_match_lyndon_words_on_every_content():
    # the fixed-content necklace formula against Duval's enumeration
    for alphabet in ("ab", "abc", "abcd"):
        alg = ShuffleAlgebra(alphabet)
        found = lyndon_words(alphabet, 6)
        for n in range(1, 7):
            for content in product(range(n + 1), repeat=len(alphabet)):
                if sum(content) != n:
                    continue
                expected = {}
                for size, words in found.items():
                    for word in words:
                        v = alg.content(Word(word))
                        if all(a <= b for a, b in zip(v, content)):
                            row = expected.setdefault(size, {})
                            row[v] = row.get(v, 0) + 1
                assert alg.generator_counts(content) == expected


@pytest.mark.parametrize("a", [2, 3, 4])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_riffle_position_law_is_the_bayer_diaconis_formula(n, a):
    # Bayer-Diaconis, "Trailing the dovetail shuffle to its lair" (1992): one
    # a-shuffle gives sigma the probability C(a + n - r, n) / a^n, where r is
    # 1 plus the number of k with card k+1 left of card k in sigma
    law, den = position_law(ShuffleAlgebra(distinct_alphabet(n)), riffle_spec(n, a))
    expected = {}
    for sigma in permutations(range(n)):
        where = {card: i for i, card in enumerate(sigma)}
        r = 1 + sum(where[k + 1] < where[k] for k in range(n - 1))
        if comb(a + n - r, n):
            expected[sigma] = F(comb(a + n - r, n), a**n)
    assert {tuple(sigma): F(c, den) for sigma, c in law} == expected
