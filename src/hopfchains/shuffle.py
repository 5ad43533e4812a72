"""Words as decks of cards: the shuffle algebra and its concatenation dual.

The shuffle algebra has all words over a fixed alphabet as its basis; the
product of two words is the sum of all their interleavings (with
multiplicity) and the coproduct is the sum of all prefix/suffix splits.
Its graded dual is the free associative algebra on the same letters:
product is concatenation, coproduct sends a word to the sum over all
position subsets of (restriction, complement).

A word is the plain tuple of its letters (`Word` subclasses `tuple` and
adds only `degree` and its printed forms), so it equals and hashes as
that tuple; no dict here mixes words with other tuples of letters.

Also here: deck statistics.  A descent is a position where a card sits on
a card of smaller value; a peak is a position whose card exceeds both
neighbours (indexed by the predecessor of the middle card, so peak
positions range over 1..n-2).  The binomially weighted forms of these
statistics have closed-form expectations under top-or-bottom insertion
shuffles, which the acceptance suite exercises.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as cartesian
from math import comb, factorial, gcd, prod
from operator import itemgetter
from typing import Callable, NamedTuple

from .hopf import AlgebraHandle, CppSpec, _add_term, apply_cpp, beta_n, multinomial
from .linalg import rat


class Word(tuple):
    """An immutable sequence of card labels; degree = number of cards.

    A word equals, and hashes as, the plain tuple of its letters.  Slicing
    or adding words gives plain tuples, so every structure map wraps its
    keys in `Word(...)`; no dict in this package mixes words with other
    tuples of letters as keys.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self)

    def __str__(self) -> str:
        return "".join(map(str, self))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def shuffle_product(w: Word, z: Word) -> dict:
    """Sum of all interleavings of w and z, counted with multiplicity."""
    total = len(w) + len(z)
    out: dict = {}
    for positions in combinations(range(total), len(w)):
        merged = [None] * total
        for p, letter in zip(positions, w):
            merged[p] = letter
        it = iter(z)
        for i in range(total):
            if merged[i] is None:
                merged[i] = next(it)
        _add_term(out, Word(merged), 1)
    return out


def deconcat_coproduct(w: Word) -> dict:
    """Sum of all prefix (x) suffix splits, each with coefficient 1."""
    return {(Word(w[:i]), Word(w[i:])): 1 for i in range(len(w) + 1)}


def concat_product(w: Word, z: Word) -> dict:
    """Concatenation; a single word with coefficient 1."""
    return {Word(w + z): 1}


def deshuffle_coproduct(w: Word) -> dict:
    """Sum over position subsets S of (w restricted to S) (x) (rest)."""
    n = len(w)
    out: dict = {}
    for size in range(n + 1):
        for chosen in combinations(range(n), size):
            chosen_set = set(chosen)
            left = Word(w[i] for i in chosen)
            right = Word(w[i] for i in range(n) if i not in chosen_set)
            _add_term(out, (left, right), 1)
    return out


def _mobius(n: int) -> int:
    """The Moebius function: 0 unless n is squarefree, else (-1)^(prime factors)."""
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


class WordAlgebra(AlgebraHandle):
    """Words over a fixed ordered alphabet; subclasses pick the structure maps.

    The structure maps are looked up as module functions on every call, so
    wrapping them (for tracing, say) reaches every algebra instance.
    """

    kind = "words"

    def __init__(self, alphabet):
        super().__init__()
        letters = tuple(alphabet)
        if len(set(letters)) != len(letters):
            raise ValueError(f"alphabet has repeated labels: {letters}")
        if not letters:
            raise ValueError("alphabet must be nonempty")
        self.alphabet = letters
        self.rank = {a: i for i, a in enumerate(letters)}
        self.name = f"{self.kind}[{''.join(letters)}]"
        self._basis_cache: dict = {}

    def basis(self, n: int) -> list:
        cached = self._basis_cache.get(n)
        if cached is None:
            cached = [Word(t) for t in cartesian(self.alphabet, repeat=n)]
            self._basis_cache[n] = cached
        return cached

    def content(self, key: Word) -> tuple[int, ...]:
        """Letter multiplicities of a word, aligned with the alphabet order."""
        counts = [0] * len(self.alphabet)
        for letter in key:
            counts[self.rank[letter]] += 1
        return tuple(counts)

    def generator_counts(self, content) -> dict:
        """Lyndon words of each content v <= `content`, by length.

        The Lyndon words of content v number

            (1/|v|) sum_{d | gcd(v)} mu(d) multinomial(|v|/d; v/d),

        the fixed-content necklace formula, so the work is bounded by the
        prod (c_i + 1) sub-contents, not by the k^n/n Lyndon words of the
        whole alphabet.
        """
        table: dict = {}
        for v in cartesian(*(range(c + 1) for c in content)):
            size = sum(v)
            if not size:
                continue
            g = gcd(*v)
            count = sum(
                _mobius(d) * multinomial(size // d, [c // d for c in v])
                for d in range(1, g + 1)
                if g % d == 0
            ) // size
            if count:
                table.setdefault(size, {})[v] = count
        return table


class ShuffleAlgebra(WordAlgebra):
    """Words with interleaving product and deconcatenation coproduct."""

    kind = "shuffle"
    commutative = True
    cocommutative = False

    def product_basis(self, x: Word, y: Word) -> dict:
        return shuffle_product(x, y)

    def coproduct_basis(self, x: Word) -> dict:
        return deconcat_coproduct(x)

    def eta(self, key: Word) -> int:
        """1: deconcatenation peels a word one letter at a time only from its end."""
        return 1


class FreeAssociativeAlgebra(WordAlgebra):
    """Words with concatenation product and subset-split coproduct.

    This is the graded dual of the shuffle algebra on the same letters;
    it is cocommutative, which is what the insertion-shuffle eigenvector
    construction needs.
    """

    kind = "free-assoc"
    commutative = False
    cocommutative = True

    def product_basis(self, x: Word, y: Word) -> dict:
        return concat_product(x, y)

    def coproduct_basis(self, x: Word) -> dict:
        return deshuffle_coproduct(x)

    def eta(self, key: Word) -> int:
        """n! ways to peel a word of n letters one position at a time."""
        return factorial(len(key))


# ---------------------------------------------------------------------------
# the position law


@lru_cache(maxsize=16)
def position_law(alg: WordAlgebra, spec: CppSpec) -> tuple[tuple, int]:
    """The chain's law on position permutations, from one `apply_cpp` call
    per (handle, spec): kernel builds, certificates and eigen checks share it.

    Both word algebras cut and merge by position and never read a card
    label, so relabelling letters is a Hopf morphism and eta is the same
    on every word of a degree.  The operator's image of the distinct word
    0 1 ... n-1 then has as keys the permutations sigma themselves (each
    sends card sigma[i] of the old deck to position i), and every word
    chain steps from x to x.sigma, (x.sigma)[i] = x[sigma[i]], with
    probability Q(sigma) = coefficient / beta_n.

    Returns ((sigma, numerator) pairs, den) with Q(sigma) = numerator / den
    over the least common denominator: the image's numerators over beta_n
    times its den, divided by their gcd.  The numerators sum to den.
    """
    beta = beta_n(spec)
    image, den = apply_cpp(alg, {Word(range(spec.n)): 1}, spec)
    den = beta.numerator * (den // beta.denominator)
    g = gcd(den, *image.values())
    return tuple((sigma, c // g) for sigma, c in image.items()), den // g


def position_moves(law: tuple) -> list:
    """(move, numerator) per (sigma, numerator) of a position law, in order:
    the move sends a word x to the plain tuple of x.sigma, (x.sigma)[i] = x[sigma[i]]."""
    # itemgetter of one index returns the letter, not a tuple
    return [(itemgetter(*sigma) if len(sigma) > 1 else tuple, c) for sigma, c in law]


def relabelling_orbits(alg: AlgebraHandle, states: list) -> tuple[list, int]:
    """(starts, weight): one state index per orbit of the letter relabellings
    that fix the states' content, and the size of every orbit.

    The chains never read a card label, so a permutation g of the letters
    of equal multiplicity has K(gx, gy) = K(x, y), and so has every
    polynomial in K: P[gx][gx] = P[x][x], and row gx of P is row x with
    its columns permuted.  On one whole rearrangement class every letter
    occurs in every word, so no such g but the identity fixes a word, and
    each orbit has weight = prod_m k_m! members, k_m the letters of
    multiplicity m.  The start of an orbit is its word in which the
    letters of each multiplicity first occur in alphabet order.  Any other
    list (forests, part of a class, several classes) gives every index
    with weight 1.
    """
    every = (list(range(len(states))), 1)
    if not isinstance(alg, WordAlgebra) or not states:
        return every
    content = alg.content(states[0])
    if len(states) != multinomial(sum(content), content) or len(set(states)) != len(states):
        return every
    if any(alg.content(x) != content for x in states):
        return every
    mult = {a: m for a, m in zip(alg.alphabet, content) if m}
    rank = alg.rank
    starts = []
    for i, x in enumerate(states):
        last: dict = {}  # multiplicity -> rank of its last letter met
        for a in dict.fromkeys(x):
            if last.get(mult[a], -1) > rank[a]:
                break
            last[mult[a]] = rank[a]
        else:
            starts.append(i)
    return starts, prod(map(factorial, Counter(mult.values()).values()))


# ---------------------------------------------------------------------------
# deck construction helpers


def distinct_alphabet(n: int) -> str:
    """The card labels 1 < 2 < ... < n of a distinct deck."""
    if not 1 <= n <= 9:
        raise ValueError("distinct decks supported for 1 <= n <= 9")
    return "123456789"[:n]


def distinct_deck(n: int) -> tuple[ShuffleAlgebra, Word]:
    """Alphabet 1 < 2 < ... < n with the ascending deck as start state."""
    alg = ShuffleAlgebra(distinct_alphabet(n))
    return alg, Word(alg.alphabet)


def deck_from_string(deck: str) -> tuple[ShuffleAlgebra, Word]:
    """Algebra on the deck's letters (sorted lexicographically) plus the deck."""
    if not deck:
        raise ValueError("deck must be nonempty")
    alg = ShuffleAlgebra(sorted(set(deck)))
    return alg, Word(deck)


def rearrangement_class(alg: WordAlgebra, word: Word) -> list[Word]:
    """All words with the same letter multiset, in canonical order.

    Shuffling never changes which cards are in the deck, so this class is
    closed under every breaking-size operator and is the natural state
    space for a chain started at `word`.  The words are generated directly
    in increasing order of their letter ranks (next permutation of a
    multiset), so a class of size m costs O(m n) whatever the repeats.
    """
    letters = alg.alphabet
    ranks = sorted(alg.rank[a] for a in word)
    n = len(ranks)
    out = []
    while True:
        out.append(Word(letters[r] for r in ranks))
        i = n - 2
        while i >= 0 and ranks[i] >= ranks[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while ranks[j] <= ranks[i]:
            j -= 1
        ranks[i], ranks[j] = ranks[j], ranks[i]
        ranks[i + 1 :] = reversed(ranks[i + 1 :])


def lyndon_words(alphabet, max_len: int) -> dict[int, list[tuple[str, ...]]]:
    """Lyndon words over an ordered alphabet, grouped by length.

    A word is Lyndon when it is strictly smaller than each of its proper
    suffixes under the alphabet order.  Lengths run from 1 to max_len.
    Duval's generator visits exactly the Lyndon words, in increasing
    order: bump the last letter, emit, repeat the word periodically up to
    max_len, then drop trailing maximal letters.
    """
    letters = tuple(alphabet)
    top = len(letters) - 1
    result: dict[int, list[tuple[str, ...]]] = {n: [] for n in range(1, max_len + 1)}
    w = [-1] if letters and max_len >= 1 else []
    while w:
        w[-1] += 1
        m = len(w)
        result[m].append(tuple(letters[i] for i in w))
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == top:
            w.pop()
    return result


# ---------------------------------------------------------------------------
# deck statistics


class DeckStatistics(NamedTuple):
    """Descent and peak position sets of a deck."""

    descents: frozenset
    peaks: frozenset


@lru_cache(maxsize=64)
def _ranks(alphabet) -> dict:
    """Each letter's position in the alphabet order."""
    return {a: i for i, a in enumerate(alphabet)}


def descent_peak_sets(word: Word, alphabet) -> DeckStatistics:
    """Descents in 1..n-1 and peaks in 1..n-2 (peak i = middle card at i+1)."""
    rank = _ranks(tuple(alphabet))
    vals = [rank[a] for a in word]
    n = len(vals)
    descents = frozenset(i for i in range(1, n) if vals[i - 1] > vals[i])
    peaks = frozenset(
        i for i in range(1, n - 1) if vals[i - 1] < vals[i] and vals[i] > vals[i + 1]
    )
    return DeckStatistics(descents=descents, peaks=peaks)


@lru_cache(maxsize=256)
def _binomial_numerators(m: int, q: Fraction) -> tuple:
    """C(m, k) q^k (1-q)^(m-k) for k = 0..m as integer numerators over the
    denominator b^m of q = a/b, and that denominator; none for m < 0."""
    if m < 0:
        return (), 1
    a, b = q.numerator, q.denominator
    return tuple(comb(m, k) * a**k * (b - a) ** (m - k) for k in range(m + 1)), b**m


def deck_statistic(name: str, alphabet, n: int, q=Fraction(1, 2)) -> Callable:
    """The named statistic of n-card decks as a per-deck callable, with q,
    its binomial weights and the alphabet's ranks resolved once.

    "descents" and "peaks" count positions; "weighted-descents" weighs
    descent i by C(n-2, i-1) q^(i-1) (1-q)^(n-1-i) and "weighted-peaks"
    weighs peak i by C(n-3, i-1) q^(i-1) (1-q)^(n-2-i).  Position i reads
    the weight of index i-1, so each form is one pass over adjacent card
    ranks, summing the weights of the positions it matches.
    """
    if name not in ("descents", "peaks", "weighted-descents", "weighted-peaks"):
        raise ValueError(f"unknown deck statistic {name!r}")
    peaks = name.endswith("peaks")
    if name.startswith("weighted-"):
        nums, den = _binomial_numerators(n - 2 - peaks, rat(q))
    else:
        nums, den = (1,) * max(n - 1 - peaks, 0), 1
    rank = _ranks(tuple(alphabet)).__getitem__

    def ranks(word) -> list:
        if len(word) != n:
            raise ValueError(f"a statistic of {n}-card decks got a deck of {len(word)}")
        return list(map(rank, word))

    def descent_sum(word) -> Fraction:
        vals = ranks(word)
        return Fraction(sum(w for w, a, b in zip(nums, vals, vals[1:]) if a > b), den)

    def peak_sum(word) -> Fraction:
        vals = ranks(word)
        return Fraction(sum(w for w, a, b, c in zip(nums, vals, vals[1:], vals[2:]) if a < b > c), den)

    return peak_sum if peaks else descent_sum


def weighted_descent_stat(word: Word, q, alphabet) -> Fraction:
    """Sum over descents i of C(n-2, i-1) q^(i-1) (1-q)^(n-1-i).

    The program resolves `deck_statistic` once per deck size instead; this
    one-deck form remains because the benchmark's start-state check
    (`perfbench/checks.py`) imports it.
    """
    return deck_statistic("weighted-descents", alphabet, word.degree, q)(word)
