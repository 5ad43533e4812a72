from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, strategies as st

from hopfchains.forests import (
    EMPTY_FOREST,
    Forest,
    SINGLE_VERTEX,
    VertexStats,
    _tree_coproduct,
    enumerate_forests,
    enumerate_trees,
    f_j_statistic,
    forest_algebra,
    parse_forest,
    tree_count,
    vertex_stats,
)
from hopfchains.hopf import (
    LinComb,
    check_bialgebra_compatibility,
    check_coassociativity,
    tensor_square_product,
)


def test_forest_is_the_tuple_of_its_trees():
    path = ((),)  # the tree "(())"
    f = Forest([(), path])  # sorted by encoding: "(())" < "()"
    assert f == (path, ()) and hash(f) == hash((path, ()))
    assert str(f) == "(())()" and repr(f) == "Forest('(())()')"
    assert f.degree == 3 and EMPTY_FOREST.degree == 0 and str(EMPTY_FOREST) == ""
    # nested lists and unsorted trees canonicalise to the same forest
    assert Forest([[], [[]]]) == Forest([[()], []]) == f
    assert Forest([[[], [[]]]]) == Forest([(((),), ())]) == parse_forest("(()(()))")
    assert Forest(f) == f and type(Forest(f)) is Forest
    assert type(f + f) is tuple  # adding forests gives plain tuples, never a Forest
    # a tensor key can equal a forest ("()()" is the pair of empty forests),
    # so no dict holds both
    assert (EMPTY_FOREST, EMPTY_FOREST) == parse_forest("()()")


def test_forest_structure_maps_return_forests_in_every_leg():
    # sums and sorts of trees are plain tuples; every key must be wrapped
    falg = forest_algebra()
    for i in range(7):
        for x in enumerate_forests(i):
            for u, v in falg.coproduct_basis(x):
                assert type(u) is Forest and type(v) is Forest
            for j in range(7 - i):
                for y in enumerate_forests(j):
                    assert all(type(k) is Forest for k in falg.product_basis(x, y))


# The Forest class as it stood when a forest held its trees, encoding and
# size in slots and hashed by encoding, with its helpers, kept as the
# reference for the encoding of any input.
def _canon_tree(children) -> tuple:
    kids = tuple(_canon_tree(c) for c in children)
    return tuple(sorted(kids, key=_enc_tree))


def _enc_tree(tree) -> str:
    return "(" + "".join(_enc_tree(c) for c in tree) + ")"


def _tree_size(tree) -> int:
    return 1 + sum(_tree_size(c) for c in tree)


class _ReferenceForest:
    """Canonical unlabelled rooted forest; hashable, equality by shape."""

    __slots__ = ("trees", "encoding", "_size")

    def __init__(self, trees):
        canon = tuple(sorted((_canon_tree(t) for t in trees), key=_enc_tree))
        self._set(canon, sum(_tree_size(t) for t in canon))

    def _set(self, canon: tuple, size: int) -> None:
        self.trees = canon
        self.encoding = "".join(map(_enc_tree, canon))
        self._size = size

    @property
    def degree(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        return isinstance(other, _ReferenceForest) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __str__(self) -> str:
        return self.encoding

    def __repr__(self) -> str:
        return f"Forest({self.encoding!r})"


_TREES = st.recursive(
    st.just([]),
    lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple),
    max_leaves=10,
)


@given(st.lists(_TREES, max_size=4))
def test_forest_encoding_matches_the_reference_class(trees):
    f, reference = Forest(trees), _ReferenceForest(trees)
    assert str(f) == str(reference) and repr(f) == repr(reference)
    assert f.degree == reference.degree and f == reference.trees


def test_canonical_form_ignores_child_order():
    left = Forest([((), ((),))])  # root with children: leaf, path-child
    right = Forest([(((),), ())])
    assert left == right
    assert str(left) == str(right)


def test_parse_round_trip():
    for enc in ["()", "()()", "(())", "(()())", "((()))(())()"]:
        assert str(parse_forest(enc)) == enc
    with pytest.raises(ValueError):
        parse_forest("(()")
    with pytest.raises(ValueError):
        parse_forest("())(")
    with pytest.raises(ValueError):
        parse_forest("(x)")


def test_forest_degree():
    assert EMPTY_FOREST.degree == 0
    assert SINGLE_VERTEX.degree == 1
    assert parse_forest("((()))(())()").degree == 6


def _tree_counts_oracle(n_max):
    """Classic recurrence for unlabelled rooted trees, independent of the
    recursive generator: r(n) = (1/(n-1)) sum_k (sum_{d|k} d r(d)) r(n-k)."""
    r = [0, 1]
    for n in range(2, n_max + 1):
        total = 0
        for k in range(1, n):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n - k]
        r.append(total // (n - 1))
    return r


def test_enumeration_counts_match_recurrence():
    r = _tree_counts_oracle(6)
    for n in range(1, 7):
        assert len(enumerate_trees(n)) == r[n]
    # forests with n vertices correspond to trees with n+1 (hang a new root)
    for n in range(0, 6):
        assert len(enumerate_forests(n)) == r[n + 1]


def test_tree_count_matches_enumeration():
    r = _tree_counts_oracle(10)
    for n in range(0, 11):
        assert tree_count(n) == len(enumerate_trees(n)) == (r[n] if n else 0)
    assert tree_count(21) == 35_221_832  # OEIS A000081


def test_enumerated_forests_are_distinct_and_sorted():
    for n in range(1, 6):
        forests = enumerate_forests(n)
        encodings = [str(f) for f in forests]
        assert len(set(encodings)) == len(encodings)
        assert encodings == sorted(encodings)
        assert all(f.degree == n for f in forests)


def test_coproduct_single_vertex():
    falg = forest_algebra()
    got = falg.coproduct_basis(SINGLE_VERTEX)
    assert got == {(EMPTY_FOREST, SINGLE_VERTEX): 1, (SINGLE_VERTEX, EMPTY_FOREST): 1}


def test_coproduct_path_two():
    falg = forest_algebra()
    path = parse_forest("(())")
    got = falg.coproduct_basis(path)
    assert got == {
        (EMPTY_FOREST, path): 1,
        (SINGLE_VERTEX, SINGLE_VERTEX): 1,
        (path, EMPTY_FOREST): 1,
    }


def test_coproduct_two_dots():
    falg = forest_algebra()
    dots = parse_forest("()()")
    got = falg.coproduct_basis(dots)
    assert got.get((SINGLE_VERTEX, SINGLE_VERTEX), 0) == 2
    assert got.get((EMPTY_FOREST, dots), 0) == 1
    assert got.get((dots, EMPTY_FOREST), 0) == 1


def test_coproduct_star_counts_subtrees_with_multiplicity():
    falg = forest_algebra()
    star = parse_forest("(()())")
    got = falg.coproduct_basis(star)
    # removing root plus one leaf: the kept subtree is a 2-path, twice
    assert got.get((SINGLE_VERTEX, parse_forest("(())")), 0) == 2


def test_canonical_union_matches_recanonicalised_union():
    falg = forest_algebra()
    for i in range(7):
        for j in range(7 - i):
            for f in enumerate_forests(i):
                for g in enumerate_forests(j):
                    [(union, c)] = falg.product_basis(f, g).items()
                    reference = Forest(f + g)
                    assert type(c) is int and c == 1
                    assert str(union) == str(reference)
                    assert hash(union) == hash(reference)
                    assert union == reference and union.degree == i + j


def test_coproduct_matches_unit_seeded_product_of_tree_coproducts():
    falg = forest_algebra()
    for n in range(8):
        for f in enumerate_forests(n):
            reference = LinComb.single((EMPTY_FOREST, EMPTY_FOREST))
            for tree in f:
                reference = tensor_square_product(falg, reference, _tree_coproduct(tree))
            # same terms, in the same order
            assert list(falg.coproduct_basis(f).items()) == list(reference.items())


def test_coassociativity_and_compatibility():
    falg = forest_algebra()
    assert check_coassociativity(falg, 5) == []
    assert check_bialgebra_compatibility(falg, 5) == []


def test_vertex_stats_examples():
    assert vertex_stats(SINGLE_VERTEX) == [VertexStats(desc=1, anc=1, component=1)]

    path3 = parse_forest("((()))")
    got = sorted((s.desc, s.anc, s.component) for s in vertex_stats(path3))
    assert got == [(1, 3, 3), (2, 2, 3), (3, 1, 3)]

    star = parse_forest("(()())")
    got = sorted((s.desc, s.anc) for s in vertex_stats(star))
    assert got == [(1, 2), (1, 2), (3, 1)]


def test_vertex_stats_bounds():
    for n in range(1, 6):
        for f in enumerate_forests(n):
            for s in vertex_stats(f):
                assert 1 <= s.desc <= s.component
                assert 1 <= s.anc <= s.component


def test_f_j_statistic():
    path3 = parse_forest("((()))")
    assert f_j_statistic(path3, 2, F(1), F(1)) == comb(3, 2) + comb(2, 2)
    assert f_j_statistic(path3, 4, F(1, 2), F(1, 2)) == 0
    assert f_j_statistic(path3, 2, F(0), F(1, 2)) == 0
    star = parse_forest("(()())")
    # only the root qualifies at j=2
    assert f_j_statistic(star, 2, F(1, 4), F(1, 2)) == F(1, 4) ** 3 * F(1, 2) * 3
    with pytest.raises(ValueError):
        f_j_statistic(star, 1, F(1), F(1))
