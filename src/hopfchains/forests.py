"""Unlabelled rooted forests with the root-cut coproduct.

A forest is a multiset of rooted trees; its degree is the total vertex
count.  The product of two forests is their disjoint union.  The
coproduct of a single tree T is the sum of (T minus S) (x) S over all
connected subtrees S that are empty or contain the root; for a multi-tree
forest the per-tree coproducts multiply in the tensor square, on keys:
(a (x) b)(c (x) d) is the one key (a u c) (x) (b u d).

Canonical form: a tree is a tuple of child trees sorted by their
parenthesised encoding, and a `Forest` is the tuple of its canonical
trees sorted the same way.  "(()())" is a root with two leaf children,
"()()" two isolated roots.  Equal forests are equal tuples, so forests
hash and compare in C.  A forest equals the plain tuple of its trees,
which is also a tree (the root over them) and can equal a tensor key;
no dict in this package mixes forests with trees or tensor keys.  Each
tree is canonicalised, measured and encoded once, by the memos below.
Both structure maps return plain `{key: int}` dicts.

The rescaling constant eta(F), the coefficient sum of breaking F into
single vertices, counts the orders that remove one current root at a
time: the linear extensions of the forest poset.  By the hook-length
formula for forests (Knuth, TAOCP vol. 3, section 5.1.4) that is
n! / prod_v h(v), where h(v) is the size of the subtree under v, so
`ForestAlgebra.eta` takes it from the tree shapes, with no coproduct.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product as cartesian
from math import comb, factorial, prod
from typing import NamedTuple

from .hopf import AlgebraHandle
from .linalg import rat


@lru_cache(maxsize=None)
def _canon_tree(tree: tuple) -> tuple:
    return tuple(sorted(map(_canon_tree, tree), key=_enc_tree))


@lru_cache(maxsize=None)
def _enc_tree(tree) -> str:
    return "(" + "".join(_enc_tree(c) for c in tree) + ")"


@lru_cache(maxsize=None)
def _tree_size(tree) -> int:
    return 1 + sum(map(_tree_size, tree))


@lru_cache(maxsize=None)
def _hook_product(tree) -> int:
    """The product of the subtree sizes over the vertices of one tree."""
    return _tree_size(tree) * prod(map(_hook_product, tree))


def _frozen(tree) -> tuple:
    """A tree given as nested iterables (lists, say), as nested tuples."""
    return tuple(map(_frozen, tree))


class Forest(tuple):
    """Canonical unlabelled rooted forest: the sorted tuple of its trees."""

    __slots__ = ()

    def __new__(cls, trees):
        canon = map(_canon_tree, map(_frozen, trees))
        return tuple.__new__(cls, sorted(canon, key=_enc_tree))

    @property
    def degree(self) -> int:
        return sum(map(_tree_size, self))

    def __str__(self) -> str:
        return "".join(map(_enc_tree, self))

    def __repr__(self) -> str:
        return f"Forest({str(self)!r})"


# The Forest of trees that are already canonical and sorted by encoding.
_wrap_forest = partial(tuple.__new__, Forest)

EMPTY_FOREST = Forest(())
SINGLE_VERTEX = Forest(((),))


def parse_forest(encoding: str) -> Forest:
    """Parse a parenthesised encoding back into a canonical forest."""
    trees = []
    stack = []
    for ch in encoding:
        if ch == "(":
            stack.append([])
        elif ch == ")":
            if not stack:
                raise ValueError(f"unbalanced encoding: {encoding!r}")
            done = tuple(stack.pop())
            if stack:
                stack[-1].append(done)
            else:
                trees.append(done)
        else:
            raise ValueError(f"unexpected character {ch!r} in forest encoding")
    if stack:
        raise ValueError(f"unbalanced encoding: {encoding!r}")
    return Forest(trees)


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple:
    """All rooted trees with n vertices: a root over each (n-1)-vertex forest."""
    if n < 1:
        return ()
    return tuple(map(tuple, enumerate_forests(n - 1)))


@lru_cache(maxsize=None)
def tree_count(n: int) -> int:
    """Number of rooted trees on n vertices (OEIS A000081), without
    enumerating them; the forests on n vertices number tree_count(n + 1).

    a(m+1) = (1/m) sum_{k=1..m} (sum_{d | k} d a(d)) a(m-k+1), a(1) = 1.
    """
    a = [0, 1]  # a[m]: rooted trees on m vertices
    s = [0, 1]  # s[k]: sum of d a(d) over the divisors d of k
    for m in range(1, n):
        a.append(sum(s[k] * a[m - k + 1] for k in range(1, m + 1)) // m)
        s.append(sum(d * a[d] for d in range(1, m + 2) if (m + 1) % d == 0))
    return a[n] if n >= 1 else 0


@lru_cache(maxsize=None)
def enumerate_forests(n: int) -> tuple[Forest, ...]:
    """All rooted forests with n vertices, sorted by canonical encoding.

    Generated as multisets over the global tree list, choosing trees in
    non-decreasing index order so each multiset appears exactly once.
    """
    if n < 0:
        return ()
    if n == 0:
        return (EMPTY_FOREST,)
    pool = []
    for size in range(1, n + 1):
        pool.extend((size, t) for t in enumerate_trees(size))

    results = []

    def extend(start: int, remaining: int, chosen: list) -> None:
        if remaining == 0:
            results.append(_wrap_forest(sorted(chosen, key=_enc_tree)))
            return
        for idx in range(start, len(pool)):
            size, tree = pool[idx]
            if size > remaining:
                break  # the pool is in increasing size order
            chosen.append(tree)
            extend(idx, remaining - size, chosen)
            chosen.pop()

    extend(0, n, [])
    return tuple(sorted(results, key=str))


def _union(f: Forest, g: Forest) -> Forest:
    """Disjoint union, the product of two forests.

    Both forests' trees are already canonical, so the union only sorts
    them by encoding; nothing is re-canonicalised.
    """
    if not g:
        return f
    if not f:
        return g
    return _wrap_forest(sorted(f + g, key=_enc_tree))


def _tree_cuts(tree) -> list:
    """All (left forest trees, kept root subtree) pairs for one tree.

    `kept` ranges over the connected subtrees containing the root; the
    left part collects everything cut away.  The empty subtree case is
    handled by the caller.
    """
    per_child = []
    for child in tree:
        opts = [((child,), None)]  # drop the whole child into the left part
        opts.extend(_tree_cuts(child))
        per_child.append(opts)
    cuts = []
    for combo in cartesian(*per_child) if per_child else [()]:
        left: tuple = ()
        kept_children = []
        for child_left, child_kept in combo:
            left = left + child_left
            if child_kept is not None:
                kept_children.append(child_kept)
        cuts.append((left, tuple(sorted(kept_children, key=_enc_tree))))
    return cuts


@lru_cache(maxsize=None)
def _tree_coproduct(tree) -> dict:
    out = {(_wrap_forest((tree,)), EMPTY_FOREST): 1}  # S empty
    for left, kept in _tree_cuts(tree):
        key = (_wrap_forest(sorted(left, key=_enc_tree)), _wrap_forest((kept,)))
        out[key] = out.get(key, 0) + 1
    return out


class ForestAlgebra(AlgebraHandle):
    """Rooted forests with disjoint-union product and root-cut coproduct."""

    name = "forests"
    commutative = True
    cocommutative = False
    statistics = {"f_j": {"j": 2, "q1": Fraction(1, 4), "q3": Fraction(1, 4)}}

    def basis(self, n: int) -> list:
        return list(enumerate_forests(n))

    def product_basis(self, x: Forest, y: Forest) -> dict:
        return {_union(x, y): 1}

    def coproduct_basis(self, x: Forest) -> dict:
        result = _tree_coproduct(x[0]) if x else {(EMPTY_FOREST, EMPTY_FOREST): 1}
        for tree in x[1:]:
            folded: dict = {}
            for (a, b), cs in result.items():
                for (c, d), ct in _tree_coproduct(tree).items():
                    key = (_union(a, c), _union(b, d))
                    folded[key] = folded.get(key, 0) + cs * ct
            result = folded
        return result

    def eta(self, key: Forest) -> int:
        """The hook-length count n! / prod of subtree sizes (module docstring)."""
        return factorial(key.degree) // prod(map(_hook_product, key))

    def content(self, key: Forest) -> tuple[int]:
        """The one degree-1 key is the single vertex, so content is (degree,)."""
        return (key.degree,)

    def class_size(self, content) -> int:
        """The forests on n vertices number the rooted trees on n + 1."""
        return tree_count(content[0] + 1)

    def content_class(self, content) -> list:
        """Every forest on n vertices: the content (n,) is the degree alone."""
        return self.basis(content[0])

    def statistic(self, name: str, n: int, j: int, q1, q3):
        """f_j, the table's one entry, with j, q1 and q3 fixed (`f_j_statistic`)."""
        if j < 2:
            raise ValueError(f"--j must be >= 2 for f_j, got {j}")
        return lambda f: f_j_statistic(f, j, q1, q3)

    def generator_counts(self, content) -> dict:
        """Rooted trees of each size up to the vertex count."""
        (n,) = content
        return {s: {(s,): tree_count(s)} for s in range(1, n + 1)}


_FOREST_ALGEBRA = ForestAlgebra()


def forest_algebra() -> ForestAlgebra:
    """The shared forest-algebra handle (safe: handles are immutable)."""
    return _FOREST_ALGEBRA


# ---------------------------------------------------------------------------
# vertex statistics


class VertexStats(NamedTuple):
    """Per-vertex counts: descendants, ancestors (both including the
    vertex itself) and the size of its connected component."""

    desc: int
    anc: int
    component: int


def vertex_stats(f: Forest) -> list[VertexStats]:
    """Statistics for every vertex of the forest (order: encoding walk)."""
    stats: list[VertexStats] = []

    def walk(tree, depth: int, component: int) -> int:
        size = 1
        for child in tree:
            size += walk(child, depth + 1, component)
        stats.append(VertexStats(desc=size, anc=depth + 1, component=component))
        return size

    for tree in f:
        walk(tree, 0, _tree_size(tree))
    return stats


def f_j_statistic(f: Forest, j: int, q1, q3) -> Fraction:
    """Sum over vertices of q1^desc(u) q3^anc(u) C(desc(u), j).

    Vertices with fewer than j descendants contribute 0.
    """
    if j < 2:
        raise ValueError("statistic defined for j >= 2")
    q1 = rat(q1)
    q3 = rat(q3)
    total = Fraction(0)
    for st in vertex_stats(f):
        if st.desc >= j:
            total += q1**st.desc * q3**st.anc * comb(st.desc, j)
    return total
