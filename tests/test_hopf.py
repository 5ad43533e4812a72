from fractions import Fraction as F
from functools import reduce
from itertools import permutations, product as cartesian
from math import lcm

import pytest

from hopfchains.acceptance import grid_presets, grid_spaces
from hopfchains.chain import build_transition_matrix
from hopfchains.forests import ForestAlgebra, forest_algebra, parse_forest
from hopfchains.hopf import (
    AlgebraHandle,
    CppSpec,
    LinComb,
    SpecError,
    _add_term,
    apply_cpp,
    beta_n,
    check_bialgebra_compatibility,
    check_coassociativity,
    check_state_space_basis,
    composition_law,
    eta,
    homogeneous_degree,
    iterated_coproduct,
    multinomial,
    normalize_spec,
    product,
    spec_from_dict,
    spec_to_dict,
    symmetrized_product,
)
from hopfchains.presets import (
    biased_spec,
    riffle_spec,
    top_m_ordered_spec,
    top_or_bottom_spec,
    top_to_random_spec,
    trinomial_spec,
)
from hopfchains.shuffle import FreeAssociativeAlgebra, ShuffleAlgebra, Word, rearrangement_class


def w(s):
    return Word(s)


def lc(s):
    return {Word(s): 1}


def combine(*scaled) -> dict:
    """The combination sum c * x over (c, x) pairs, with no zero stored."""
    out: dict = {}
    for c, x in scaled:
        for k, v in x.items():
            _add_term(out, k, c * v)
    return out


def image_of(alg, x: dict, spec: CppSpec) -> dict:
    """`apply_cpp`'s image of a combination, as the combination of its
    numerators over its den."""
    image, den = apply_cpp(alg, x, spec)
    return {k: F(c, den) for k, c in image.items()}


ALG2 = ShuffleAlgebra("ab")
ALG3 = ShuffleAlgebra("abc")


# ---------------------------------------------------------------------------
# structure maps


def test_product_unit():
    assert product(ALG3, lc(""), lc("abc")) == lc("abc")


def test_product_interleavings():
    got = product(ALG3, lc("ac"), lc("cb"))
    expect = {w("accb"): 2, w("acbc"): 1, w("cacb"): 1, w("cabc"): 1, w("cbac"): 1}
    assert got == expect
    assert all(type(c) is int for c in got.values())


def test_product_drops_cancelled_terms():
    # (a + b)(a - b) = 2aa - 2bb: the ab and ba terms cancel and are not stored
    got = product(ALG2, {w("a"): 1, w("b"): 1}, {w("a"): 1, w("b"): -1})
    assert got == {w("aa"): 2, w("bb"): -2}
    assert w("ab") not in got and w("ba") not in got


def test_forest_product_of_vertices():
    falg = forest_algebra()
    dot = parse_forest("()")
    assert falg.product_basis(dot, dot) == {parse_forest("()()"): 1}


def test_coproduct_of_word():
    got = iterated_coproduct(ALG3, lc("accb"), 2).terms
    expect = {
        (w(""), w("accb")): 1,
        (w("a"), w("ccb")): 1,
        (w("ac"), w("cb")): 1,
        (w("acc"), w("b")): 1,
        (w("accb"), w("")): 1,
    }
    assert got == expect


def test_degree_one_primitive():
    got = iterated_coproduct(ALG3, lc("c"), 2)
    assert got == LinComb({(w(""), w("c")): 1, (w("c"), w("")): 1})


def test_iterated_coproduct_arity_one_and_three():
    assert iterated_coproduct(ALG2, lc("ab"), 1).terms == {(w("ab"),): 1}

    # independent oracle: brute-force double deconcatenations
    expected = {}
    word = "ab"
    for i in range(3):
        for j in range(i, 3):
            key = (w(word[:i]), w(word[i:j]), w(word[j:]))
            expected[key] = expected.get(key, 0) + 1
    assert iterated_coproduct(ALG2, lc("ab"), 3).terms == expected


def test_coassociativity_small_degrees():
    assert check_coassociativity(ALG2, 4) == []
    assert check_coassociativity(forest_algebra(), 4) == []


def test_iterated_product_three_letters():
    got = product(ALG3, product(ALG3, lc("a"), lc("b")), lc("c"))
    perms = ["abc", "acb", "bac", "bca", "cab", "cba"]
    assert got == {w(p): 1 for p in perms}


def test_iterated_product_associativity():
    # m(m (x) id) and m(id (x) m) agree on tensor inputs
    lhs = product(ALG2, product(ALG2, lc("ab"), lc("a")), lc("b"))
    rhs = product(ALG2, lc("ab"), product(ALG2, lc("a"), lc("b")))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# projection convolutions


def _proj(alg, word, comp):
    """One projection convolution, applied through the general operator."""
    return image_of(alg, lc(word), normalize_spec(sum(comp), [(comp, 1)]))


def test_proj_convolution_break_one_then_rest():
    got = _proj(ALG3, "abc", (1, 2))
    assert got == {w("abc"): 1, w("bac"): 1, w("bca"): 1}


def test_proj_convolution_whole_block_is_identity():
    # (3,) alone is not a valid spec, so it rides along with a breaking term
    spec = normalize_spec(3, [((3,), 1), ((1, 2), 1)])
    expect = combine((1, lc("abc")), (1, _proj(ALG3, "abc", (1, 2))))
    assert image_of(ALG3, lc("abc"), spec) == expect


def test_proj_convolution_two_singles():
    # deconcatenation has a single (1,1) split of ab, which then shuffles
    got = _proj(ALG2, "ab", (1, 1))
    assert got == {w("ab"): 1, w("ba"): 1}


def test_proj_convolution_degree_mismatch():
    with pytest.raises(ValueError):
        _proj(ALG3, "abc", (1, 1))


def test_zero_stripping_invariance():
    specs = [normalize_spec(2, [(comp, 1)]) for comp in [(1, 1), (1, 0, 1), (0, 1, 1, 0)]]
    assert specs[0] == specs[1] == specs[2]


def test_apply_cpp_riffle_on_two_cards():
    # row sums must match 2^n, which pins the (1,1) term to ab + ba
    image, den = apply_cpp(ALG2, {w("ab"): 1}, riffle_spec(2))
    assert (image, den) == ({w("ab"): 3, w("ba"): 1}, 1)
    assert sum(image.values()) == 4


def test_apply_cpp_top_to_random():
    got = apply_cpp(ALG3, {w("abc"): 1}, top_to_random_spec(3))
    assert got == ({w("abc"): 1, w("bac"): 1, w("bca"): 1}, 1)


def test_apply_cpp_linearity():
    spec = riffle_spec(2)
    x, y = lc("ab"), lc("ba")
    lhs = image_of(ALG2, combine((1, x), (F(2, 3), y)), spec)
    rhs = combine((1, image_of(ALG2, x, spec)), (F(2, 3), image_of(ALG2, y, spec)))
    assert lhs == rhs
    # x's denominators multiply the weights' into the image's den
    assert apply_cpp(ALG2, combine((1, x), (F(2, 3), y)), spec)[1] == 3
    assert apply_cpp(ALG2, {}, spec) == ({}, 1)


def test_apply_cpp_preserves_degree():
    spec = riffle_spec(3)
    for word in ["aab", "abc", "cba"]:
        image, _ = apply_cpp(ALG3, {w(word): 1}, spec)
        assert {k.degree for k in image} == {3}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_apply_cpp_matches_the_by_arity_reference_on_forest_grid_presets(n):
    falg = forest_algebra()
    for label, spec in grid_presets(n):
        for x in falg.basis(n):
            got = image_of(falg, {x: 1}, spec)
            assert got == by_arity_apply_cpp(falg, {x: 1}, spec), (label, x)


@pytest.mark.parametrize("space", [label for label, *_ in grid_spaces()])
def test_apply_cpp_images_are_ints_over_an_int_den(space):
    # the structure constants are ints and x = {key: 1}, so only the
    # spec weights' denominators enter den
    ((_, alg, n, states),) = [g for g in grid_spaces() if g[0] == space]
    for label, spec in grid_presets(n):
        wden = lcm(*(wt.denominator for _, wt in spec.terms))
        for x in states:
            image, den = apply_cpp(alg, {x: 1}, spec)
            assert type(den) is int and den == wden, (label, x)
            assert all(type(c) is int and c > 0 for c in image.values()), (label, x)


@pytest.mark.parametrize(
    "alg",
    [ShuffleAlgebra("ab"), FreeAssociativeAlgebra("ab"), forest_algebra()],
    ids=lambda alg: alg.name,
)
def test_apply_cpp_expands_only_keys_a_composition_can_split(alg, monkeypatch):
    asked = []  # every key whose coproduct is asked for
    coproduct_basis = type(alg).coproduct_basis

    def counted(self, key):
        asked.append(key)
        return coproduct_basis(self, key)

    monkeypatch.setattr(type(alg), "coproduct_basis", counted)
    for n in (3, 4, 5):
        two_part = [top_to_random_spec(n), top_m_ordered_spec(n, 2), top_m_ordered_spec(n, n - 1)]
        for x in alg.basis(n):
            for label, spec in grid_presets(n):
                asked.clear()
                apply_cpp(alg, {x: 1}, spec)
                assert all(k.degree >= 2 for k in asked), (label, x)
            for spec in two_part:
                asked.clear()
                apply_cpp(alg, {x: 1}, spec)
                assert asked == [x], (spec, x)
        # one call per key of a combination, too
        keys = alg.basis(n)[:3]
        asked.clear()
        apply_cpp(alg, {k: F(i + 1, 2) for i, k in enumerate(keys)}, two_part[0])
        assert sorted(map(str, asked)) == sorted(map(str, keys))


# ---------------------------------------------------------------------------
# reference operator: the a-fold coproduct built once per arity, bucketed by
# leg-degree profile, with each bucket's legs multiplied left to right


def _product_of_keys(alg: AlgebraHandle, keys) -> dict:
    """Left-to-right product of a sequence of basis keys, as a terms dict."""
    acc = {keys[0]: 1}
    for key in keys[1:]:
        new: dict = {}
        for x, cx in acc.items():
            for k, ck in alg.product_basis(x, key).items():
                _add_term(new, k, cx * ck)
        acc = new
    return acc


def by_arity_apply_cpp(alg: AlgebraHandle, x: dict, spec: CppSpec) -> dict:
    """Apply the weighted sum of projection convolutions to homogeneous x.

    The a-fold coproduct is computed once per arity appearing in the spec
    and bucketed by leg-degree profile, so each composition term is a
    dictionary lookup.
    """
    deg = homogeneous_degree(x)
    if deg is None:
        return {}
    if deg != spec.n:
        raise ValueError(f"degree mismatch: element degree {deg}, spec degree {spec.n}")
    by_arity: dict = {}
    for comp, w in spec.terms:
        by_arity.setdefault(len(comp), []).append((comp, w))
    # Clear x's denominators so that the structure maps run on ints; the
    # rational factor w / den is applied once per (composition, output key).
    den = lcm(*(c.denominator for _, c in x.items()))
    x_int = {k: int(c * den) for k, c in x.items()}
    out: dict = {}
    for arity in sorted(by_arity):
        delta = iterated_coproduct(alg, x_int, arity).terms
        buckets: dict = {}
        for keys, c in delta.items():
            profile = tuple(k.degree for k in keys)
            buckets.setdefault(profile, []).append((keys, c))
        for comp, w in by_arity[arity]:
            image: dict = {}
            for keys, c in buckets.get(comp, ()):
                for k, ck in _product_of_keys(alg, keys).items():
                    _add_term(image, k, c * ck)
            scale = F(w, den)
            for k, c in image.items():
                _add_term(out, k, scale * c)
    return out


# ---------------------------------------------------------------------------
# specs


def test_normalize_strips_zero_parts():
    spec = normalize_spec(3, [((1, 0, 2), F(1))])
    assert spec.terms == (((1, 2), F(1)),)


def test_normalize_merges_and_validates():
    spec = normalize_spec(2, [((0, 2), F(1)), ((2, 0), F(1)), ((1, 1), F(1))])
    assert dict(spec.terms) == {(2,): F(2), (1, 1): F(1)}
    with pytest.raises(SpecError):
        normalize_spec(3, [((3,), F(1))])
    with pytest.raises(SpecError):
        normalize_spec(2, [((0, 2), F(1)), ((2, 0), F(1))])
    with pytest.raises(SpecError):
        normalize_spec(2, [((1, 1), F(-1))])
    with pytest.raises(SpecError):
        normalize_spec(2, [((1, 2), F(1))])


def test_no_valid_operator_at_degree_one():
    with pytest.raises(SpecError):
        normalize_spec(1, [((1,), F(1))])


def test_beta_values():
    assert beta_n(top_to_random_spec(5)) == 5
    for n in (2, 3, 4):
        assert beta_n(riffle_spec(n)) == 2**n
        assert beta_n(biased_spec(n, (F(1, 3), F(2, 3)))) == 1
    assert multinomial(4, (1, 3)) == 4


def test_composition_law_examples():
    assert composition_law(top_to_random_spec(4)) == {(1, 3): F(1)}
    law = composition_law(top_or_bottom_spec(4, F(1, 2)))
    assert law == {(1, 3): F(1, 2), (3, 1): F(1, 2)}
    law2 = composition_law(riffle_spec(2))
    assert law2 == {(2,): F(1, 2), (1, 1): F(1, 2)}
    assert sum(law2.values()) == 1


def test_spec_json_round_trip():
    spec = top_or_bottom_spec(4, F(1, 3))
    assert spec_from_dict(spec_to_dict(spec)) == spec
    # a zero denominator, a float or boolean n, a composition that is not a
    # list, and parts that are null, fractional or boolean; int() would have
    # truncated 3.7, [1.5, 1.5] and [True, 2] into specs that run
    bad_cases = [
        (2, [1, 1], "1/0"),
        (float("inf"), [1, 1], "1"),  # JSON 1e400
        (3.7, [1, 2], "1"),
        (3.0, [1, 2], "1"),
        (True, [1], "1"),
        (2, 5, "1"),
        (3, [None, 3], "1"),
        (2, [1.5, 1.5], "1"),
        (3, [True, 2], "1"),
        (3, [1, 2], True),  # JSON true is not the weight 1
    ]
    for n, comp, weight in bad_cases:
        bad = {"n": n, "terms": [{"composition": comp, "weight": weight}]}
        with pytest.raises(SpecError):
            spec_from_dict(bad)


# ---------------------------------------------------------------------------
# rescaling and structure checks


def test_eta_words_always_one():
    for word in ["a", "ab", "accb"]:
        assert eta(ALG3 if "c" in word else ALG2, w(word)) == 1


def test_eta_forests():
    falg = forest_algebra()
    assert eta(falg, parse_forest("()()")) == 2
    assert eta(falg, parse_forest("(())")) == 1


def test_eta_forest_matches_removal_order_count():
    # oracle: count vertex-removal orders that always take a current root
    falg = forest_algebra()

    def removal_orders(trees) -> int:
        if not trees:
            return 1
        total = 0
        for i, tree in enumerate(trees):
            rest = trees[:i] + trees[i + 1 :] + tuple(tree)
            total += removal_orders(rest)
        return total

    for n in range(1, 6):
        for f in falg.basis(n):
            assert eta(falg, f) == removal_orders(f), f


@pytest.mark.parametrize(
    "make, n_max",
    [
        (lambda: ShuffleAlgebra("abc"), 5),
        (lambda: FreeAssociativeAlgebra("abc"), 5),
        (ForestAlgebra, 9),
    ],
    ids=["shuffle", "free-assoc", "forests"],
)
def test_closed_form_eta_matches_the_coproduct_recursion(make, n_max):
    alg = make()  # a fresh handle, so the recursion's memo starts empty
    assert type(alg).eta is not AlgebraHandle.eta
    for n in range(n_max + 1):
        for x in alg.basis(n):
            assert alg.eta(x) == AlgebraHandle.eta(alg, x), x


def test_forest_eta_reads_no_coproduct(monkeypatch):
    falg = forest_algebra()
    asked = []
    coproduct_basis = ForestAlgebra.coproduct_basis

    def counted(self, key):
        asked.append(key)
        return coproduct_basis(self, key)

    monkeypatch.setattr(ForestAlgebra, "coproduct_basis", counted)
    for n in range(1, 9):
        for f in falg.basis(n):
            eta(falg, f)
    assert asked == []


@pytest.mark.parametrize("alphabet", ["ab", "abc"])
def test_word_content_classes_are_the_rearrangement_classes(alphabet):
    # every content up to degree 7: the class is the rearrangement class
    # of its sorted deck, its size is counted without enumeration, and the
    # classes of one degree partition the basis
    for alg in (ShuffleAlgebra(alphabet), FreeAssociativeAlgebra(alphabet)):
        for n in range(8):
            covered = []
            counts = cartesian(range(n + 1), repeat=len(alphabet))
            for content in (c for c in counts if sum(c) == n):
                deck = Word(a for a, c in zip(alphabet, content) for _ in range(c))
                states = alg.content_class(content)
                assert states == rearrangement_class(alg, deck), content
                assert alg.class_size(content) == len(states), content
                assert all(alg.content(x) == content for x in states)
                covered += states
            assert sorted(covered) == sorted(alg.basis(n))


def test_forest_content_class_is_the_basis():
    falg = forest_algebra()
    for n in range(9):
        states = falg.content_class((n,))
        assert states == falg.basis(n)
        assert falg.class_size((n,)) == len(states)


def test_state_space_checks_pass():
    assert check_state_space_basis(ALG2, 5) == []
    assert check_state_space_basis(forest_algebra(), 5) == []
    assert check_bialgebra_compatibility(ALG2, 4) == []
    assert check_bialgebra_compatibility(forest_algebra(), 4) == []


def _factor_pool(alg):
    """Mixed-degree combinations, with a repeat, to multiply in every order."""
    b1, b2 = alg.basis(1), alg.basis(2)
    first = {b1[0]: 1}
    return [
        first,
        {b2[0]: 2, b1[-1]: -1},
        first,
        {b2[-1]: F(1, 3), b2[0]: 1},
    ]


@pytest.mark.parametrize(
    "alg, n_max",
    [(ShuffleAlgebra("ab"), 4), (FreeAssociativeAlgebra("ab"), 3), (forest_algebra(), 4)],
    ids=["shuffle", "free-associative", "forests"],
)
def test_symmetrized_product_is_sum_over_orderings(alg, n_max):
    pool = _factor_pool(alg)
    for n in range(n_max + 1):
        factors = pool[:n]
        unit = {alg.unit_key(): 1}
        explicit = combine(
            *((1, reduce(lambda acc, f: product(alg, acc, f), order, unit))
              for order in permutations(factors))
        )
        assert symmetrized_product(alg, factors) == explicit


class _BadKey:
    def __init__(self, name, degree):
        self.name = name
        self.degree = degree

    def __eq__(self, other):
        return isinstance(other, _BadKey) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class _PrimitiveDegreeTwo(AlgebraHandle):
    """Artificial algebra whose degree-2 basis element never breaks."""

    name = "bad"

    def __init__(self):
        super().__init__()
        self.unit = _BadKey("1", 0)
        self.x = _BadKey("x", 1)
        self.y = _BadKey("y", 2)

    def basis(self, n):
        return {0: [self.unit], 1: [self.x], 2: [self.y]}.get(n, [])

    def product_basis(self, a, b):
        if a.degree == 0:
            return {b: 1}
        if b.degree == 0:
            return {a: 1}
        return {}

    def coproduct_basis(self, a):
        if a.degree == 0:
            return {(self.unit, self.unit): 1}
        return {(self.unit, a): 1, (a, self.unit): 1}


class _UnbalancedDegreeTwo(_PrimitiveDegreeTwo):
    """x*x = y, but the coproduct of y carries x(x)x once instead of twice."""

    name = "unbalanced"

    def product_basis(self, a, b):
        if a == b == self.x:
            return {self.y: 1}
        return super().product_basis(a, b)

    def coproduct_basis(self, a):
        if a == self.y:
            return {(self.unit, a): 1, (self.x, self.x): 1, (a, self.unit): 1}
        return super().coproduct_basis(a)


def test_builder_rejects_row_that_does_not_sum_to_one():
    bad = _UnbalancedDegreeTwo()
    assert check_bialgebra_compatibility(bad, 2) != []
    with pytest.raises(ArithmeticError, match="sums to 1/2, not 1"):
        build_transition_matrix(bad, normalize_spec(2, [((1, 1), 1)]))


def test_artificial_primitive_is_reported():
    violations = check_state_space_basis(_PrimitiveDegreeTwo(), 2)
    assert any("primitive" in v for v in violations)


def test_eta_zero_is_reported():
    bad = _PrimitiveDegreeTwo()
    assert type(bad).eta is AlgebraHandle.eta  # the coproduct recursion
    with pytest.raises(ValueError):
        eta(bad, bad.y)


@pytest.mark.parametrize(
    "alg", [ShuffleAlgebra("ab"), FreeAssociativeAlgebra("ab"), forest_algebra()], ids=str
)
def test_structure_constants_are_ints(alg):
    for d in range(5):
        for x in alg.basis(d):
            delta = alg.coproduct_basis(x)
            assert type(delta) is dict and all(type(c) is int for c in delta.values())
            for e in range(5 - d):
                for y in alg.basis(e):
                    prod = alg.product_basis(x, y)
                    assert type(prod) is dict and all(type(c) is int for c in prod.values())


def test_built_matrix_stays_rational():
    cases = [
        (ShuffleAlgebra("123"), riffle_spec(3, 2)),
        (ShuffleAlgebra("ab"), trinomial_spec(3, F(1, 2), F(1, 3), F(1, 6))),
        (forest_algebra(), top_to_random_spec(4)),
    ]
    for alg, spec in cases:
        K = build_transition_matrix(alg, spec)
        assert type(K.beta) is F
        assert all(type(e) is int for e in K.etas)
        assert type(K.den) is int and K.den > 0
        assert all(type(c) is int for row in K.rows for _, c in row)
        assert all(type(p) is F for x in K.states for p in K.row_of(x).values())
