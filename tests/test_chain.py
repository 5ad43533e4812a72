import json
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import accumulate, combinations_with_replacement, permutations
from math import factorial, gcd, lcm

import pytest

from hopfchains import acceptance
from hopfchains.chain import (
    RELABEL_RATIO,
    Distribution,
    build_transition_matrix,
    distribution_to_dict,
    evolve,
    expectations,
    is_stationary,
    lumping_check,
    matrix_to_csv,
    matrix_to_dict,
    point_mass,
    stationary_distributions,
)
from hopfchains.cli import UsageError, check_state_count, main
from hopfchains.forests import forest_algebra, parse_forest
from hopfchains.hopf import apply_cpp, beta_n, eta, multinomial, product
from hopfchains.linalg import RatMatrix
from hopfchains.presets import (
    riffle_spec,
    top_or_bottom_spec,
    top_to_random_spec,
    trinomial_spec,
)
from hopfchains.shuffle import (
    FreeAssociativeAlgebra,
    ShuffleAlgebra,
    Word,
    deck_from_string,
    descent_peak_sets,
    distinct_deck,
    position_law,
    rearrangement_class,
)
from hopfchains.simulate import RngStream, matrix_stepper


def _class_chain(n, spec_fn):
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    return alg, deck, build_transition_matrix(alg, spec_fn(n), states=states)


def _weights(dist):
    """The law's probabilities as Fractions, one per state."""
    return [F(c, dist.den) for c in dist.nums]


def test_top_to_random_row():
    _, deck, K = _class_chain(3, top_to_random_spec)
    row = {str(s): p for s, p in K.row_of(deck).items()}
    assert row == {"123": F(1, 3), "213": F(1, 3), "231": F(1, 3)}


def test_repeated_deck_row():
    alg, deck = deck_from_string("aab")
    states = rearrangement_class(alg, deck)
    K = build_transition_matrix(alg, top_to_random_spec(3), states=states)
    row = {str(s): p for s, p in K.row_of(deck).items()}
    assert row == {"aab": F(2, 3), "aba": F(1, 3)}


def test_rows_sum_to_one_across_presets():
    for spec_fn in (top_to_random_spec, riffle_spec, lambda n: top_or_bottom_spec(n, F(1, 3))):
        _, _, K = _class_chain(4, spec_fn)
        for x, row in zip(K.states, K.kernel.entries):
            assert sum(row) == K.kernel.den
            assert all(p >= 0 for p in row)
            assert sum(K.row_of(x).values()) == 1


def test_doob_identity_directly():
    # row sums of the unscaled operator, weighted by the rescaling constants
    alg, deck = distinct_deck(4)
    spec = riffle_spec(4)
    beta = beta_n(spec)
    for x in rearrangement_class(alg, deck)[:6]:
        image, den = apply_cpp(alg, {x: 1}, spec)
        lhs = sum(c * eta(alg, y) for y, c in image.items())
        assert lhs == beta * den * eta(alg, x)


def test_state_space_closure_enforced():
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    with pytest.raises(ValueError):
        build_transition_matrix(alg, top_to_random_spec(3), states=states[:3])


def test_max_states_cap(capsys):
    # the cap lives in the command line: the 120-state top-to-random class
    # is refused under a cap of 100, before any kernel is built
    alg, deck = distinct_deck(5)
    states = rearrangement_class(alg, deck)
    assert len(states) == 120
    with pytest.raises(UsageError, match="state space has 120 elements, above the cap 100"):
        check_state_count(len(states), 100)
    check_state_count(len(states), 120)
    argv = ["matrix", "--distinct", "5", "--preset", "top-to-random", "--max-states", "100"]
    assert main(argv) == 2
    assert "above the cap 100; raise --max-states to proceed" in capsys.readouterr().err


def test_evolve_basics():
    _, deck, K = _class_chain(3, top_to_random_spec)
    start = point_mass(K, deck)
    assert _weights(evolve(K, start, 0)) == _weights(start)
    one = evolve(K, start, 1)
    assert {str(s): p for s, p in zip(one.states, _weights(one)) if p} == {
        "123": F(1, 3),
        "213": F(1, 3),
        "231": F(1, 3),
    }
    with pytest.raises(ValueError):
        evolve(K, start, -1)


def test_distribution_validation():
    _, deck, K = _class_chain(3, top_to_random_spec)
    with pytest.raises(ValueError, match="sum to exactly 1"):
        Distribution(K.states, [1] * 6, 1)
    with pytest.raises(ValueError, match="align"):
        Distribution(K.states, [-1] + [1] * 5 + [1], 6)
    with pytest.raises(ValueError, match="negative"):
        Distribution(K.states, [-1, 2, 0, 0, 0, 0], 1)
    # the sum is checked first, so an empty law is not a min() error
    with pytest.raises(ValueError, match="sum to exactly 1"):
        Distribution([], [], 1)
    with pytest.raises(ValueError, match="sum to exactly 1"):
        Distribution(K.states, [0] * 6, 0)


def test_distribution_is_stored_over_its_least_common_denominator():
    _, deck, K = _class_chain(3, top_to_random_spec)
    law = Distribution(K.states, [2, 2, 2, 0, 0, 0], 6)
    assert (law.nums, law.den) == ((1, 1, 1, 0, 0, 0), 3)
    assert law == Distribution(K.states, [1, 1, 1, 0, 0, 0], 3)
    one = point_mass(K, deck)
    assert (one.nums, one.den) == ((1, 0, 0, 0, 0, 0), 1)


def test_expectation_constant_and_linearity():
    _, deck, K = _class_chain(3, top_to_random_spec)
    start = point_mass(K, deck)
    assert expectations(K, start, 3, lambda s: F(1)) == [1] * 4
    stat_a = lambda s: F(len(descent_peak_sets(s, "123").descents))
    stat_b = lambda s: F(1, 2)
    combo = lambda s: 3 * stat_a(s) + stat_b(s)
    got = expectations(K, start, 2, combo)
    series_a = expectations(K, start, 2, stat_a)
    series_b = expectations(K, start, 2, stat_b)
    assert got == [3 * a + b for a, b in zip(series_a, series_b)]


def test_expectations_match_evolve_at_every_step():
    falg = forest_algebra()
    word_chain = _class_chain(4, lambda n: riffle_spec(n, 2))
    forest_chain = build_transition_matrix(falg, trinomial_spec(4, F(1, 4), F(1, 2), F(1, 4)))
    cases = [
        (word_chain[2], word_chain[1], lambda s: F(len(descent_peak_sets(s, "1234").peaks))),
        (forest_chain, parse_forest("(((())))"), lambda f: F(len(f), f.degree)),
    ]
    for K, start_state, stat in cases:
        start = point_mass(K, start_state)
        series = expectations(K, start, 5, stat)
        assert len(series) == 6
        for s, value in enumerate(series):
            dist = evolve(K, start, s)
            assert value == sum(w * stat(x) for x, w in zip(dist.states, _weights(dist)))
    with pytest.raises(ValueError):
        expectations(K, start, -1, stat)
    other = Distribution(K.states[::-1], start.nums[::-1], start.den)
    with pytest.raises(ValueError):
        expectations(K, other, 0, stat)


def test_expectations_evaluate_the_statistic_once_per_state():
    _, deck, K = _class_chain(4, lambda n: riffle_spec(n, 2))
    start = point_mass(K, deck)
    calls = Counter()

    def stat(s):
        calls[s] += 1
        return F(len(descent_peak_sets(s, "1234").descents))

    expectations(K, start, 5, stat)
    reached = {x for t in range(6) for x, c in zip(K.states, evolve(K, start, t).nums) if c}
    assert set(calls) == reached
    assert set(calls.values()) == {1}


def test_stationary_uniform_on_distinct_decks():
    for n in (3, 4):
        alg, deck = distinct_deck(n)
        states = rearrangement_class(alg, deck)
        (pi,) = stationary_distributions(alg, n, states=states)
        assert all(wt == F(1, factorial(n)) for wt in _weights(pi))


def test_stationary_repeated_deck():
    alg, deck = deck_from_string("aab")
    states = rearrangement_class(alg, deck)
    (pi,) = stationary_distributions(alg, 3, states=states)
    assert all(wt == F(1, 3) for wt in _weights(pi))


def test_stationary_fixed_by_every_spec():
    alg, deck = distinct_deck(4)
    states = rearrangement_class(alg, deck)
    pis = stationary_distributions(alg, 4, states=states)
    for spec in (top_to_random_spec(4), riffle_spec(4), trinomial_spec(4, F(1, 4), F(1, 2), F(1, 4))):
        K = build_transition_matrix(alg, spec, states=states)
        for pi in pis:
            assert is_stationary(K, pi)


def test_stationary_full_word_space_splits_by_content():
    # one law per letter multiset; disjoint supports make them independent
    alg, _ = deck_from_string("ab")
    pis = stationary_distributions(alg, 3)
    assert len(pis) == 4
    supports = [frozenset(str(s) for s, c in zip(pi.states, pi.nums) if c) for pi in pis]
    assert len(set(supports)) == 4
    K = build_transition_matrix(alg, riffle_spec(3))
    for pi in pis:
        assert is_stationary(K, pi)


def test_stationary_laws_match_exhaustive_multiset_loop():
    # every multiset of degree-1 keys, every ordering of its product
    def exhaustive(alg, n):
        states = alg.basis(n)
        laws = []
        for multiset in combinations_with_replacement(alg.basis(1), n):
            coeffs = Counter()
            for order in permutations(multiset):
                term = {alg.unit_key(): 1}
                for key in order:
                    term = product(alg, term, {key: 1})
                coeffs.update(term)
            weights = [F(coeffs[x] * eta(alg, x), factorial(n) ** 2) for x in states]
            if any(weights):
                laws.append((multiset, weights))
        return laws

    cases = [(ShuffleAlgebra("ab"), n) for n in range(1, 5)]
    cases += [(ShuffleAlgebra("abc"), n) for n in range(1, 4)]
    cases += [(forest_algebra(), n) for n in range(1, 5)]
    for alg, n in cases:
        got = [(pi.provenance, _weights(pi)) for pi in stationary_distributions(alg, n)]
        assert got == exhaustive(alg, n)


def test_is_stationary_reads_the_law_not_its_provenance():
    # one step drops the provenance, so the fixed-point test must compare
    # numerators and den, not the objects
    alg, deck = deck_from_string("aabb")
    states = rearrangement_class(alg, deck)
    K = build_transition_matrix(alg, riffle_spec(4), states=states)
    (pi,) = stationary_distributions(alg, 4, states=states)
    assert [str(key) for key in pi.provenance] == ["a", "a", "b", "b"]
    after = evolve(K, pi, 1)
    assert after.provenance is None and after != pi
    assert is_stationary(K, pi)
    relabelled = Distribution(states, pi.nums, pi.den, provenance=("any",))
    assert is_stationary(K, relabelled)
    start = point_mass(K, deck)
    assert not is_stationary(K, Distribution(states, start.nums, start.den, provenance=("any",)))


def test_stationary_forest_point_mass():
    falg = forest_algebra()
    (pi,) = stationary_distributions(falg, 2)
    assert distribution_to_dict(pi) == {"()()": "1"}
    spec = top_to_random_spec(2)
    K = build_transition_matrix(falg, spec)
    assert is_stationary(K, pi)
    # the two-vertex chain absorbs into the all-dots forest
    path = parse_forest("(())")
    assert K.row_of(path) == {parse_forest("()()"): F(1)}


def test_lumping_identity_and_constant():
    _, deck, K = _class_chain(3, top_to_random_spec)
    res = lumping_check(K, lambda s: str(s))
    assert res.ok and res.quotient.size == K.size
    res = lumping_check(K, lambda s: "all")
    assert res.ok and res.quotient.size == 1
    assert res.quotient.kernel.entries == ((1,),)
    assert res.quotient.kernel.den == 1


def test_lumping_descents_under_riffle():
    alg, deck = distinct_deck(4)
    states = rearrangement_class(alg, deck)
    K = build_transition_matrix(alg, riffle_spec(4), states=states)
    res = lumping_check(K, lambda s: tuple(sorted(descent_peak_sets(s, alg.alphabet).descents)))
    assert res.ok
    assert res.quotient.size == 8
    for row in res.quotient.kernel.entries:
        assert sum(row) == res.quotient.kernel.den


@pytest.mark.parametrize("n", [3, 4])
def test_lumping_quotient_is_stored_over_its_least_common_denominator(n):
    # the class sums are passed over the kernel's den; the constant
    # statistic's sums are all den, so its quotient is 1 over 1
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    statistics = [
        lambda s: tuple(sorted(descent_peak_sets(s, alg.alphabet).descents)),
        lambda s: s.index(deck[0]),
        lambda s: "all",
    ]
    for spec in (riffle_spec(n), top_to_random_spec(n), top_or_bottom_spec(n, F(1, 3))):
        K = build_transition_matrix(alg, spec, states=states)
        for statistic in statistics:
            q = lumping_check(K, statistic).quotient.kernel
            assert q.den == lcm(*(F(c, q.den).denominator for row in q.entries for c in row))
        assert (q.entries, q.den) == (((1,),), 1) and K.kernel.den > 1


def test_lumping_failure_produces_witness():
    _, deck, K = _class_chain(3, top_to_random_spec)
    # first letter is not a Markov statistic for this chain
    res = lumping_check(K, lambda s: s[0])
    assert not res.ok
    x, x2, label_class = res.witness
    assert x[0] == x2[0]


def test_exports():
    _, deck, K = _class_chain(3, top_to_random_spec)
    csv_text = "".join(matrix_to_csv(K))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "state,123,132,213,231,312,321"
    assert len(lines) == 7
    data = matrix_to_dict(K)
    assert data["beta"] == "3"
    assert json.dumps(data)  # serialisable
    assert data["rows"][0][0] == "1/3"

    dist = Distribution(K.states, [1] * 6, 6)
    assert distribution_to_dict(dist)["123"] == "1/6"


def test_exports_form_one_fraction_per_distinct_numerator(monkeypatch):
    # riffle(2) on five distinct cards: 120 states, 3,240 non-zeros, 2 distinct numerators
    _, _, K = _class_chain(5, riffle_spec)
    numerators = {c for row in K.rows for _, c in row}
    assert len(numerators) < sum(map(len, K.rows))
    expected = matrix_to_dict(K)["rows"]
    calls = []

    def counted(*args):
        calls.append(args)
        return F(*args)

    monkeypatch.setattr("hopfchains.chain.Fraction", counted)
    assert matrix_to_dict(K)["rows"] == expected
    assert sorted(calls) == sorted((c, K.den) for c in numerators)
    calls.clear()
    assert "".join(matrix_to_csv(K)).count("\n") == K.size + 1
    assert len(calls) == len(numerators)


# ---------------------------------------------------------------------------
# oracles for the integer kernel


def _fraction_rows(alg, spec, states):
    """Reference kernel as dense Fraction rows, straight from the formula
    K[x][y] = c_xy eta(y) / (beta_n eta(x))."""
    index = {s: i for i, s in enumerate(states)}
    beta = beta_n(spec)
    rows = []
    for x in states:
        row = [F(0)] * len(states)
        image, den = apply_cpp(alg, {x: 1}, spec)
        for y, c in image.items():
            row[index[y]] = F(c, den) * eta(alg, y) / (beta * eta(alg, x))
        rows.append(row)
    return rows


def _fraction_evolve(rows, weights, t):
    """Reference: the Fraction loop `evolve` ran before the kernel was stored
    as integers."""
    for _ in range(t):
        new = [F(0)] * len(rows)
        for i, wi in enumerate(weights):
            if not wi:
                continue
            for j, kij in enumerate(rows[i]):
                if kij:
                    new[j] += wi * kij
        weights = new
    return weights


def _grid(space):
    return [m for m in acceptance._grid_matrices() if m[0] == space]


GRID_SPACES = [label for label, *_ in acceptance.grid_spaces()]


@pytest.mark.parametrize("space", GRID_SPACES)
def test_integer_kernel_matches_fraction_reference(space):
    # word spaces take the relabelled build from one position law; the
    # reference applies the operator to every state, as the per-row build does
    for _, preset, alg, n, states, K in _grid(space):
        rows = _fraction_rows(alg, K.spec, states)
        assert [K.row_of(x) for x in states] == [
            {y: p for y, p in zip(states, row) if p} for row in rows
        ], preset
        assert K.etas == [eta(alg, s) for s in states], preset
        # a start law with a nontrivial common denominator, and a rational statistic
        total = len(states) * (len(states) + 1) // 2
        start = Distribution(states, list(range(1, len(states) + 1)), total)
        values = {x: F(i % 3, 2) for i, x in enumerate(states)}
        reference = [_fraction_evolve(rows, _weights(start), t) for t in range(4)]
        for t in range(4):
            assert _weights(evolve(K, start, t)) == reference[t], (preset, t)
        assert expectations(K, start, 3, values.__getitem__) == [
            sum((w * values[x] for x, w in zip(states, ws)), F(0)) for ws in reference
        ], preset


@pytest.mark.parametrize("space", GRID_SPACES)
def test_kernel_is_stored_over_its_least_common_denominator(space):
    for _, preset, *_, K in _grid(space):
        entries, den = K.kernel.entries, K.kernel.den
        assert all(type(c) is int for row in entries for c in row), preset
        assert den == lcm(*(F(c, den).denominator for row in entries for c in row)), preset


def _dense_evolve(K, start, t):
    """Reference: the law after t steps, stepped through every dense entry."""
    nums, den = list(start.nums), start.den
    for _ in range(t):
        new = [0] * K.size
        for w, row in zip(nums, K.kernel.entries):
            for j, a in enumerate(row):
                new[j] += w * a
        nums, den = new, den * K.kernel.den
    return [F(c, den) for c in nums]


def _dense_lumping(K, statistic):
    """Reference: the dense-row lumping check, as ((x, x', class) or None,
    {class: {class: probability}})."""
    labels = [statistic(s) for s in K.states]
    classes = sorted(set(labels), key=repr)
    targets = [classes.index(label) for label in labels]
    seen: dict = {}
    for x, row, label in zip(K.states, K.kernel.entries, labels):
        sums = [0] * len(classes)
        for a, k in zip(row, targets):
            sums[k] += a
        prev, prev_sums = seen.setdefault(label, (x, sums))
        if prev_sums != sums:
            return (prev, x, next(c for c, a, b in zip(classes, prev_sums, sums) if a != b)), None
    den = K.kernel.den
    return None, {c: {d: F(a, den) for d, a in zip(classes, seen[c][1]) if a} for c in classes}


def _dense_draws(K, start, steps):
    """Reference: the row sampler's path read off the dense view, each row's
    non-zero entries over their gcd, in state order."""
    rng, state, path = RngStream(7, 0), start, []
    for _ in range(steps):
        row = K.kernel.entries[K.index[state]]
        nums = [c for c in row if c]
        cum = list(accumulate(c // gcd(*nums) for c in nums))
        state = [y for y, c in zip(K.states, row) if c][bisect_right(cum, rng.randbelow(cum[-1]))]
        path.append(state)
    return path


@pytest.mark.parametrize("space", GRID_SPACES)
def test_no_chain_path_forms_a_dense_kernel(space, monkeypatch):
    # every reader walks the sparse rows; only then is the dense view
    # formed, and each value is checked against a reading of it
    def refuse(*args):
        raise AssertionError("a chain path formed a dense kernel")

    for _, preset, alg, n, states, spec in [c for c in acceptance._grid_cells() if c[0] == space]:
        total = len(states) * (len(states) + 1) // 2
        start = Distribution(states, list(range(1, len(states) + 1)), total)
        values = {x: F(i % 3, 2) for i, x in enumerate(states)}
        statistics = [lambda s: "all", lambda s: s[0], lambda s: states.index(s) % 3]
        with monkeypatch.context() as m:
            m.setattr("hopfchains.chain.dense_matrix", refuse)
            K = build_transition_matrix(alg, spec, states=states)
            laws = [_weights(evolve(K, start, t)) for t in range(3)]
            series = expectations(K, start, 2, values.__getitem__)
            pis = stationary_distributions(alg, n, states)
            fixed = [is_stationary(K, pi) for pi in pis]
            lumped = [lumping_check(K, statistic) for statistic in statistics]
            rows = [K.row_of(x) for x in states]
            data, csv_text = matrix_to_dict(K), "".join(matrix_to_csv(K))
            stepper, rng, path = matrix_stepper(K), RngStream(7, 0), [states[-1]]
            for _ in range(8):
                path.append(stepper(path[-1], rng))
        assert all(a < b for row in K.rows for (a, _), (b, _) in zip(row, row[1:])), preset
        assert K.den == K.kernel.den, preset
        reference = [_dense_evolve(K, start, t) for t in range(3)]
        assert laws == reference, preset
        assert series == [sum(w * values[x] for x, w in zip(states, ws)) for ws in reference], preset
        assert fixed == [_dense_evolve(K, pi, 1) == _weights(pi) for pi in pis], preset
        for statistic, result in zip(statistics, lumped):
            witness, quotient = _dense_lumping(K, statistic)
            assert result.witness == witness, preset
            assert (result.quotient and {c: result.quotient.row_of(c) for c in quotient}) == quotient
        den, entries = K.kernel.den, K.kernel.entries
        assert rows == [{y: F(c, den) for y, c in zip(states, row) if c} for row in entries], preset
        text = {c: str(F(c, den)) for row in entries for c in row}
        lines = [[text[c] for c in row] for row in entries]
        assert data["rows"] == lines, preset
        assert csv_text.splitlines()[1:] == [f"{x}," + ",".join(row) for x, row in zip(states, lines)]
        assert path[1:] == _dense_draws(K, states[-1], 8), preset


def test_integer_rows_reduce_to_their_least_common_denominator():
    m = RatMatrix([[3, 6], [0, 9]], 12)
    assert (m.entries, m.den) == (((1, 2), (0, 3)), 4)
    assert RatMatrix([[3, 2]], 6).entries == ((3, 2),)
    assert RatMatrix([[2, -4]], 2) == RatMatrix([[1, -2]], 1)
    # equal matrices compare equal however far their rows were scaled
    assert RatMatrix([[6, 4], [0, -6]], 12) == RatMatrix([[3, 2], [0, -3]], 6)
    assert RatMatrix([[1, 1]], 2).den == 2
    # the zero matrix is stored over 1
    zero = RatMatrix([[0, 0]], 7)
    assert (zero.entries, zero.den) == (((0, 0),), 1)
    with pytest.raises(ValueError):
        RatMatrix([], 1)


def _per_row(monkeypatch, alg, spec, states):
    # the kernel from one apply_cpp call per state, the position law turned off
    with monkeypatch.context() as m:
        m.setattr("hopfchains.chain.relabels", lambda *a: False)
        return build_transition_matrix(alg, spec, states=states).kernel


def test_relabelled_build_on_a_deck_in_non_identity_order(monkeypatch):
    alg, deck = deck_from_string("654312")
    states = rearrangement_class(alg, deck)
    for spec in (top_or_bottom_spec(6, F(1, 3)), top_to_random_spec(6)):
        K = build_transition_matrix(alg, spec, states=states)
        assert K.kernel == _per_row(monkeypatch, alg, spec, states), spec
    # the dual word algebra cuts and merges by position too
    dual = FreeAssociativeAlgebra("abc")
    states = rearrangement_class(dual, Word("cab"))
    for spec in (riffle_spec(3), top_or_bottom_spec(3, F(1, 3))):
        K = build_transition_matrix(dual, spec, states=states)
        assert K.kernel == _per_row(monkeypatch, dual, spec, states), spec


@pytest.mark.parametrize("dual", [False, True], ids=["shuffle", "free-assoc"])
def test_position_law_is_over_its_least_common_denominator(dual):
    # the image's numerators over beta_n times its den, divided by their gcd
    alg = FreeAssociativeAlgebra("ab") if dual else ShuffleAlgebra("ab")
    for n in (3, 4, 5):
        for label, spec in acceptance.grid_presets(n):
            law, den = position_law(alg, spec)
            numerators = [c for _, c in law]
            assert type(den) is int and all(type(c) is int and c > 0 for c in numerators), label
            assert sum(numerators) == den, label
            assert gcd(den, *numerators) == 1, label
            assert len({sigma for sigma, _ in law}) == len(law), label


def test_position_law_is_a_probability_law_on_permutations():
    alg, _ = distinct_deck(4)
    law, den = position_law(alg, top_to_random_spec(4))
    # top-to-random moves the top card to one of the 4 positions
    assert den == 4 and sorted(law) == [
        ((0, 1, 2, 3), 1),
        ((1, 0, 2, 3), 1),
        ((1, 2, 0, 3), 1),
        ((1, 2, 3, 0), 1),
    ]


def test_relabelled_build_reports_a_state_space_that_is_not_closed(monkeypatch):
    alg, deck = distinct_deck(3)
    states = rearrangement_class(alg, deck)
    with pytest.raises(ValueError, match="not closed: Word\\('123'\\) reaches Word\\('213'\\)"):
        build_transition_matrix(alg, top_to_random_spec(3), states=states[:1] + states[3:])
    # one apply_cpp call per state refuses the same state list
    monkeypatch.setattr("hopfchains.chain.relabels", lambda *a: False)
    with pytest.raises(ValueError, match="not closed: Word\\('123'\\) reaches Word\\('213'\\)"):
        build_transition_matrix(alg, top_to_random_spec(3), states=states[:1] + states[3:])


def test_relabelled_build_is_chosen_by_the_size_of_the_position_law(monkeypatch):
    # the law's size bound, min(n!, sum of multinomial(n; c) over the
    # spec's compositions c), against RELABEL_RATIO * states^2
    def bound(spec):
        return min(factorial(spec.n), sum(multinomial(spec.n, c) for c, _ in spec.terms))

    def build_without(name, deck, spec):
        # the build never reaches chain.<name>
        alg, start = deck_from_string(deck)
        states = rearrangement_class(alg, start)
        with monkeypatch.context() as m:
            m.setattr(f"hopfchains.chain.{name}", None)
            assert build_transition_matrix(alg, spec, states=states).size == len(states)

    relabelled = partial(build_without, "apply_cpp")
    per_row = partial(build_without, "position_law")

    riffle, trinomial = riffle_spec(6), trinomial_spec(6, F(1, 4), F(1, 2), F(1, 4))
    # riffle(2) at n=6 holds 1 + (2^6 - 2) = 63 permutations at most, so
    # aaaaab (6 states) takes one position law, as aaaabb (15 states) does
    assert bound(riffle) == 63 <= RELABEL_RATIO * 6**2
    relabelled("aaaaab", riffle)
    relabelled("aaaabb", riffle)
    # trinomial's bound is 6!: aaaabb still takes one position law, and
    # aaaaab one apply_cpp call per state
    assert RELABEL_RATIO * 6**2 < bound(trinomial) == factorial(6) <= RELABEL_RATIO * 15**2
    relabelled("aaaabb", trinomial)
    per_row("aaaaab", trinomial)
