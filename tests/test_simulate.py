import hashlib
import json
import os
import random
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path
from string import ascii_lowercase

import pytest

from hopfchains import simulate
from hopfchains.acceptance import grid_presets
from hopfchains.chain import build_transition_matrix, expectations, point_mass
from hopfchains.cli import main
from hopfchains.hopf import SpecError, composition_law, normalize_spec
from hopfchains.presets import (
    riffle_spec,
    top_or_bottom_spec,
    top_to_random_spec,
    trinomial_spec,
)
from hopfchains.shuffle import (
    Word,
    deck_from_string,
    deck_statistic,
    descent_peak_sets,
    distinct_deck,
    rearrangement_class,
)
from hopfchains.simulate import (
    RngStream,
    _ScriptedBits,
    cut_law,
    gsr_step,
    gsr_stepper,
    matrix_stepper,
    outcome_law,
    run_trajectories,
    trial_moments,
)

SEED = 1234


def test_rng_streams_are_independent_and_reproducible():
    a = [RngStream(7, 0).randbelow(1000) for _ in range(5)]
    b = [RngStream(7, 0).randbelow(1000) for _ in range(5)]
    c = [RngStream(7, 1).randbelow(1000) for _ in range(5)]
    assert a == b
    assert a != c


def test_rng_randbelow_bounds():
    rng = RngStream(3, 0)
    draws = [rng.randbelow(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randbelow(0)


def _reference_stream_draws(seed: int, stream: int, bounds) -> list[int]:
    """The stream's definition: a Mersenne Twister seeded with the sha256
    of "hopfchains:{seed}:{stream}", and rejection on getrandbits."""
    material = f"hopfchains:{seed}:{stream}".encode()
    rng = random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))
    draws = []
    for m in bounds:
        k = m.bit_length()
        r = rng.getrandbits(k)
        while r >= m:
            r = rng.getrandbits(k)
        draws.append(r)
    return draws


@pytest.mark.parametrize(
    "seed, stream", [(0, 0), (0, 1), (1234, 0), (1234, 7), (-5, 3), (2**40, 19_999)]
)
def test_rng_stream_follows_its_definition(seed, stream):
    # a mix of bounds: powers of two and just above them (rejection is
    # most likely there), one, and bounds past one machine word
    mix = [1, 2, 3, 4, 5, 7, 8, 9, 100, 128, 129, 5040, 2**31 + 1, 2**64 + 13, 10**30]
    bounds = [mix[i % len(mix)] for i in range(200)]
    rng = RngStream(seed, stream)
    assert [rng.randbelow(m) for m in bounds] == _reference_stream_draws(seed, stream, bounds)


def test_simulate_20_card_deck_digest(capsys):
    # a deck the benchmark never runs: 20,000 visits of 20-card decks, which
    # rarely repeat, so the visit index is folded more than once
    argv = ["simulate", "--deck", "abcdefghijklmnopqrst", "--preset", "riffle",
            "--trials", "2000", "--t", "10", "--seed", "1", "--stat", "descents"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "0718c86526b001b8138e66eb4e76f40b962fd107bf5c3f863fcfd4c6405c19ab"
    )


def _table_steps(spec) -> dict:
    """Each composition's step in the spec's cumulative weight table, and
    the table's total: a draw r in [0, total) lands on a composition for
    exactly its step's worth of r."""
    law = cut_law(spec)
    comps = [tuple(sizes) for sizes, _ in law.piles]
    assert comps == sorted(comps)
    steps = {c: b - a for c, a, b in zip(comps, [0] + law.cum, law.cum)}
    return steps, law.total


def test_sample_composition_point_mass():
    law = cut_law(top_to_random_spec(5))
    assert (law.cum, law.total, law.bits) == ([1], 1, 1)
    assert law.piles == [([1, 4], [1, 5])]
    assert law.slots == ((4, 3), (3, 3), (2, 2), (1, 2), (0, 1))


def test_sample_composition_coin_flip_frequencies():
    steps, total = _table_steps(top_or_bottom_spec(4, F(1, 2)))
    assert steps == {(1, 3): 1, (3, 1): 1} and total == 2


def test_sample_composition_riffle_law():
    steps, total = _table_steps(riffle_spec(3))
    assert steps == {(1, 2): 3, (2, 1): 3, (3,): 2} and total == 8


def test_cut_and_drop_single_pile_is_identity():
    # a riffle keeps a 4-card deck as one pile with probability 1/8; that
    # pile drops its cards bottom-up, whatever the drop words, which
    # rebuilds the deck
    deck = Word("1234")
    stepper = gsr_stepper(riffle_spec(4))
    law = cut_law(riffle_spec(4))
    whole = law.piles.index(([4], [4]))
    word = law.cum[whole - 1] if whole else 0
    for script in [(), (3, 2, 1, 0), (1, 0, 1)]:
        assert stepper(deck, _ScriptedBits((word, *script))) == deck


def test_cut_and_drop_top_to_random_insertion():
    # cutting (1, n-1) and dropping proportionally inserts the old top card
    # uniformly: over many trials all 4 insertion positions appear
    deck = Word("1234")
    stepper = gsr_stepper(top_to_random_spec(4))
    rng = RngStream(SEED, 0)
    seen = {str(stepper(deck, rng)) for _ in range(500)}
    assert seen == {"1234", "2134", "2314", "2341"}


def test_cut_and_drop_rejects_bad_composition():
    # a spec's compositions must cut its deck, and its law cuts no other deck
    with pytest.raises(SpecError, match="does not sum to n=3"):
        normalize_spec(3, [((1, 1), 1)])
    with pytest.raises(ValueError, match="does not cut a deck of 4"):
        gsr_stepper(riffle_spec(3))(Word("1234"), RngStream(0, 0))


def test_cut_and_drop_rejects_a_negative_part():
    # the parts sum to the deck size, but no cut has a pile of -1 cards
    for comp in [(5, -1), (3, -1, 2)]:
        with pytest.raises(SpecError, match="negative part"):
            normalize_spec(4, [(comp, 1), ((1, 3), 1)])


_ORACLE_DECKS = [
    ("distinct n=3", *distinct_deck(3)),
    ("distinct n=4", *distinct_deck(4)),
    ("distinct n=5", *distinct_deck(5)),
    ("deck aabb", *deck_from_string("aabb")),
]


@pytest.mark.parametrize("label,alg,deck", _ORACLE_DECKS, ids=[d[0] for d in _ORACLE_DECKS])
def test_gsr_step_outcome_law_is_the_exact_row(label, alg, deck):
    # cut-and-drop given the cut sizes is a uniform interleaving of the
    # piles (Bayer-Diaconis), so summing its exact outcome law over the
    # composition law gives the kernel row with no sampling error, from
    # the first deck of the class and from its last
    n = deck.degree
    states = rearrangement_class(alg, deck)
    for preset_label, spec in [*grid_presets(n), ("top-to-random", top_to_random_spec(n))]:
        K = build_transition_matrix(alg, spec, states=states)
        for start in (deck, states[-1]):
            law = outcome_law(cut_law(spec), start)
            assert law == K.row_of(start), (label, preset_label, start)


@pytest.mark.parametrize("label", ["distinct n=3 top-to-random", "forests n=3 trinomial"])
def test_matrix_stepper_draws_each_row_exactly(label):
    # a stream answering randbelow(total) with each value below the row
    # total once makes the stepper visit every target for exactly its
    # weight: the counts over the total are the kernel row
    from hopfchains.forests import forest_algebra, parse_forest

    if label.startswith("distinct"):
        alg, start = distinct_deck(3)
        states = rearrangement_class(alg, start)
        K = build_transition_matrix(alg, top_to_random_spec(3), states=states)
    else:
        start = parse_forest("(()())")
        K = build_transition_matrix(forest_algebra(), trinomial_spec(3, F(1, 4), F(1, 2), F(1, 4)))
    stepper = matrix_stepper(K)
    probe = _ScriptedStream(())
    stepper(start, probe)
    total = probe.bounds[0]
    rng = _ScriptedStream(range(total))
    counts = Counter(stepper(start, rng) for _ in range(total))
    assert rng.bounds == [total] * total
    assert {y: F(c, total) for y, c in counts.items()} == K.row_of(start)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_composition_sampler_draws_each_composition_for_its_weight(n):
    # the step's composition draw reads the table: each composition takes
    # its step's worth of the draws below the total
    for preset_label, spec in grid_presets(n):
        steps, total = _table_steps(spec)
        assert all(step > 0 for step in steps.values()), preset_label
        assert steps == {c: p * total for c, p in composition_law(spec).items()}, preset_label
        # the least total: the steps share no factor
        assert gcd(*steps.values()) == 1, preset_label


def test_trajectory_determinism():
    spec = riffle_spec(4)
    alg, deck = distinct_deck(4)
    index = {s: F(i) for i, s in enumerate(rearrangement_class(alg, deck))}
    stat = {"state": index.__getitem__}
    r1 = run_trajectories(deck, 10, 50, gsr_stepper(spec), SEED, stat)
    r2 = run_trajectories(deck, 10, 50, gsr_stepper(spec), SEED, stat)
    assert r1.to_dict() == r2.to_dict()
    assert len(r1.to_dict()["statistics"]["state"]) == 11


def test_run_trajectories_time_zero():
    deck = Word("1234")
    spec = riffle_spec(4)
    stat = {"descents": lambda w_: F(0) if str(w_) == "1234" else F(1)}
    report = run_trajectories(deck, 0, 10, gsr_stepper(spec), SEED, stat)
    assert report.series["descents"].mean(0) == 0
    assert report.series["descents"].variance(0) == 0


def test_run_trajectories_mean_matches_exact():
    n, q = 4, F(1, 2)
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    spec = top_or_bottom_spec(n, q)
    K = build_transition_matrix(alg, spec, states=states)
    stat_fn = deck_statistic("weighted-descents", alg.alphabet, n, q)
    report = run_trajectories(deck, 1, 50_000, gsr_stepper(spec), SEED, {"wd": stat_fn})
    target = expectations(K, point_mass(K, deck), 1, stat_fn)[1]
    series = report.series["wd"]
    sem = (float(series.variance(1)) / report.trials) ** 0.5
    assert abs(float(series.mean(1)) - float(target)) < 3 * sem


def test_two_handed_descent_mean_at_t2():
    # ascending 5-card deck, two riffles: expected descent count (1-2^-2)*2
    alg, deck = distinct_deck(5)
    spec = riffle_spec(5)
    stat_fn = lambda w_: F(len(descent_peak_sets(w_, alg.alphabet).descents))
    report = run_trajectories(deck, 2, 30_000, gsr_stepper(spec), SEED, {"d": stat_fn})
    series = report.series["d"]
    sem = (float(series.variance(2)) / report.trials) ** 0.5
    assert abs(float(series.mean(2)) - 1.5) < 3 * sem


def test_matrix_stepper_draws_as_the_reduced_fraction_row():
    # reference: each row as reduced Fractions, cleared by the lcm of
    # their denominators; the stepper must make the very same draws
    from hopfchains.forests import forest_algebra

    falg = forest_algebra()
    # thirds: a row scaled by a power of two would draw alike anyway
    K = build_transition_matrix(falg, trinomial_spec(5, F(1, 3), F(1, 3), F(1, 3)))
    assert any(gcd(*(c for _, c in row)) > 1 for row in K.rows)

    def reference(state, rng):
        row = K.row_of(state)
        den = lcm(*(p.denominator for p in row.values()))
        targets = list(row)
        return targets[pick_weighted(rng, [int(p * den) for p in row.values()])]

    stepper = matrix_stepper(K)
    for stream in range(10):
        for start in K.states:
            rng_a, rng_b = RngStream(SEED, stream), RngStream(SEED, stream)
            a = b = start
            for _ in range(10):
                a, b = stepper(a, rng_a), reference(b, rng_b)
                assert a == b


# ---------------------------------------------------------------------------
# reference samplers: the per-card weight-sum draws the samplers must repeat


def pick_weighted(rng, weights: list[int]) -> int:
    """Index drawn with probability weight/total (integer inverse-CDF)."""
    total = sum(weights)
    r = rng.randbelow(total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    raise AssertionError("unreachable")  # pragma: no cover


def _reference_composition_sampler(spec):
    law = sorted(composition_law(spec).items())
    den = lcm(*(p.denominator for _, p in law))
    comps = [comp for comp, _ in law]
    weights = [p.numerator * (den // p.denominator) for _, p in law]
    return lambda rng: comps[pick_weighted(rng, weights)]


def _reference_gsr_step(deck, comp, rng):
    letters = deck
    if sum(comp) != len(letters):
        raise ValueError(f"composition {comp} does not cut a deck of {len(letters)}")
    piles = []
    at = 0
    for size in comp:
        piles.append(list(letters[at : at + size]))
        at += size
    sizes = list(comp)
    bottom_up = []
    for _ in letters:
        i = pick_weighted(rng, sizes)
        bottom_up.append(piles[i].pop())
        sizes[i] -= 1
    return Word(reversed(bottom_up))


def _reference_gsr_stepper(spec):
    draw = _reference_composition_sampler(spec)
    return lambda state, rng: _reference_gsr_step(state, draw(rng), rng)


def _reference_matrix_stepper(matrix):
    row_cache: dict = {}

    def step(state, rng):
        cached = row_cache.get(state)
        if cached is None:
            row = matrix.row_of(state)
            den = lcm(*(p.denominator for p in row.values()))
            targets, nums = list(row), [int(p * den) for p in row.values()]
            g = gcd(*nums)
            cached = row_cache[state] = targets, [c // g for c in nums]
        targets, weights = cached
        return targets[pick_weighted(rng, weights)]

    return step


def _assert_same_draws(stepper, reference, start, streams, steps, label):
    """After every step, the same state and the same Mersenne Twister state."""
    for k in range(streams):
        rng_a, rng_b = RngStream(SEED, k), RngStream(SEED, k)
        a = b = start
        for _ in range(steps):
            a, b = stepper(a, rng_a), reference(b, rng_b)
            assert a == b, (label, k)
            assert rng_a._rng.getstate() == rng_b._rng.getstate(), (label, k)


_IDENTITY_DECKS = [
    *(distinct_deck(n)[1] for n in range(3, 8)),
    Word("aabb"),
    Word(ascii_lowercase[:20]),
]


@pytest.mark.parametrize("deck", _IDENTITY_DECKS, ids=str)
def test_gsr_stepper_makes_the_reference_draws(deck):
    # the inline draws consume the stream as the reference's randbelow
    # calls do, so the trajectory and the generator state stay equal
    for preset_label, spec in grid_presets(deck.degree):
        _assert_same_draws(
            gsr_stepper(spec), _reference_gsr_stepper(spec), deck, 40, 6, preset_label
        )


class _ScriptedStream(RngStream):
    """Answers `randbelow` from a fixed script, then with 0, recording every bound."""

    def __init__(self, script):
        self.script = script
        self.bounds = []

    def randbelow(self, n: int) -> int:
        k = len(self.bounds)
        self.bounds.append(n)
        return self.script[k] if k < len(self.script) else 0


def test_gsr_step_makes_the_reference_draws_under_a_script():
    # every composition's first word, then drops answered 0, with their
    # largest values, and by a mixed prefix followed by zeros; the
    # reference reads the same answers through randbelow
    deck = distinct_deck(6)[1]
    law = cut_law(trinomial_spec(6, F(1, 4), F(1, 2), F(1, 4)))
    for i, word in enumerate([0] + law.cum[:-1]):
        assert bisect_right(law.cum, word) == i
        sizes = law.piles[i][0]
        for script in [(), (5, 4, 3, 2, 1, 0), (5, 0, 3)]:
            a, b = _ScriptedBits((word, *script)), _ScriptedStream(script)
            assert gsr_step(law, deck, a) == _reference_gsr_step(deck, sizes, b), (sizes, script)
            assert b.bounds == list(range(6, 0, -1))
            assert a.bits == [law.bits] + [m.bit_length() for m in b.bounds]


@pytest.mark.parametrize("n", [3, 4])
def test_matrix_stepper_makes_the_reference_draws(n):
    from hopfchains.forests import forest_algebra

    falg = forest_algebra()
    alg, deck = distinct_deck(n)
    words = rearrangement_class(alg, deck)
    for preset_label, spec in grid_presets(n):
        for label, K in [
            ("forests", build_transition_matrix(falg, spec)),
            ("distinct", build_transition_matrix(alg, spec, states=words)),
        ]:
            stepper, reference = matrix_stepper(K), _reference_matrix_stepper(K)
            for start in K.states:
                _assert_same_draws(stepper, reference, start, 5, 6, (label, preset_label))


def _reference_totals(start, steps, trials, stepper, seed, stats):
    """Per-sample Fraction accumulation: the statistic at every sample."""
    total = {name: [F(0)] * (steps + 1) for name in stats}
    total_sq = {name: [F(0)] * (steps + 1) for name in stats}
    for trial in range(trials):
        rng = RngStream(seed, trial + 1)
        state = start
        for t in range(steps + 1):
            if t:
                state = stepper(state, rng)
            for name, fn in stats.items():
                value = fn(state)
                total[name][t] += value
                total_sq[name][t] += value * value
    return total, total_sq


def _trajectory_cases():
    from hopfchains.forests import f_j_statistic, forest_algebra, parse_forest

    alg, deck = distinct_deck(4)
    riffle_stats = {
        "wd": deck_statistic("weighted-descents", alg.alphabet, 4, F(1, 3)),
        "d": lambda w: F(len(descent_peak_sets(w, alg.alphabet).descents)),
    }
    yield pytest.param(deck, lambda: gsr_stepper(riffle_spec(4)), riffle_stats, id="riffle-distinct-4")
    balg, bdeck = deck_from_string("aabb")
    trinomial = trinomial_spec(4, F(1, 4), F(1, 4), F(1, 2))
    deck_stats = {
        "d": lambda w: F(len(descent_peak_sets(w, balg.alphabet).descents)),
        "wp": deck_statistic("weighted-peaks", balg.alphabet, 4, F(2, 5)),
    }
    yield pytest.param(bdeck, lambda: gsr_stepper(trinomial), deck_stats, id="trinomial-aabb")
    K = build_transition_matrix(forest_algebra(), trinomial_spec(4, F(1, 4), F(1, 2), F(1, 4)))
    forest_stats = {
        "f2": lambda f: f_j_statistic(f, 2, F(1, 2), F(1, 4)),
        "f3": lambda f: f_j_statistic(f, 3, F(1, 3), F(1, 5)),
    }
    yield pytest.param(parse_forest("(()()())"), lambda: matrix_stepper(K), forest_stats, id="forests-4")


@pytest.mark.parametrize("start, make_stepper, stats", list(_trajectory_cases()))
def test_run_trajectories_totals_match_per_sample_reference(start, make_stepper, stats):
    steps, trials = 3, 300
    report = run_trajectories(start, steps, trials, make_stepper(), SEED, stats)
    total, total_sq = _reference_totals(start, steps, trials, make_stepper(), SEED, stats)
    for name in stats:
        assert report.series[name].total == total[name], name
        assert report.series[name].total_sq == total_sq[name], name


@pytest.mark.parametrize("start, make_stepper, stats", list(_trajectory_cases())[::2])
def test_run_trajectories_folded_batches_match_per_sample_reference(
    start, make_stepper, stats, monkeypatch
):
    # a batch of two distinct states forces a fold after nearly every trial
    monkeypatch.setattr(simulate, "_BATCH", 2)
    steps, trials = 3, 200
    calls = Counter()

    def counted(name, fn):
        def stat(state):
            calls[name] += 1
            return fn(state)

        return stat

    counted_stats = {name: counted(name, fn) for name, fn in stats.items()}
    report = run_trajectories(start, steps, trials, make_stepper(), SEED, counted_stats)
    total, total_sq = _reference_totals(start, steps, trials, make_stepper(), SEED, stats)
    for name in stats:
        assert report.series[name].total == total[name], name
        assert report.series[name].total_sq == total_sq[name], name
        # each fold evaluates only the states seen since the last one, so
        # the index is cleared and the calls stay within one per sample
        assert calls[name] <= trials * (steps + 1), name


def test_run_trajectories_evaluates_each_statistic_once_per_visited_state():
    alg, deck = distinct_deck(4)
    steps, trials = 3, 500
    calls = {"a": Counter(), "b": Counter()}

    def counted(name):
        def stat(w):
            calls[name][w] += 1
            return F(len(descent_peak_sets(w, alg.alphabet).descents))

        return stat

    stepper = gsr_stepper(riffle_spec(4))
    run_trajectories(deck, steps, trials, stepper, SEED, {n: counted(n) for n in calls})
    visited = set()
    for trial in range(trials):
        rng, state = RngStream(SEED, trial + 1), deck
        visited.add(state)
        for _ in range(steps):
            state = stepper(state, rng)
            visited.add(state)
    assert len(visited) <= len(rearrangement_class(alg, deck)) < trials * (steps + 1)
    for counter in calls.values():
        assert set(counter) == visited
        assert set(counter.values()) == {1}


def _riffle_7():
    alg, deck = distinct_deck(7)
    stats = {
        "wd": deck_statistic("weighted-descents", alg.alphabet, 7, F(1, 3)),
        "wp": deck_statistic("weighted-peaks", alg.alphabet, 7, F(2, 5)),
    }
    return deck, lambda: gsr_stepper(riffle_spec(7)), stats


def _forests_4():
    (case,) = [p for p in _trajectory_cases() if p.id == "forests-4"]
    return case.values


def _forced_workers(monkeypatch, cpus: int) -> list:
    """Report `cpus` available CPUs and record each fork made in this process."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(simulate, "available_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("case, batch", [
    pytest.param(_riffle_7, None, id="riffle-7"),
    pytest.param(_forests_4, None, id="forests-4"),
    pytest.param(_riffle_7, 2, id="riffle-7-batch-2"),
    pytest.param(_forests_4, 2, id="forests-4-batch-2"),
])
def test_split_over_three_workers_equals_one_range(case, batch, monkeypatch):
    # three workers of 1000, 1000 and 1001 trials; a batch of two distinct
    # states makes every worker fold, and the patch reaches the children
    if batch is not None:
        monkeypatch.setattr(simulate, "_BATCH", batch)
    forks = _forced_workers(monkeypatch, 3)
    start, make_stepper, stats = case()
    steps, trials = 3, 3 * simulate.MIN_TRIALS_PER_WORKER + 1
    report = run_trajectories(start, steps, trials, make_stepper(), SEED, stats)
    assert forks == [os.getpid()] * 2
    one_range = trial_moments(start, steps, 0, trials, make_stepper(), SEED, stats)
    for name in stats:
        assert report.series[name].total == one_range[name][0], name
        assert report.series[name].total_sq == one_range[name][1], name


def test_one_cpu_runs_one_range_without_forking(monkeypatch):
    forks = _forced_workers(monkeypatch, 1)
    start, make_stepper, stats = _riffle_7()
    steps, trials = 2, 2 * simulate.MIN_TRIALS_PER_WORKER
    report = run_trajectories(start, steps, trials, make_stepper(), SEED, stats)
    assert forks == []
    one_range = trial_moments(start, steps, 0, trials, make_stepper(), SEED, stats)
    assert {name: (s.total, s.total_sq) for name, s in report.series.items()} == one_range


@pytest.mark.parametrize("where", ["every worker", "children only"])
def test_worker_errors_reach_the_caller_and_leave_no_child(where, monkeypatch):
    _forced_workers(monkeypatch, 3)
    start, make_stepper, _ = _riffle_7()
    parent = os.getpid()

    def stat(w):
        if w == start and (where == "every worker" or os.getpid() != parent):
            raise ValueError(f"no value at {w}")
        return F(1)

    trials = 3 * simulate.MIN_TRIALS_PER_WORKER + 2
    with pytest.raises(ValueError, match="no value at"):
        run_trajectories(start, 2, trials, make_stepper(), SEED, {"s": stat})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_split_run_prints_one_json_document():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    entry = "import sys; from hopfchains.cli import main; sys.exit(main())"
    argv = ["simulate", "--deck", "1234567", "--preset", "riffle", "--trials", "20000", "--t", "3",
            "--seed", "1", "--stat", "weighted-descents", "--q", "1/3"]
    proc = subprocess.run(
        [sys.executable, "-c", entry, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads(proc.stdout)  # a second document would be extra data
    assert report["command"] == "simulate"
    assert report["trials"] == 20000


def test_report_serialises_with_metadata():
    deck = Word("123")
    spec = riffle_spec(3)
    report = run_trajectories(deck, 2, 100, gsr_stepper(spec), SEED, {"c": lambda w_: F(1)})
    data = report.to_dict()
    assert data["cut_convention"].startswith("top pile first")
    assert data["statistics"]["c"][0]["mean"] == 1.0
