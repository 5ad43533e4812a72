import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfchains.chain import build_transition_matrix
from hopfchains.cli import _json_chunks, main
from hopfchains.hopf import SpecError, beta_n, spec_from_dict, spec_to_dict
from hopfchains.presets import (
    biased_spec,
    bottom_to_random_spec,
    expand_preset,
    preset_names,
    riffle_spec,
    top_m_unordered_spec,
    top_or_bottom_spec,
    top_to_random_spec,
    trinomial_spec,
)
from hopfchains.hopf import normalize_spec
from hopfchains.shuffle import Word, deck_from_string, distinct_deck, rearrangement_class


def weak_compositions(n: int, parts: int):
    """All tuples of `parts` non-negative integers summing to n: every cut
    of n cards into `parts` piles, empty piles included."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in weak_compositions(n - first, parts - 1):
            yield (first,) + rest


def test_weak_compositions():
    comps = list(weak_compositions(2, 2))
    assert comps == [(0, 2), (1, 1), (2, 0)]
    assert all(sum(c) == 4 for c in weak_compositions(4, 3))


def test_riffle_and_biased_match_the_sum_over_every_cut():
    # the reference sums one term per cut into a piles, empty piles included
    for n in range(2, 8):
        for a in range(2, 7):
            cuts = list(weak_compositions(n, a))
            assert riffle_spec(n, a) == normalize_spec(n, [(c, 1) for c in cuts])
            qs = [F(k, a * (a + 1) // 2) for k in range(1, a + 1)]
            reference = []
            for c in cuts:
                w = F(1)
                for q, d in zip(qs, c):
                    w *= q**d
                reference.append((c, w))
            assert biased_spec(n, qs) == normalize_spec(n, reference)


def test_many_hands_expand_without_enumerating_cuts():
    # C(2000 + 3, 3) weak compositions of 4 would be listed one by one
    spec = riffle_spec(4, 2000)
    assert len(spec.terms) == 8  # the compositions of 4
    assert dict(spec.terms)[(1, 1, 1, 1)] == 2000 * 1999 * 1998 * 1997 // 24
    piles = 1200
    spec = biased_spec(4, [F(1, piles)] * piles)
    assert len(spec.terms) == 8
    assert dict(spec.terms)[(4,)] == piles * F(1, piles) ** 4


def test_top_or_bottom_at_q_one_is_top_to_random():
    assert top_or_bottom_spec(5, F(1)) == top_to_random_spec(5)


def test_bottom_to_random_is_top_to_random_on_reversed_decks():
    # moving the bottom card is moving the top card of the reversed deck:
    # K_bottom(x, y) = K_top(rev x, rev y)
    for deck in ("123", "1234", "12345", "aabc"):
        alg, start = deck_from_string(deck)
        states = rearrangement_class(alg, start)
        bottom = build_transition_matrix(alg, bottom_to_random_spec(len(deck)), states=states)
        top = build_transition_matrix(alg, top_to_random_spec(len(deck)), states=states)
        at = {x: i for i, x in enumerate(states)}
        rev = [at[Word(x[::-1])] for x in states]
        assert bottom.kernel.den == top.kernel.den
        assert all(
            bottom.kernel.entries[i][j] == top.kernel.entries[rev[i]][rev[j]]
            for i in range(len(states))
            for j in range(len(states))
        )


def test_cli_spectrum_bottom_to_random_certifies(capsys):
    code = main(["spectrum", "--distinct", "4", "--preset", "bottom-to-random", "--verify-matrix"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["by_eigenvalue"] == {"1": 1, "1/2": 6, "1/4": 8, "0": 9}
    assert data["matrix_verification"]["ok"]


def test_biased_at_half_matches_riffle_up_to_scale():
    # same chain: the specs differ only by the constant 2^-n
    n = 3
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    K_riffle = build_transition_matrix(alg, riffle_spec(n), states=states)
    K_biased = build_transition_matrix(alg, biased_spec(n, (F(1, 2), F(1, 2))), states=states)
    assert K_riffle.kernel == K_biased.kernel
    assert beta_n(riffle_spec(n)) == 2**n * beta_n(biased_spec(n, (F(1, 2), F(1, 2))))


def test_trinomial_expansion_hand_checked_n2():
    q1, q2, q3 = F(1, 4), F(1, 2), F(1, 4)
    spec = trinomial_spec(2, q1, q2, q3)
    terms = dict(spec.terms)
    assert terms[(2,)] == q2**2
    assert terms[(1, 1)] == q1**2 / 2 + q3**2 / 2 + q1 * q3 + q1 * q2 + q2 * q3
    assert beta_n(spec) == 1


def test_trinomial_requires_probability_vector():
    with pytest.raises(SpecError):
        trinomial_spec(3, F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(SpecError):
        trinomial_spec(3, F(-1, 4), F(1), F(1, 4))


def test_top_m_unordered_composition():
    spec = top_m_unordered_spec(5, 2)
    assert spec.terms == (((1, 1, 3), F(1)),)
    spec = top_m_unordered_spec(2, 2)  # the tail block is empty and strips away
    assert spec.terms == (((1, 1), F(1)),)


def test_expand_preset_dispatch():
    assert expand_preset("riffle", 4, {"a": "3"}) == riffle_spec(4, 3)
    assert expand_preset("top-or-bottom", 4, {"q": "1/3"}) == top_or_bottom_spec(4, F(1, 3))
    assert expand_preset("biased", 4, {"q": "1/3"}) == biased_spec(4, (F(1, 3), F(2, 3)))
    assert expand_preset("biased", 3, {"qs": "1/4+1/4+1/2"}) == biased_spec(
        3, (F(1, 4), F(1, 4), F(1, 2))
    )
    assert expand_preset("trinomial", 3, {"q1": "1/4", "q2": "1/2", "q3": "1/4"}) == trinomial_spec(
        3, F(1, 4), F(1, 2), F(1, 4)
    )
    assert "riffle" in preset_names()


def test_expand_preset_errors():
    with pytest.raises(SpecError):
        expand_preset("nope", 4)
    with pytest.raises(SpecError):
        expand_preset("top-m-ordered", 4, {})
    with pytest.raises(SpecError):
        expand_preset("riffle", 4, {"bogus": "1"})


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("top-m-ordered", {}, "top-m-ordered needs parameter m"),
        ("trinomial", {"q1": "1/4"}, "trinomial needs parameters q2, q3"),
        ("trinomial", {"q1": "1/4", "q2": "1/2", "q3": "1/4", "x": "1"},
         "unknown parameters for preset 'trinomial': ['x']"),
        ("biased", {}, "biased needs q (two hands) or qs=q1+q2+..."),
        ("biased", {"q": "1/3", "qs": "1/2+1/2"}, "unknown parameters for preset 'biased': ['q']"),
        ("top-to-random", {"a": "2"}, "unknown parameters for preset 'top-to-random': ['a']"),
    ],
)
def test_expand_preset_error_messages(name, params, message):
    with pytest.raises(SpecError) as exc:
        expand_preset(name, 4, params)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# CLI


def test_cli_matrix_json(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(
        [
            "matrix",
            "--algebra",
            "shuffle",
            "--distinct",
            "3",
            "--preset",
            "top-to-random",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["format_version"] == 1
    assert data["matrix"]["states"][0] == "123"
    assert data["matrix"]["rows"][0][0] == "1/3"


def test_cli_matrix_csv_round_trip(tmp_path):
    out = tmp_path / "m.csv"
    args = [
        "matrix",
        "--algebra",
        "shuffle",
        "--deck",
        "aab",
        "--preset",
        "riffle",
        "--format",
        "csv",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    first = out.read_text()
    assert main(args) == 0
    assert out.read_text() == first  # deterministic export
    assert first.splitlines()[0] == "state,aab,aba,baa"


def test_cli_spectrum_forests_20_counts_every_forest(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumerated the forests on {n} vertices")

    monkeypatch.setattr("hopfchains.forests.enumerate_forests", refuse)
    code = main(["spectrum", "--algebra", "forests", "--n", "20", "--preset", "top-to-random"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    # the forests on 20 vertices number the rooted trees on 21 (A000081)
    assert sum(data["by_eigenvalue"].values()) == 35_221_832


def test_cli_spectrum_verified(capsys):
    code = main(
        [
            "spectrum",
            "--algebra",
            "shuffle",
            "--distinct",
            "4",
            "--preset",
            "top-to-random",
            "--verify-matrix",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["by_eigenvalue"] == {"1": 1, "1/2": 6, "1/4": 8, "0": 9}
    assert data["matrix_verification"]["ok"]


def test_cli_spectrum_distinct_8_counts_every_permutation(capsys):
    code = main(["spectrum", "--distinct", "8", "--preset", "riffle"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(row["multiplicity"] for row in data["rows"]) == 40320
    assert sum(data["by_eigenvalue"].values()) == 40320


def test_cli_spectrum_forests(capsys):
    code = main(
        ["spectrum", "--algebra", "forests", "--n", "3", "--preset", "riffle", "--verify-matrix"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix_verification"]["ok"]


def test_cli_evolve_matches_closed_form(capsys):
    code = main(
        [
            "evolve",
            "--algebra",
            "shuffle",
            "--distinct",
            "4",
            "--preset",
            "top-or-bottom",
            "--params",
            "q=1/2",
            "--q",
            "1/2",
            "--t",
            "5",
            "--stat",
            "weighted-descents",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    values = [row["expectation"] for row in data["values"]]
    expect = [str((1 - F(1, 2) ** t) * F(1, 2)) for t in range(6)]
    assert values == expect


def test_cli_simulate_deterministic(capsys):
    args = [
        "simulate",
        "--algebra",
        "shuffle",
        "--distinct",
        "4",
        "--preset",
        "riffle",
        "--t",
        "2",
        "--trials",
        "500",
        "--seed",
        "99",
        "--stat",
        "descents",
    ]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["statistics"]["descents"][1]["target"] is not None


def test_cli_evolve_forest_statistic(capsys):
    code = main(
        [
            "evolve",
            "--algebra",
            "forests",
            "--forest",
            "((()))",
            "--preset",
            "trinomial",
            "--params",
            "q1=1/4,q2=1/2,q3=1/4",
            "--stat",
            "f_j",
            "--j",
            "2",
            "--q1",
            "1/4",
            "--q3",
            "1/4",
            "--t",
            "2",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["values"]) == 3


def test_cli_stationary(capsys):
    code = main(["stationary", "--algebra", "shuffle", "--deck", "aab"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    (pi,) = data["distributions"]
    assert pi["weights"] == {"aab": "1/3", "aba": "1/3", "baa": "1/3"}


def test_cli_eigvecs(capsys):
    code = main(["eigvecs", "--algebra", "shuffle", "--distinct", "2", "--q", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] and data["count"] >= 2


def test_cli_usage_errors(capsys):
    assert main(["matrix", "--algebra", "shuffle", "--preset", "riffle"]) == 2
    assert main(["matrix", "--algebra", "shuffle", "--distinct", "3"]) == 2
    assert main(["matrix", "--algebra", "shuffle", "--distinct", "3", "--preset", "nope"]) == 2
    capsys.readouterr()


def _usage_error(capsys, argv) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "verification failure" not in err
    return err


def test_cli_zero_denominator_param_is_usage_error(capsys):
    argv = ["matrix", "--distinct", "3", "--preset", "top-or-bottom", "--params", "q=1/0"]
    assert "zero denominator" in _usage_error(capsys, argv)
    argv = ["evolve", "--distinct", "3", "--preset", "riffle", "--q", "1/0"]
    assert "zero denominator" in _usage_error(capsys, argv)


def test_cli_repeated_param_is_usage_error(capsys):
    # a later a=2 must not silently replace a=3
    argv = ["matrix", "--distinct", "3", "--preset", "riffle", "--params", "a=3,a=2"]
    err = _usage_error(capsys, argv)
    assert "'a'" in err and "twice" in err
    argv = ["matrix", "--distinct", "3", "--preset", "trinomial", "--params", "q1=1/4, q1 =1/2"]
    assert "'q1'" in _usage_error(capsys, argv)


def test_cli_simulate_zero_trials_is_usage_error(capsys):
    argv = ["simulate", "--distinct", "3", "--preset", "riffle", "--trials", "0"]
    assert "--trials" in _usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stationary", "--algebra", "forests", "--n", "0"], "--n must be >= 1, got 0"),
        (["stationary", "--algebra", "forests", "--n", "-2"], "--n must be >= 1, got -2"),
        (["matrix", "--distinct", "0", "--preset", "riffle"], "--distinct must be >= 1, got 0"),
        (["matrix", "--distinct", "-1", "--preset", "riffle"], "--distinct must be >= 1, got -1"),
        (["eigvecs", "--distinct", "0"], "--distinct must be >= 1, got 0"),
    ],
)
def test_cli_start_size_below_one_is_usage_error(capsys, monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("set up a state space for a size below 1")

    monkeypatch.setattr("hopfchains.cli.forest_algebra", refuse)
    monkeypatch.setattr("hopfchains.cli.distinct_deck", refuse)
    assert message in _usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--algebra", "forests", "--forest", "((()))", "--n", "5", "--preset", "riffle"],
        ["stationary", "--algebra", "forests", "--n", "3", "--forest", "()"],
        ["matrix", "--distinct", "3", "--deck", "abc", "--preset", "riffle"],
        ["eigvecs", "--deck", "ab", "--distinct", "2"],
    ],
)
def test_cli_second_start_flag_is_usage_error(capsys, argv):
    assert "not both" in _usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["matrix", "--distinct", "3", "--n", "5", "--preset", "riffle"], "--n"),
        (["spectrum", "--deck", "abc", "--forest", "(())", "--preset", "riffle"], "--forest"),
        (["eigvecs", "--distinct", "3", "--forest", "(())"], "--forest"),
        (["eigvecs", "--deck", "ab", "--n", "2"], "--n"),
        (["matrix", "--algebra", "forests", "--n", "3", "--deck", "abc", "--preset", "riffle"],
         "--deck"),
        (["stationary", "--algebra", "forests", "--forest", "(())", "--distinct", "3"],
         "--distinct"),
    ],
)
def test_cli_other_algebra_start_flag_is_usage_error(capsys, monkeypatch, argv, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("set up a state space for a run with an ignored start flag")

    monkeypatch.setattr("hopfchains.cli.forest_algebra", refuse)
    monkeypatch.setattr("hopfchains.cli.distinct_deck", refuse)
    monkeypatch.setattr("hopfchains.cli.deck_from_string", refuse)
    assert f"{flag} starts a" in _usage_error(capsys, argv)


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--distinct", "3", "--preset", "riffle"],
        ["spectrum", "--distinct", "3", "--preset", "riffle"],
        ["stationary", "--algebra", "forests", "--n", "3"],
        ["eigvecs", "--distinct", "3"],
        ["evolve", "--deck", "1234", "--preset", "riffle", "--t", "2"],
        ["simulate", "--deck", "1234", "--preset", "riffle", "--trials", "5", "--t", "2",
         "--stat", "descents"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_max_states_below_one_is_usage_error(capsys, monkeypatch, argv, cap):
    # below 1 no state space fits: refused before any start is set up,
    # not run without exact targets or reported as "above the cap 0"
    def refuse(*args, **kwargs):
        raise AssertionError("set up a state space under a cap below 1")

    monkeypatch.setattr("hopfchains.cli._setup_space", refuse)
    monkeypatch.setattr("hopfchains.cli._shuffle_deck", refuse)
    err = _usage_error(capsys, argv + ["--max-states", cap])
    assert f"--max-states must be >= 1, got {cap}" in err


def test_cli_state_cap_error_names_the_flag(capsys):
    for argv in (
        ["matrix", "--distinct", "7", "--preset", "riffle"],
        ["stationary", "--algebra", "forests", "--n", "9", "--max-states", "10"],
    ):
        assert "; raise --max-states to proceed" in _usage_error(capsys, argv)


def test_cli_group_certificate_checks_the_cap_before_the_operator(capsys, monkeypatch):
    for module in ("shuffle", "chain", "spectral"):
        monkeypatch.setattr(f"hopfchains.{module}.position_law", None)  # never reached
    argv = ["spectrum", "--distinct", "5", "--preset", "riffle", "--verify-matrix",
            "--max-states", "100"]
    assert "120 elements, above the cap 100" in _usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--deck", "", "--preset", "riffle", "--trials", "5", "--t", "2",
          "--stat", "descents"], "--deck needs at least one card"),
        (["matrix", "--deck", "", "--preset", "riffle"], "--deck needs at least one card"),
        (["eigvecs", "--deck", ""], "--deck needs at least one card"),
        (["matrix", "--algebra", "forests", "--forest", "", "--preset", "riffle"],
         "--forest needs at least one tree"),
    ],
)
def test_cli_empty_start_is_usage_error(capsys, argv, message):
    assert message in _usage_error(capsys, argv)


def test_cli_verify_show_flagged_prints_the_counted_flags(capsys):
    assert main(["verify", "--criteria", "9"]) == 1
    assert "flagged:" not in capsys.readouterr().out
    assert main(["verify", "--criteria", "9", "--show-flagged"]) == 1
    status, *lines = capsys.readouterr().out.splitlines()
    assert status.startswith("[DEFECT] criterion 9:")
    counted = int(re.search(r"\[(\d+) flagged\]", status).group(1))
    flagged = [line for line in lines if "flagged:" in line]
    assert counted == len(flagged) == 3
    assert all(line.startswith("    flagged: vacuous: ") for line in flagged)


def test_cli_verify_unknown_criterion_is_usage_error(capsys):
    assert "1-10" in _usage_error(capsys, ["verify", "--criteria", "11"])
    # an empty selection is not "all criteria"
    assert "1-10" in _usage_error(capsys, ["verify", "--criteria", ""])
    # a repeated criterion runs once
    assert main(["verify", "--criteria", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out.count("criterion 1:") == 1 and "1/1 criteria passed" in out


def test_cli_matrix_constant_deck_has_one_state(capsys):
    argv = ["matrix", "--deck", "aaaaaaaaaaaa", "--preset", "riffle"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix"]["states"] == ["aaaaaaaaaaaa"]
    assert data["matrix"]["rows"] == [["1"]]


@pytest.mark.parametrize("start", [["--deck", "a"], ["--distinct", "1"]])
def test_cli_eigvecs_one_card_is_usage_error(capsys, start):
    # eigvecs takes no operator, so an operator error would name a flag it
    # never read; a one-card deck is refused by its size instead
    err = _usage_error(capsys, ["eigvecs", *start])
    assert "at least 2 cards, got 1" in err and "operator" not in err


def test_cli_eigvecs_over_cap_is_usage_error(capsys):
    # 5^5 = 3125 vectors would be emitted; the default cap is 1000
    assert "3125" in _usage_error(capsys, ["eigvecs", "--distinct", "5"])


def test_cli_format_is_a_matrix_flag_only(capsys):
    # argparse refuses it before any kernel is built or evolved
    argv = ["evolve", "--distinct", "6", "--preset", "riffle", "--format", "csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["stationary", "--distinct", "3", "--preset", "riffle", "--params", "a=9"],
        ["stationary", "--distinct", "3", "--preset", "riffle"],
        ["eigvecs", "--distinct", "3", "--params", "q=1/2"],
        ["eigvecs", "--distinct", "3", "--spec", "spec.json"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:4]),
)
def test_cli_operator_flags_belong_to_the_operator_commands(capsys, argv):
    # stationary laws depend on the algebra only, and eigvecs takes its
    # own --q: an operator flag there would be ignored, so it is refused
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[3]}" in capsys.readouterr().err


def test_cli_state_cap_is_checked_before_enumeration(capsys, monkeypatch):
    def refuse(alg, word):
        raise AssertionError(f"enumerated the class of {word}")

    monkeypatch.setattr("hopfchains.cli.rearrangement_class", refuse)
    err = _usage_error(capsys, ["matrix", "--distinct", "9", "--preset", "riffle"])
    assert "state space has 362880 elements, above the cap 1000" in err
    for argv in (
        ["evolve", "--distinct", "9", "--preset", "riffle"],
        ["stationary", "--distinct", "9"],
        ["spectrum", "--distinct", "9", "--preset", "riffle", "--verify-matrix"],
    ):
        assert "362880" in _usage_error(capsys, argv)
    # no enumeration is needed: the spectrum reads the deck's content, and
    # above the cap the simulation runs cut-and-drop with no exact target
    assert main(["spectrum", "--distinct", "7", "--preset", "riffle", "--max-states", "10"]) == 0
    capsys.readouterr()
    argv = ["simulate", "--distinct", "7", "--preset", "riffle", "--trials", "3", "--t", "1",
            "--max-states", "10"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert all("target" not in row for row in data["statistics"]["weighted-descents"])


def test_cli_forest_cap_is_checked_before_enumeration(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"enumerated the forests on {n} vertices")

    monkeypatch.setattr("hopfchains.forests.enumerate_forests", refuse)
    for argv in (
        ["matrix", "--algebra", "forests", "--n", "20", "--preset", "top-to-random"],
        ["stationary", "--algebra", "forests", "--n", "20"],
    ):
        err = _usage_error(capsys, argv)
        assert "state space has 35221832 elements, above the cap 1000" in err


@pytest.mark.parametrize(
    "preset, params",
    [("riffle", "a=2000"), ("biased", "qs=" + "+".join(["1/1200"] * 1200))],
    ids=["riffle-2000-hands", "biased-1200-piles"],
)
def test_cli_many_hands_spectrum(capsys, preset, params):
    argv = ["spectrum", "--distinct", "4", "--preset", preset, "--params", params]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert sum(data["by_eigenvalue"].values()) == 24


def test_cli_evolve_negative_time_is_usage_error(capsys):
    argv = ["evolve", "--distinct", "3", "--preset", "riffle", "--t", "-1"]
    assert "--t" in _usage_error(capsys, argv)


def test_cli_spec_file(tmp_path, capsys):
    spec = top_or_bottom_spec(3, F(1, 2))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    code = main(
        ["matrix", "--algebra", "shuffle", "--distinct", "3", "--spec", str(path)]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert spec_from_dict(data["spec"]) == spec



@pytest.mark.parametrize(
    "command, extra, flag",
    [
        ("matrix", ["--preset", "riffle"], "--preset"),
        ("spectrum", ["--preset", "riffle"], "--preset"),
        ("evolve", ["--params", "a=7"], "--params"),
        ("simulate", ["--preset", "top-to-random", "--params", "a=7"], "--preset"),
    ],
)
def test_cli_spec_with_preset_or_params_is_usage_error(tmp_path, capsys, command, extra, flag):
    # a spec file fixes the operator: a preset or its parameters beside it
    # would be ignored, so the pair is refused
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(top_or_bottom_spec(3, F(1, 2)))))
    argv = [command, "--distinct", "3", "--spec", str(path), *extra]
    assert f"give --spec or {flag}, not both" in _usage_error(capsys, argv)


STATISTIC_MISMATCHES = {
    "word-statistic-on-forests": (
        ["--algebra", "forests", "--forest", "(())", "--preset", "top-to-random",
         "--stat", "descents"],
        "does not apply to the forests algebra",
    ),
    "forest-statistic-on-words": (
        ["--distinct", "3", "--preset", "riffle", "--stat", "f_j"],
        "does not apply to the shuffle algebra",
    ),
    "forest-statistic-below-j-2": (
        ["--algebra", "forests", "--forest", "(())", "--preset", "top-to-random",
         "--stat", "f_j", "--j", "1"],
        "--j must be >= 2",
    ),
    "forest-statistic-empty-q1": (
        ["--algebra", "forests", "--forest", "(())", "--preset", "top-to-random",
         "--stat", "f_j", "--q1", ""],
        "Invalid literal for Fraction: ''",
    ),
    # a statistic flag the chosen statistic does not read is refused, not ignored
    "q-with-descents": (
        ["--distinct", "3", "--preset", "riffle", "--stat", "descents", "--q", "1/3"],
        "--q would be ignored by --stat descents",
    ),
    "q-with-peaks": (
        ["--distinct", "3", "--preset", "riffle", "--stat", "peaks", "--q", "1/3"],
        "--q would be ignored by --stat peaks",
    ),
    "j-with-weighted-descents": (
        ["--distinct", "3", "--preset", "riffle", "--stat", "weighted-descents", "--j", "7"],
        "--j would be ignored by --stat weighted-descents",
    ),
    "q1-with-weighted-peaks": (
        ["--distinct", "3", "--preset", "riffle", "--stat", "weighted-peaks", "--q1", "1/9"],
        "--q1 would be ignored by --stat weighted-peaks",
    ),
    "q3-with-descents": (
        ["--distinct", "3", "--preset", "riffle", "--stat", "descents", "--q3", "1/9"],
        "--q3 would be ignored by --stat descents",
    ),
    "q-with-f_j": (
        ["--algebra", "forests", "--forest", "(())", "--preset", "riffle", "--stat", "f_j",
         "--q", "1/3"],
        "--q would be ignored by --stat f_j",
    ),
}


@pytest.mark.parametrize("command", ["evolve", "simulate"])
@pytest.mark.parametrize("case", sorted(STATISTIC_MISMATCHES))
def test_cli_statistic_is_checked_before_the_kernel_is_built(capsys, monkeypatch, command, case):
    def refuse(*args, **kwargs):
        raise AssertionError("built a kernel for a statistic that cannot be evaluated")

    monkeypatch.setattr("hopfchains.cli.build_transition_matrix", refuse)
    flags, message = STATISTIC_MISMATCHES[case]
    assert message in _usage_error(capsys, [command, *flags])


def test_cli_out_of_memory_is_a_one_line_usage_error(capsys, monkeypatch):
    # not exit 1, which reports a verification failure, and no traceback
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("hopfchains.cli.build_transition_matrix", exhaust)
    err = _usage_error(capsys, ["matrix", "--distinct", "3", "--preset", "riffle"])
    assert err.count("\n") == 1 and json.loads(err) == {"error": "MemoryError"}


def test_cli_verify_matrix_certifies_a_distinct_deck_without_a_kernel(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a kernel for a distinct deck's certificate")

    for module in ("chain", "spectral"):  # the one sparse-to-dense step, wherever bound
        monkeypatch.setattr(f"hopfchains.{module}.dense_matrix", refuse)
    argv = ["spectrum", "--distinct", "5", "--preset", "trinomial",
            "--params", "q1=1/4,q2=1/2,q3=1/4", "--verify-matrix"]
    assert main(argv) == 0
    detail = json.loads(capsys.readouterr().out)["matrix_verification"]["detail"]
    assert detail[-2:] == ["multiplicity total 120 vs 120 states [ok]", "annihilation product vanishes"]


# ---------------------------------------------------------------------------
# streamed output


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**300)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, float("nan"), float("-inf")])
    | st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€\u2028😀') | st.characters())
)
_JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": [{"f": []}]}})
@example([-0.0, 1e300, float("nan"), 2**100, True, False, None, "q\"\\\x01é"])
# lists and tuples of strings only: the plain ones are joined as they stand,
# and one string the encoder would escape sends the whole container to it
@example(["1/3", "0", "1/3", "1/3", "0", "0"])  # top-to-random's row of 123 on three cards
@example({"rows": [["1/2", "0"], ("0", "1")], "states": ("12", "21")})
@example(["", " ", "a b", "~"])
@example(("",))
@example(["1/2", 'say "hi"'])
@example(("1/2", "a\\b"))
@example(["1/2", "\x1f"])
@example(("1/2", "\x7f"))
@example(["1/2", "é"])
@example(("1/2", "€", "😀"))
def test_streamed_json_equals_the_indented_dump(obj):
    assert "".join(_json_chunks(obj)) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--distinct", "3", "--preset", "riffle"],
        ["matrix", "--deck", "aabc", "--preset", "riffle", "--format", "csv"],
        ["eigvecs", "--distinct", "3", "--q", "1/2"],
    ],
    ids=["matrix-json", "matrix-csv", "eigvecs"],
)
def test_cli_out_file_equals_stdout(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_cli_verify_report_ends_in_a_newline(tmp_path, capsys):
    # written by the one JSON writer, like every other --out file
    out = tmp_path / "report.json"
    assert main(["verify", "--criteria", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert list(json.loads(text))[:2] == ["format_version", "command"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_closed_pipe_ends_output_quietly(fmt):
    # a reader that stops early (`| head -c 100`) is not a usage error
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    entry = "import sys; from hopfchains.cli import main; sys.exit(main())"
    argv = ["matrix", "--distinct", "6", "--preset", "riffle", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-c", entry, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)  # the 6.9 MB output cannot fit in the pipe
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""
    assert head.startswith(b"{" if fmt == "json" else b"state,")


def test_cli_loads_only_the_modules_a_command_runs(tmp_path):
    # `acceptance`, `spectral` and `simulate` are imported by the commands
    # that run them, not by the package or the CLI module
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = (
        "import sys\n{run}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('hopfchains.')))\n"
        "sys.exit(code)\n"
    )
    cli = "from hopfchains.cli import main; code = main(sys.argv[1:])"
    out = ["--out", str(tmp_path / "out.json")]
    cases = [
        ("import hopfchains; code = 0", [], None),
        ("import hopfchains.cli; code = 0", [], set()),
        (cli, ["matrix", "--distinct", "3", "--preset", "riffle", *out], set()),
        (cli, ["evolve", "--distinct", "3", "--preset", "riffle", "--t", "1", *out], set()),
        (cli, ["stationary", "--distinct", "3", *out], set()),
        (cli, ["spectrum", "--distinct", "3", "--preset", "riffle", *out], {"spectral"}),
        (cli, ["simulate", "--distinct", "3", "--preset", "riffle", "--trials", "5", *out],
         {"simulate"}),
    ]
    for run, argv, lazy_loaded in cases:
        proc = subprocess.run(
            [sys.executable, "-c", probe.format(run=run), *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        if lazy_loaded is None:  # the package root imports no submodule
            assert loaded == set(), loaded
            continue
        lazy = {m for m in ("acceptance", "spectral", "simulate") if f"hopfchains.{m}" in loaded}
        assert lazy == lazy_loaded, (argv, loaded)


def test_no_module_of_the_program_imports_dataclasses():
    # `dataclasses` and its decorators cost every job 15-30 ms of start-up;
    # -S keeps `site` from importing it on the program's behalf
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = (
        "import sys\n"
        "import hopfchains.cli, hopfchains.spectral, hopfchains.simulate, hopfchains.acceptance\n"
        "sys.exit('dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr or "dataclasses was imported"
