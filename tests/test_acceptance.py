"""The ten acceptance criteria, one test each, printing a pass/fail line.

Criteria 7 and 9 contain a literally-stated check that is exactly false
(each emits a defect line with a witness): the trinomial operator's
eigenvalue on the j-singleton family is q2^(n-j), not q2^j, and the forest
expectation bound's constant is too small although its decay rate is
right.  Those two criteria are expected to fail with a documented defect,
under the status `[DEFECT]`, while every other sub-check inside them
passes; the tests below assert exactly that state of affairs.
"""

from fractions import Fraction as F

import pytest

from hopfchains import acceptance
from hopfchains.cli import main


def _report(result):
    print()
    print(result.status_line())
    for line in result.lines:
        print("    " + line)
    for line in result.defects:
        print("    defect: " + line)
    return result


def test_criterion_01_structure_axioms():
    r = _report(acceptance.criterion_1())
    assert r.passed
    assert r.seconds < 60


def test_criterion_02_row_stochasticity():
    r = _report(acceptance.criterion_2())
    assert r.passed


def _refuse_dense_kernels(monkeypatch):
    """Make reading any chain's dense view (`TransitionMatrix.kernel`) raise."""

    def refuse(self):
        raise AssertionError("the certificate formed a dense kernel")

    monkeypatch.setattr(acceptance.TransitionMatrix, "kernel", property(refuse))


def test_criterion_03_spectra_vs_matrices(monkeypatch):
    # both certificates read the stored sparse rows, never the dense view
    _refuse_dense_kernels(monkeypatch)
    r = _report(acceptance.criterion_3())
    assert r.passed
    # the 3 distinct decks and aabb, x 7 presets of the grid, by both certificates
    assert r.lines[0].endswith(
        "the 28 word cells with orbits of more than one deck agree from one row "
        "per orbit and from every row"
    )
    assert r.seconds < 300


def test_criterion_04_stationary_distributions():
    r = _report(acceptance.criterion_4())
    assert r.passed


def test_criterion_05_weighted_descent_peak_identities():
    r = _report(acceptance.criterion_5())
    assert r.passed


def test_criterion_06_power_rule_descent_peak_counts():
    r = _report(acceptance.criterion_6())
    assert r.passed


def test_criterion_07_eigenvectors_with_documented_defect():
    r = _report(acceptance.criterion_7())
    # every attainable sub-check passes...
    assert not any(line.startswith("FAIL") for line in r.lines)
    # ...but the criterion as stated is red: the literal trinomial
    # eigenvalue is unattainable, and the corrected exponent verifies.
    assert not r.passed
    assert r.status_line().startswith("[DEFECT] criterion 7:")
    assert len(r.defects) == 1
    assert "q2^(n-j)" in r.defects[0]
    assert "confirmed for every vector" in r.defects[0]


def test_status_line_tells_a_documented_defect_from_a_regression():
    def status(lines, defects):
        return acceptance.CriterionResult(7, "t", False, lines, defects=defects).status_line()

    assert status(["ok"], ["documented"]).startswith("[DEFECT] criterion 7")
    assert status(["FAIL: new regression"], ["documented"]).startswith("[FAIL] criterion 7")
    assert status(["FAIL: new regression"], []).startswith("[FAIL] criterion 7")


def test_criterion_08_descent_set_lumping():
    r = _report(acceptance.criterion_8())
    assert r.passed


def test_criterion_09_forest_bound_with_documented_defect(monkeypatch):
    _refuse_dense_kernels(monkeypatch)
    r = _report(acceptance.criterion_9())
    assert not any(line.startswith("FAIL") for line in r.lines)
    assert not r.passed
    assert r.status_line().startswith("[DEFECT] criterion 9:")
    assert len(r.defects) == 1
    # the substance holds: exact decay-rate certificates all pass
    assert any("no spectral component above" in line for line in r.lines)
    # vacuous cases are flagged, not silently passed
    assert any("vacuous" in line for line in r.flagged)


def test_criterion_09_broken_rate_certificate_is_a_fail_not_a_defect(monkeypatch):
    real = acceptance.expectations

    def perturbed(*args, **kwargs):
        seq = list(real(*args, **kwargs))
        seq[-1] += 1
        return seq

    monkeypatch.setattr(acceptance, "expectations", perturbed)
    r = acceptance.criterion_9()
    assert r.defects
    assert any(
        line.startswith("FAIL") and "decay-rate certificate failed" in line for line in r.lines
    )
    assert r.status_line().startswith("[FAIL] criterion 9:")


@pytest.mark.xfail(
    strict=True,
    reason="the stated forest bound is exactly false; witness: the 3-vertex "
    "star at t=1 under trinomial(1/4,1/2,1/4) gives E = 9/2048 > 3/1024",
)
def test_criterion_09_literal_bound_as_stated():
    from math import comb

    from hopfchains.chain import build_transition_matrix, expectations, point_mass
    from hopfchains.forests import forest_algebra, f_j_statistic, parse_forest, vertex_stats
    from hopfchains.presets import trinomial_spec

    q1, q2, q3 = F(1, 4), F(1, 2), F(1, 4)
    falg = forest_algebra()
    K = build_transition_matrix(falg, trinomial_spec(3, q1, q2, q3))
    star = parse_forest("(()())")
    j = 2
    f0 = f_j_statistic(star, j, q1, q3)
    factor = max(comb(s.component, s.anc - 1) for s in vertex_stats(star) if s.desc >= j)
    lhs = expectations(K, point_mass(K, star), 1, lambda f: f_j_statistic(f, j, q1, q3))[1]
    assert lhs <= q2**j * f0 * factor


def test_criterion_10_simulation(capsys):
    r = _report(acceptance.criterion_10())
    assert r.passed
    assert r.seconds < 300


def test_run_all_selection():
    results = acceptance.run_all(numbers=[1, 2])
    assert [r.number for r in results] == [1, 2]
    assert all(r.passed for r in results)


def test_run_all_hands_every_criterion_the_seed(monkeypatch, capsys):
    seen = {}

    def recorder(num):
        return lambda seed: seen.setdefault(num, seed)

    monkeypatch.setattr(acceptance, "CRITERIA", {num: recorder(num) for num in acceptance.CRITERIA})
    acceptance.run_all(seed=7)
    assert seen == {num: 7 for num in range(1, 11)}
    monkeypatch.undo()
    assert main(["verify", "--criteria", "1", "--seed", "3"]) == 0
    assert "1/1 criteria passed" in capsys.readouterr().out
