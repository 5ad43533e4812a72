"""The desk-scale acceptance grid: ten numbered verification criteria.

Every criterion runs exact checks (rationals compared for equality) except
the Monte Carlo one, which uses 3-sigma bands with a 3-to-4-sigma warning
zone.  Each criterion takes the run's seed and returns a `CriterionResult`;
`run_all` executes a selection and the CLI renders one line per criterion.

Two checks are *documented defects*: the stated eigenvalue q2^j of the
trinomial operator on the j-singleton eigenvector family, and the stated
constant in the forest expectation bound.  Both fail by exact computation
on tiny cases (see the defect lines they emit); the criteria that contain
them run the literal check, report the failure honestly, and additionally
verify the corrected form (eigenvalue q2^(n-j)) or the provable substance
(spectral decay rate), which do pass.  Such a criterion still fails, but
its status reads `[DEFECT]` rather than `[FAIL]` while no other check in
it fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .chain import (
    build_transition_matrix,
    expectations,
    is_stationary,
    lumping_check,
    point_mass,
    stationary_distributions,
)
from .forests import Forest, enumerate_trees, f_j_statistic, forest_algebra, vertex_stats
from .hopf import (
    LinComb,
    apply_cpp,
    beta_n,
    check_bialgebra_compatibility,
    check_coassociativity,
    check_state_space_basis,
)
from .linalg import annihilation_check
from .presets import (
    biased_spec,
    riffle_spec,
    top_m_ordered_spec,
    top_m_unordered_spec,
    top_or_bottom_spec,
    top_to_random_spec,
    trinomial_spec,
)
from .shuffle import (
    FreeAssociativeAlgebra,
    ShuffleAlgebra,
    deck_from_string,
    descent_peak_sets,
    distinct_alphabet,
    distinct_deck,
    rearrangement_class,
    weighted_descent_stat,
    weighted_peak_stat,
)
from .simulate import empirical_row_check, gsr_stepper, run_trajectories
from .spectral import (
    build_E_j,
    class_spectrum,
    lincomb_rank,
    polynomial_eigenvalue_check,
    trinomial_eigenvalue_check,
    verify_spectrum,
)

F = Fraction
DEFAULT_SEED = 20240809


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    lines: list = field(default_factory=list)
    flagged: list = field(default_factory=list)
    defects: list = field(default_factory=list)
    seconds: float = 0.0

    def status_line(self) -> str:
        """`[DEFECT]` when the only failures are documented defects, so a
        new regression (a `FAIL:` line) never hides behind one."""
        if self.passed:
            mark = "PASS"
        elif self.defects and not any(line.startswith("FAIL") for line in self.lines):
            mark = "DEFECT"
        else:
            mark = "FAIL"
        extra = ""
        if self.flagged:
            extra += f" [{len(self.flagged)} flagged]"
        if self.defects:
            extra += " [documented defect]"
        return f"[{mark}] criterion {self.number}: {self.title}{extra} ({self.seconds:.1f}s)"


def _fail(lines: list, message: str) -> bool:
    lines.append("FAIL: " + message)
    return False


# ---------------------------------------------------------------------------
# the desk grid


def grid_presets(n: int) -> list:
    return [
        ("riffle(2)", riffle_spec(n, 2)),
        ("riffle(3)", riffle_spec(n, 3)),
        ("biased(1/3)", biased_spec(n, (F(1, 3), F(2, 3)))),
        ("top-m-ordered(2)", top_m_ordered_spec(n, 2)),
        ("top-m-unordered(2)", top_m_unordered_spec(n, 2)),
        ("top-or-bottom(1/2)", top_or_bottom_spec(n, F(1, 2))),
        ("trinomial(1/4,1/2,1/4)", trinomial_spec(n, F(1, 4), F(1, 2), F(1, 4))),
    ]


def grid_spaces() -> list:
    """(label, algebra, n, states) for every grid state space."""
    spaces = []
    for n in (3, 4, 5):
        alg, deck = distinct_deck(n)
        spaces.append((f"distinct n={n}", alg, n, rearrangement_class(alg, deck)))
    alg, deck = deck_from_string("aabb")
    spaces.append(("deck aabb", alg, 4, rearrangement_class(alg, deck)))
    falg = forest_algebra()
    for n in (3, 4):
        spaces.append((f"forests n={n}", falg, n, list(falg.basis(n))))
    return spaces


TRINOMIAL_PARAMS = [
    (F(1, 4), F(1, 2), F(1, 4)),
    (F(1, 2), F(1, 4), F(1, 4)),
    (F(1, 3), F(1, 3), F(1, 3)),
]


# ---------------------------------------------------------------------------
# criteria


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Structure axioms, coassociativity and bialgebra compatibility."""
    t0 = time.time()
    lines = []
    passed = True
    jobs = [
        ("shuffle on 2 letters", ShuffleAlgebra("ab"), 5),
        ("shuffle on 3 letters", ShuffleAlgebra("abc"), 4),
        ("rooted forests", forest_algebra(), 5),
    ]
    for label, alg, cap in jobs:
        v = check_state_space_basis(alg, cap)
        v += check_coassociativity(alg, min(cap, 4))
        v += check_bialgebra_compatibility(alg, cap)
        if v:
            passed = _fail(lines, f"{label}: {v[:3]}")
        else:
            lines.append(f"{label}: axioms, coassociativity, compatibility up to degree {cap} ok")
    return CriterionResult(1, "structure axioms", passed, lines, seconds=time.time() - t0)


_grid_cache: list = []


def _grid_matrices():
    """Build (and cache) every preset x space transition matrix in the grid."""
    if _grid_cache:
        return _grid_cache
    for space_label, alg, n, states in grid_spaces():
        for preset_label, spec in grid_presets(n):
            K = build_transition_matrix(alg, spec, states=states)
            _grid_cache.append((space_label, preset_label, alg, n, states, K))
    return _grid_cache


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Every grid transition matrix is exactly row-stochastic."""
    t0 = time.time()
    lines = []
    passed = True
    count = 0
    try:
        for space_label, preset_label, *_rest in _grid_matrices():
            count += 1
    except ArithmeticError as exc:
        passed = _fail(lines, str(exc))
    if passed:
        lines.append(f"{count} matrices built; the builder checks each row sum exactly")
    return CriterionResult(2, "row-stochasticity of the rescaled kernels", passed, lines, seconds=time.time() - t0)


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Formula spectra match rank-derived eigenspace dimensions exactly."""
    t0 = time.time()
    lines = []
    passed = True
    for space_label, preset_label, alg, n, states, K in _grid_matrices():
        spectrum = class_spectrum(K.spec, alg, alg.content(states[0]))
        report = verify_spectrum(K, spectrum)
        if not report.ok:
            passed = _fail(lines, f"{space_label} / {preset_label}: " + "; ".join(report.lines()))
    lines.append("all grid spectra match rank-derived dimensions; annihilation products vanish")

    alg4, deck4 = distinct_deck(4)
    states4 = rearrangement_class(alg4, deck4)
    spec_t2r = top_to_random_spec(4)
    K4 = build_transition_matrix(alg4, spec_t2r, states=states4)
    s4 = class_spectrum(spec_t2r, alg4, alg4.content(deck4))
    expected4 = {F(1): 1, F(1, 2): 6, F(1, 4): 8, F(0): 9}
    got4 = {v: m for v, m in s4.by_eigenvalue().items() if m}
    if got4 != expected4 or not verify_spectrum(K4, s4).ok:
        passed = _fail(lines, f"top-to-random distinct n=4 spectrum is {got4}")
    else:
        lines.append("top-to-random distinct n=4: {1:1, 1/2:6, 1/4:8, 0:9} confirmed")

    alg3, deck3 = distinct_deck(3)
    states3 = rearrangement_class(alg3, deck3)
    spec_r = riffle_spec(3)
    K3 = build_transition_matrix(alg3, spec_r, states=states3)
    s3 = class_spectrum(spec_r, alg3, alg3.content(deck3))
    expected3 = {F(1): 1, F(1, 2): 3, F(1, 4): 2}
    got3 = {v: m for v, m in s3.by_eigenvalue().items() if m}
    if got3 != expected3 or not verify_spectrum(K3, s3).ok:
        passed = _fail(lines, f"riffle distinct n=3 spectrum is {got3}")
    else:
        lines.append("riffle distinct n=3: {1:1, 1/2:3, 1/4:2} confirmed (cycle-type counts)")
    return CriterionResult(3, "spectra vs matrices", passed, lines, seconds=time.time() - t0)


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Stationary distributions: fixed points, uniformity, independence."""
    t0 = time.time()
    lines = []
    passed = True
    pis_by_space: dict = {}
    for space_label, preset_label, alg, n, states, K in _grid_matrices():
        key = space_label
        if key not in pis_by_space:
            pis_by_space[key] = stationary_distributions(alg, n, states=states)
        for pi in pis_by_space[key]:
            if not is_stationary(K, pi):
                passed = _fail(lines, f"{space_label} / {preset_label}: pi not fixed")
    for space_label, pis in pis_by_space.items():
        if space_label.startswith("distinct"):
            size = len(pis[0].states)
            if len(pis) != 1 or any(w != F(1, size) for w in pis[0].weights):
                passed = _fail(lines, f"{space_label}: stationary law not uniform 1/{size}")
        vectors = [LinComb(dict(zip(pi.states, pi.weights))) for pi in pis]
        if lincomb_rank(vectors) != len(pis):
            passed = _fail(lines, f"{space_label}: stationary laws linearly dependent")
    if passed:
        lines.append("each pi fixed by every grid kernel at its degree (the construction never sees the operator)")
        lines.append("distinct decks: unique uniform law; all returned laws independent")
    return CriterionResult(4, "stationary distributions", passed, lines, seconds=time.time() - t0)


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Weighted descent/peak expectations under top-or-bottom insertion."""
    t0 = time.time()
    lines = []
    passed = True
    for n in (4, 5):
        alg, deck = distinct_deck(n)
        states = rearrangement_class(alg, deck)
        for q in (F(0), F(1, 3), F(1, 2), F(1)):
            K = build_transition_matrix(alg, top_or_bottom_spec(n, q), states=states)
            dist = point_mass(K, deck)
            series_d = expectations(K, dist, 6, lambda w: weighted_descent_stat(w, q, alg.alphabet))
            series_p = expectations(K, dist, 6, lambda w: weighted_peak_stat(w, q, alg.alphabet))
            for t, (got_d, got_p) in enumerate(zip(series_d, series_p)):
                want_d = (1 - F(n - 2, n) ** t) * F(1, 2)
                want_p = (1 - F(n - 3, n) ** t) * F(1, 3)
                if got_d != want_d:
                    passed = _fail(lines, f"descents n={n} q={q} t={t}: {got_d} != {want_d}")
                if got_p != want_p:
                    passed = _fail(lines, f"peaks n={n} q={q} t={t}: {got_p} != {want_p}")
    if passed:
        lines.append("n in {4,5}, q in {0,1/3,1/2,1}, t=0..6: both identities exact")
    return CriterionResult(5, "weighted descent/peak identities", passed, lines, seconds=time.time() - t0)


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Expected descent and peak counts under a-handed riffles."""
    t0 = time.time()
    lines = []
    passed = True
    for a in (2, 3):
        for n in (4, 5):
            alg, deck = distinct_deck(n)
            states = rearrangement_class(alg, deck)
            K = build_transition_matrix(alg, riffle_spec(n, a), states=states)
            dist = point_mass(K, deck)
            series_d = expectations(
                K, dist, 4, lambda w: F(len(descent_peak_sets(w, alg.alphabet).descents))
            )
            series_p = expectations(
                K, dist, 4, lambda w: F(len(descent_peak_sets(w, alg.alphabet).peaks))
            )
            for t, (got_d, got_p) in enumerate(zip(series_d, series_p)):
                want_d = (1 - F(1, a**t)) * F(n - 1, 2)
                want_p = (1 - F(1, a ** (2 * t))) * F(n - 2, 3)
                if got_d != want_d or got_p != want_p:
                    passed = _fail(lines, f"a={a} n={n} t={t}: ({got_d},{got_p}) != ({want_d},{want_p})")
    if passed:
        lines.append("a in {2,3}, n in {4,5}, t=0..4: descent and peak counts exact")
    return CriterionResult(6, "a-handed expected descent/peak counts", passed, lines, seconds=time.time() - t0)


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Eigenvector families: eigen-equations, completeness, operator extensions."""
    t0 = time.time()
    lines = []
    defects = []
    passed = True
    trinomial_for_q = {
        F(0): (F(0), F(1, 2), F(1, 2)),
        F(1, 3): (F(1, 6), F(1, 2), F(1, 3)),
        F(1): (F(1, 2), F(1, 2), F(0)),
    }
    literal_fail_witness = None
    corrected_ok = True
    for n in (2, 3, 4):
        alg = FreeAssociativeAlgebra(distinct_alphabet(n))
        ones = tuple([1] * n)
        for q in (F(0), F(1, 3), F(1)):
            vectors = []
            for j in list(range(n - 1)) + [n]:
                vectors.extend(build_E_j(alg, n, j, q, content=ones))
            if build_E_j(alg, n, n - 1, q, content=ones):
                passed = _fail(lines, f"n={n}, q={q}: the j=n-1 family is unexpectedly nonempty")
            if len(vectors) != factorial(n):
                passed = _fail(lines, f"n={n}, q={q}: {len(vectors)} vectors, expected {factorial(n)}")
            if lincomb_rank([v.vector for v in vectors]) != factorial(n):
                passed = _fail(lines, f"n={n}, q={q}: vectors not linearly independent")
            if q == 1 and n >= 2:
                rep = polynomial_eigenvalue_check(alg, vectors, 2)
                if not rep.ok:
                    passed = _fail(lines, f"n={n}: m=2 removal-operator eigenvalues failed")
            q1, q2, q3 = trinomial_for_q[q]
            if not trinomial_eigenvalue_check(alg, vectors, q1, q2, q3).ok:
                corrected_ok = False
            if literal_fail_witness is None:
                spec_t = trinomial_spec(n, q1, q2, q3)
                beta = beta_n(spec_t)
                for vec in vectors:
                    if apply_cpp(alg, vec.vector, spec_t) != vec.vector.scale(beta * q2**vec.j):
                        literal_fail_witness = (n, q, vec.j)
                        break
    if passed:
        lines.append("eigen-equations exact; j=n-1 empty; counts n! with full rank; m=2 extension ok")
    if literal_fail_witness is None:
        passed = _fail(lines, "stated trinomial eigenvalue q2^j held; documented defect analysis is stale")
    else:
        n_w, q_w, j_w = literal_fail_witness
        defects.append(
            "stated trinomial eigenvalue q2^j fails exact verification "
            f"(first witness n={n_w}, q={q_w}, j={j_w}); the verified eigenvalue is q2^(n-j) "
            f"[{'confirmed for every vector' if corrected_ok else 'ALSO FAILED'}] - "
            "the flip is forced: the j=n family spans the stationary direction (eigenvalue 1 = q2^0)"
        )
        passed = passed and False  # the criterion as stated cannot pass
    if not corrected_ok:
        lines.append("FAIL: corrected trinomial eigenvalue q2^(n-j) did not verify")
    return CriterionResult(
        7, "eigenvector construction and operator extensions", passed, lines,
        defects=defects, seconds=time.time() - t0,
    )


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The descent set is a Markov statistic for every grid shuffle."""
    t0 = time.time()
    lines = []
    passed = True
    for n in (4, 5):
        alg, deck = distinct_deck(n)
        states = rearrangement_class(alg, deck)
        for preset_label, spec in grid_presets(n):
            K = build_transition_matrix(alg, spec, states=states)
            result = lumping_check(
                K, lambda w: tuple(sorted(descent_peak_sets(w, alg.alphabet).descents))
            )
            if not result.ok:
                passed = _fail(lines, f"n={n} / {preset_label}: witness {result.witness}")
            elif result.quotient.size > 2 ** (n - 1):
                passed = _fail(lines, f"n={n} / {preset_label}: quotient too large")
    if passed:
        lines.append("descent-set lumping holds for n=4,5 under all 7 presets (quotients <= 2^(n-1))")
    return CriterionResult(8, "descent set is a Markov statistic", passed, lines, seconds=time.time() - t0)


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Forest expectation bound: literal form, plus exact decay-rate certificate."""
    t0 = time.time()
    lines = []
    flagged = []
    defects = []
    passed = True
    falg = forest_algebra()
    literal_violations = []
    rate_ok = True
    vacuous = 0
    checked = 0
    for n in range(2, 6):
        for q1, q2, q3 in TRINOMIAL_PARAMS:
            spec = trinomial_spec(n, q1, q2, q3)
            K = build_transition_matrix(falg, spec)
            values = sorted(
                v for v, m in class_spectrum(spec, falg, (n,)).by_eigenvalue().items() if m
            )
            # diagonalisability certificate, so expectations decompose as
            # sum of c_v * v^t over the eigenvalues v
            if not annihilation_check(K.kernel, values):
                passed = _fail(lines, f"annihilation failed for forests n={n}")
                continue
            horizon = 2 * len(values)
            for tree in enumerate_trees(n):
                start = Forest((tree,))
                dist = point_mass(K, start)
                for j in (2, 3):
                    stats0 = [s for s in vertex_stats(start) if s.desc >= j]
                    f0 = f_j_statistic(start, j, q1, q3)
                    if not stats0:
                        if f0 != 0:
                            passed = _fail(lines, f"{start} j={j}: empty max but f_j nonzero")
                        vacuous += 1
                        flagged.append(f"vacuous: {start} j={j} params ({q1},{q2},{q3}) (0 <= 0)")
                        continue
                    checked += 1
                    seq = expectations(K, dist, horizon, lambda f: f_j_statistic(f, j, q1, q3))
                    bound_factor = max(comb(s.component, s.anc - 1) for s in stats0)
                    bad_t = [
                        t for t in range(5)
                        if seq[t] > q2 ** (j * t) * f0 * bound_factor
                    ]
                    if bad_t:
                        t = bad_t[0]
                        literal_violations.append(
                            f"{start} params ({q1},{q2},{q3}) j={j} t={t}: "
                            f"E={seq[t]} > bound {q2 ** (j * t) * f0 * bound_factor}"
                        )
                    # exact certificate that no spectral component above q2^j
                    # survives: the expectation sequence must satisfy the
                    # recurrence whose characteristic roots are the
                    # eigenvalues <= q2^j.  Killing enough consecutive terms
                    # forces the large-eigenvalue coefficients to vanish.
                    small = [v for v in values if v <= q2**j]
                    if q2**j not in values:
                        rate_ok = _fail(lines, f"expected rate q2^{j} missing from the spectrum at n={n}")
                        continue
                    poly = [F(1)]
                    for root in small:
                        poly = [
                            (poly[k - 1] if k else F(0)) - root * (poly[k] if k < len(poly) else F(0))
                            for k in range(len(poly) + 1)
                        ]
                    degree = len(poly) - 1
                    for t in range(horizon + 1 - degree):
                        if sum(poly[k] * seq[t + k] for k in range(degree + 1)) != 0:
                            rate_ok = _fail(lines, f"{start} j={j}: decay-rate certificate failed at t={t}")
                            break
    if literal_violations:
        defects.append(
            f"stated bound fails exactly in {len(literal_violations)} of {checked} "
            f"(start, params, j) cases at some t <= 4 "
            f"(first: {literal_violations[0]}); the decay RATE q2^(j t) is confirmed by exact "
            "recurrence certificates; only the stated constant is too small"
        )
        passed = False
    else:
        passed = _fail(lines, "stated bound held everywhere; documented defect analysis is stale")
    if rate_ok:
        lines.append(
            f"exact certificates: E[f_j(X_t)] carries no spectral component above q2^j "
            f"({checked} cases, {vacuous} vacuous flagged separately)"
        )
    else:
        passed = False
    return CriterionResult(
        9, "forest statistic expectation bound", passed, lines,
        flagged=flagged, defects=defects, seconds=time.time() - t0,
    )


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Simulation consistency: samplers vs exact rows, means, determinism."""
    t0 = time.time()
    lines = []
    flagged = []
    passed = True
    n = 4
    alg, deck = distinct_deck(n)
    states = rearrangement_class(alg, deck)
    for preset_label, spec in grid_presets(n):
        K = build_transition_matrix(alg, spec, states=states)
        check = empirical_row_check(K, deck, trials=100_000, seed=seed, stepper=gsr_stepper(spec))
        if check.over_4_sigma:
            passed = _fail(lines, f"{preset_label}: entries beyond 4 sigma {check.over_4_sigma}")
        for state in check.over_3_sigma:
            flagged.append(f"{preset_label}: entry {state} between 3 and 4 sigma")
        if check.chi_square > check.chi_square_limit:
            flagged.append(
                f"{preset_label}: chi-square {check.chi_square:.1f} above {check.chi_square_limit:.1f}"
            )
    lines.append("7 presets x 100000 one-step samples at distinct n=4: all entries within tolerance")

    q = F(1, 2)
    K = build_transition_matrix(alg, top_or_bottom_spec(n, q), states=states)
    dist = point_mass(K, deck)
    stat = {"weighted-descents": lambda w: weighted_descent_stat(w, q, alg.alphabet)}
    steps = 2
    report = run_trajectories(deck, steps, 100_000, gsr_stepper(K.spec), seed, stat)
    targets = expectations(K, dist, steps, stat["weighted-descents"])
    for t in range(1, steps + 1):
        target = targets[t]
        series = report.series["weighted-descents"]
        mean = float(series.mean(t))
        sem = (float(series.variance(t)) / report.trials) ** 0.5
        z = abs(mean - float(target)) / sem if sem else 0.0
        if z > 4.0:
            passed = _fail(lines, f"Monte Carlo mean at t={t}: z={z:.2f}")
        elif z > 3.0:
            flagged.append(f"Monte Carlo mean at t={t}: z={z:.2f} between 3 and 4 sigma")
    lines.append("Monte Carlo weighted-descent means match exact evolution within 3 sigma")

    small_a = run_trajectories(deck, 2, 2_000, gsr_stepper(K.spec), seed, stat)
    small_b = run_trajectories(deck, 2, 2_000, gsr_stepper(K.spec), seed, stat)
    if small_a.to_dict() != small_b.to_dict():
        passed = _fail(lines, "identical seeds produced different reports")
    else:
        lines.append("identical seeds reproduce identical reports")
    return CriterionResult(10, "simulation consistency", passed, lines, flagged=flagged, seconds=time.time() - t0)


# ---------------------------------------------------------------------------


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_all(numbers=None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    selected = sorted(numbers) if numbers else sorted(CRITERIA)
    return [CRITERIA[num](seed) for num in selected]
