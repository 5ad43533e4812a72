"""The desk-scale acceptance grid: ten numbered verification criteria.

Every criterion runs exact checks (rationals compared for equality).  The
simulation criterion compares the sampler's one-step law with the kernel
rows exactly too; only its Monte Carlo means use 3-sigma bands with a
3-to-4-sigma warning zone.  A criterion registers itself with
`@_criterion(number, title)` on a check `(seed, r)`: registration enters
it in `CRITERIA` as `criterion_N(seed)`, which hands the check the seed
and a fresh passing `CriterionResult` `r`, times it, and returns `r`.
The check appends its lines, flags and defects to `r`, and
`_fail(r, message)` adds a `FAIL:` line and marks it failed.  `run_all`
executes a selection and the CLI renders one line per criterion.

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

import functools
import time
from fractions import Fraction
from math import comb, factorial

from .chain import (
    TransitionMatrix,
    build_transition_matrix,
    expectations,
    is_stationary,
    lumping_check,
    point_mass,
    stationary_distributions,
)
from .forests import Forest, enumerate_trees, f_j_statistic, forest_algebra, vertex_stats
from .hopf import (
    check_bialgebra_compatibility,
    check_coassociativity,
    check_state_space_basis,
)
from .linalg import annihilation_check, eigenspace_dimensions
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
    deck_statistic,
    descent_peak_sets,
    distinct_alphabet,
    distinct_deck,
    relabelling_orbits,
)
from .simulate import cut_law, gsr_stepper, outcome_law, run_trajectories
from .spectral import (
    _eigen_equation,
    build_E_j,
    class_spectrum,
    lincomb_rank,
    polynomial_eigenvalue_check,
    trinomial_eigenvalue_check,
    verify_spectrum,
)

F = Fraction
DEFAULT_SEED = 20240809


class CriterionResult:
    """One criterion's outcome, filled in by its check."""

    __slots__ = ("number", "title", "passed", "lines", "flagged", "defects", "seconds")

    def __init__(self, number: int, title: str, passed: bool, lines=None, flagged=None,
                 defects=None, seconds: float = 0.0):
        self.number, self.title, self.passed, self.seconds = number, title, passed, seconds
        self.lines = [] if lines is None else lines
        self.flagged = [] if flagged is None else flagged
        self.defects = [] if defects is None else defects

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


CRITERIA: dict = {}  # number -> criterion, filled by `_criterion` alone


def _criterion(number: int, title: str):
    """Register a check as criterion `number`.

    The check is called with the seed and a fresh passing `CriterionResult`
    that it fills in; the registered `criterion(seed)` builds that result,
    times the check and returns the result.
    """

    def register(check):
        @functools.wraps(check)
        def criterion(seed: int = DEFAULT_SEED) -> CriterionResult:
            r = CriterionResult(number, title, True)
            t0 = time.time()
            check(seed, r)
            r.seconds = time.time() - t0
            return r

        CRITERIA[number] = criterion
        return criterion

    return register


def _fail(r: CriterionResult, message: str) -> None:
    r.lines.append("FAIL: " + message)
    r.passed = False


def _distinct_chain(n: int, spec):
    """(algebra, deck, kernel): spec's chain on the distinct n-card deck's class."""
    alg, deck = distinct_deck(n)
    return alg, deck, build_transition_matrix(alg, spec, states=alg.content_class(alg.content(deck)))


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
    """(label, algebra, n, states) for every grid state space, one content class each."""
    classes = [(f"distinct n={n}", ShuffleAlgebra(distinct_alphabet(n)), (1,) * n) for n in (3, 4, 5)]
    classes.append(("deck aabb", ShuffleAlgebra("ab"), (2, 2)))
    classes += [(f"forests n={n}", forest_algebra(), (n,)) for n in (3, 4)]
    return [(label, alg, sum(c), alg.content_class(c)) for label, alg, c in classes]


TRINOMIAL_PARAMS = [
    (F(1, 4), F(1, 2), F(1, 4)),
    (F(1, 2), F(1, 4), F(1, 4)),
    (F(1, 3), F(1, 3), F(1, 3)),
]


# ---------------------------------------------------------------------------
# criteria: each check fills in the passing result it is handed


_grid_cache: dict = {}


def _grid_cells() -> list:
    """(space label, preset label, algebra, n, states, spec) for every grid cell."""
    return [
        (space_label, preset_label, alg, n, states, spec)
        for space_label, alg, n, states in grid_spaces()
        for preset_label, spec in grid_presets(n)
    ]


def _grid_cell(space_label: str, preset_label: str) -> tuple:
    """The grid cell with these labels."""
    return next(cell for cell in _grid_cells() if cell[:2] == (space_label, preset_label))


def _grid_matrix(cell) -> TransitionMatrix:
    """Build (and cache) one grid cell's transition matrix."""
    space_label, preset_label, alg, _, states, spec = cell
    key = (space_label, preset_label)
    if key not in _grid_cache:
        _grid_cache[key] = build_transition_matrix(alg, spec, states=states)
    return _grid_cache[key]


def _grid_matrices() -> list:
    """(space label, preset label, algebra, n, states, kernel) for every grid cell."""
    return [(*cell[:5], _grid_matrix(cell)) for cell in _grid_cells()]


@_criterion(1, "structure axioms")
def criterion_1(seed: int, r: CriterionResult) -> None:
    """Structure axioms, coassociativity and bialgebra compatibility."""
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
            _fail(r, f"{label}: {v[:3]}")
        else:
            r.lines.append(f"{label}: axioms, coassociativity, compatibility up to degree {cap} ok")


@_criterion(2, "row-stochasticity of the rescaled kernels")
def criterion_2(seed: int, r: CriterionResult) -> None:
    """Every grid transition matrix is exactly row-stochastic."""
    try:
        count = len(_grid_matrices())
    except ArithmeticError as exc:
        _fail(r, str(exc))
    else:
        r.lines.append(f"{count} matrices built; the builder checks each row sum exactly")


# (label, degree, spec builder, exact {eigenvalue: multiplicity}, note)
_LITERAL_SPECTRA = (
    ("top-to-random distinct n=4", 4, top_to_random_spec,
     {F(1): 1, F(1, 2): 6, F(1, 4): 8, F(0): 9}, ""),
    ("riffle distinct n=3", 3, riffle_spec,
     {F(1): 1, F(1, 2): 3, F(1, 4): 2}, " (cycle-type counts)"),
)


@_criterion(3, "spectra vs matrices")
def criterion_3(seed: int, r: CriterionResult) -> None:
    """Formula spectra match trace-certified eigenspace dimensions exactly.

    A word class is certified by the annihilation chain from one row per
    letter-relabelling orbit; on every cell with more than one word per
    orbit the grid's built kernel must give the same dimensions from every
    row.
    """
    both = 0
    for cell in _grid_cells():
        space_label, preset_label, alg, n, states, spec = cell
        spectrum = class_spectrum(spec, alg, alg.content(states[0]))
        report = verify_spectrum(alg, spec, states, spectrum)
        if not report.ok:
            _fail(r, f"{space_label} / {preset_label}: " + "; ".join(report.lines()))
        elif relabelling_orbits(alg, states)[1] > 1:
            support = [value for value, claimed, _ in report.entries if claimed]
            dims = eigenspace_dimensions(_grid_matrix(cell), support)
            if dims is None or any(dims.get(v, 0) != d for v, _, d in report.entries):
                _fail(r, f"{space_label} / {preset_label}: every-row certificate gives {dims}")
            both += 1
    r.lines.append(
        "all grid spectra match trace-certified dimensions; annihilation products vanish; "
        f"the {both} word cells with orbits of more than one deck agree from one row "
        "per orbit and from every row"
    )

    for label, n, make_spec, expected, note in _LITERAL_SPECTRA:
        spec = make_spec(n)
        alg, content = ShuffleAlgebra(distinct_alphabet(n)), (1,) * n
        spectrum = class_spectrum(spec, alg, content)
        got = {v: m for v, m in spectrum.by_eigenvalue().items() if m}
        if got != expected or not verify_spectrum(alg, spec, alg.content_class(content), spectrum).ok:
            _fail(r, f"{label} spectrum is {got}")
        else:
            shown = ", ".join(f"{v}:{m}" for v, m in expected.items())
            r.lines.append(f"{label}: {{{shown}}} confirmed{note}")


@_criterion(4, "stationary distributions")
def criterion_4(seed: int, r: CriterionResult) -> None:
    """Stationary distributions: fixed points, uniformity, independence."""
    pis_by_space: dict = {}
    for space_label, preset_label, alg, n, states, K in _grid_matrices():
        if space_label not in pis_by_space:
            pis_by_space[space_label] = stationary_distributions(alg, n, states=states)
        for pi in pis_by_space[space_label]:
            if not is_stationary(K, pi):
                _fail(r, f"{space_label} / {preset_label}: pi not fixed")
    for space_label, pis in pis_by_space.items():
        if space_label.startswith("distinct"):
            size = len(pis[0].states)
            if len(pis) != 1 or pis[0].den != size or any(c != 1 for c in pis[0].nums):
                _fail(r, f"{space_label}: stationary law not uniform 1/{size}")
        vectors = [{x: c for x, c in zip(pi.states, pi.nums) if c} for pi in pis]
        if lincomb_rank(vectors) != len(pis):
            _fail(r, f"{space_label}: stationary laws linearly dependent")
    if r.passed:
        r.lines.append("each pi fixed by every grid kernel at its degree (the construction never sees the operator)")
        r.lines.append("distinct decks: unique uniform law; all returned laws independent")


@_criterion(5, "weighted descent/peak identities")
def criterion_5(seed: int, r: CriterionResult) -> None:
    """Weighted descent/peak expectations under top-or-bottom insertion."""
    for n in (4, 5):
        for q in (F(0), F(1, 3), F(1, 2), F(1)):
            alg, deck, K = _distinct_chain(n, top_or_bottom_spec(n, q))
            dist = point_mass(K, deck)
            descents = deck_statistic("weighted-descents", alg.alphabet, n, q)
            peaks = deck_statistic("weighted-peaks", alg.alphabet, n, q)
            series_d = expectations(K, dist, 6, descents)
            series_p = expectations(K, dist, 6, peaks)
            for t, (got_d, got_p) in enumerate(zip(series_d, series_p)):
                want_d = (1 - F(n - 2, n) ** t) * F(1, 2)
                want_p = (1 - F(n - 3, n) ** t) * F(1, 3)
                if got_d != want_d:
                    _fail(r, f"descents n={n} q={q} t={t}: {got_d} != {want_d}")
                if got_p != want_p:
                    _fail(r, f"peaks n={n} q={q} t={t}: {got_p} != {want_p}")
    if r.passed:
        r.lines.append("n in {4,5}, q in {0,1/3,1/2,1}, t=0..6: both identities exact")


@_criterion(6, "a-handed expected descent/peak counts")
def criterion_6(seed: int, r: CriterionResult) -> None:
    """Expected descent and peak counts under a-handed riffles."""
    for n in (4, 5):
        alphabet = distinct_alphabet(n)
        descents = deck_statistic("descents", alphabet, n)
        peaks = deck_statistic("peaks", alphabet, n)
        for a in (2, 3):
            K = _grid_matrix(_grid_cell(f"distinct n={n}", f"riffle({a})"))
            dist = point_mass(K, K.states[0])  # the sorted deck: no descent, no peak
            series_d = expectations(K, dist, 4, descents)
            series_p = expectations(K, dist, 4, peaks)
            for t, (got_d, got_p) in enumerate(zip(series_d, series_p)):
                want_d = (1 - F(1, a**t)) * F(n - 1, 2)
                want_p = (1 - F(1, a ** (2 * t))) * F(n - 2, 3)
                if got_d != want_d or got_p != want_p:
                    _fail(r, f"a={a} n={n} t={t}: ({got_d},{got_p}) != ({want_d},{want_p})")
    if r.passed:
        r.lines.append("a in {2,3}, n in {4,5}, t=0..4: descent and peak counts exact")


@_criterion(7, "eigenvector construction and operator extensions")
def criterion_7(seed: int, r: CriterionResult) -> None:
    """Eigenvector families: eigen-equations, completeness, operator extensions."""
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
                _fail(r, f"n={n}, q={q}: the j=n-1 family is unexpectedly nonempty")
            if len(vectors) != factorial(n):
                _fail(r, f"n={n}, q={q}: {len(vectors)} vectors, expected {factorial(n)}")
            if lincomb_rank([v.vector for v in vectors]) != factorial(n):
                _fail(r, f"n={n}, q={q}: vectors not linearly independent")
            if q == 1 and n >= 2 and not polynomial_eigenvalue_check(alg, vectors, 2):
                _fail(r, f"n={n}: m=2 removal-operator eigenvalues failed")
            q1, q2, q3 = trinomial_for_q[q]
            if not trinomial_eigenvalue_check(alg, vectors, q1, q2, q3):
                corrected_ok = False
            if literal_fail_witness is None:
                spec_t = trinomial_spec(n, q1, q2, q3)
                for vec in vectors:
                    if not _eigen_equation(alg, vec.vector, spec_t, q2**vec.j):
                        literal_fail_witness = (n, q, vec.j)
                        break
    if r.passed:
        r.lines.append("eigen-equations exact; j=n-1 empty; counts n! with full rank; m=2 extension ok")
    if literal_fail_witness is None:
        _fail(r, "stated trinomial eigenvalue q2^j held; documented defect analysis is stale")
    else:
        n_w, q_w, j_w = literal_fail_witness
        r.defects.append(
            "stated trinomial eigenvalue q2^j fails exact verification "
            f"(first witness n={n_w}, q={q_w}, j={j_w}); the verified eigenvalue is q2^(n-j) "
            f"[{'confirmed for every vector' if corrected_ok else 'ALSO FAILED'}] - "
            "the flip is forced: the j=n family spans the stationary direction (eigenvalue 1 = q2^0)"
        )
        r.passed = False  # the criterion as stated cannot pass
    if not corrected_ok:
        _fail(r, "corrected trinomial eigenvalue q2^(n-j) did not verify")


@_criterion(8, "descent set is a Markov statistic")
def criterion_8(seed: int, r: CriterionResult) -> None:
    """The descent set is a Markov statistic for every grid shuffle."""
    for cell in _grid_cells():
        space_label, preset_label, alg, n = cell[:4]
        if space_label not in ("distinct n=4", "distinct n=5"):
            continue
        result = lumping_check(
            _grid_matrix(cell), lambda w: tuple(sorted(descent_peak_sets(w, alg.alphabet).descents))
        )
        if not result.ok:
            _fail(r, f"n={n} / {preset_label}: witness {result.witness}")
        elif result.quotient.size > 2 ** (n - 1):
            _fail(r, f"n={n} / {preset_label}: quotient too large")
    if r.passed:
        r.lines.append("descent-set lumping holds for n=4,5 under all 7 presets (quotients <= 2^(n-1))")


@_criterion(9, "forest statistic expectation bound")
def criterion_9(seed: int, r: CriterionResult) -> None:
    """Forest expectation bound: literal form, plus exact decay-rate certificate."""
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
            if not annihilation_check(K, values):
                _fail(r, f"annihilation failed for forests n={n}")
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
                            _fail(r, f"{start} j={j}: empty max but f_j nonzero")
                        vacuous += 1
                        r.flagged.append(f"vacuous: {start} j={j} params ({q1},{q2},{q3}) (0 <= 0)")
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
                        _fail(r, f"expected rate q2^{j} missing from the spectrum at n={n}")
                        rate_ok = False
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
                            _fail(r, f"{start} j={j}: decay-rate certificate failed at t={t}")
                            rate_ok = False
                            break
    if literal_violations:
        r.defects.append(
            f"stated bound fails exactly in {len(literal_violations)} of {checked} "
            f"(start, params, j) cases at some t <= 4 "
            f"(first: {literal_violations[0]}); the decay RATE q2^(j t) is confirmed by exact "
            "recurrence certificates; only the stated constant is too small"
        )
        r.passed = False
    else:
        _fail(r, "stated bound held everywhere; documented defect analysis is stale")
    if rate_ok:
        r.lines.append(
            f"exact certificates: E[f_j(X_t)] carries no spectral component above q2^j "
            f"({checked} cases, {vacuous} vacuous flagged separately)"
        )


@_criterion(10, "simulation consistency")
def criterion_10(seed: int, r: CriterionResult) -> None:
    """Simulation consistency: the sampler's exact one-step law vs kernel
    rows, Monte Carlo means, determinism."""
    # the word spaces: forests have no cut-and-drop sampler
    cells = [cell for cell in _grid_cells() if isinstance(cell[2], ShuffleAlgebra)]
    for cell in cells:
        space_label, preset_label, _, _, states, spec = cell
        deck = states[0]
        if outcome_law(cut_law(spec), deck) != _grid_matrix(cell).row_of(deck):
            _fail(r, f"{space_label} / {preset_label}: one step from {deck} misses its kernel row")
    r.lines.append(
        f"{len(cells)} word-space cells: one cut-and-drop step from the first deck "
        "has exactly the kernel row's law"
    )

    n = 4
    q = F(1, 2)
    cell = _grid_cell(f"distinct n={n}", "top-or-bottom(1/2)")
    _, _, alg, _, states, spec = cell
    K = _grid_matrix(cell)
    deck = states[0]
    dist = point_mass(K, deck)
    stat = {"weighted-descents": deck_statistic("weighted-descents", alg.alphabet, n, q)}
    steps = 2
    report = run_trajectories(deck, steps, 100_000, gsr_stepper(spec), seed, stat)
    targets = expectations(K, dist, steps, stat["weighted-descents"])
    for t in range(1, steps + 1):
        target = targets[t]
        series = report.series["weighted-descents"]
        mean = float(series.mean(t))
        sem = (float(series.variance(t)) / report.trials) ** 0.5
        z = abs(mean - float(target)) / sem if sem else 0.0
        if z > 4.0:
            _fail(r, f"Monte Carlo mean at t={t}: z={z:.2f}")
        elif z > 3.0:
            r.flagged.append(f"Monte Carlo mean at t={t}: z={z:.2f} between 3 and 4 sigma")
    r.lines.append("Monte Carlo weighted-descent means match exact evolution within 3 sigma")

    small_a = run_trajectories(deck, 2, 2_000, gsr_stepper(spec), seed, stat)
    small_b = run_trajectories(deck, 2, 2_000, gsr_stepper(spec), seed, stat)
    if small_a.to_dict() != small_b.to_dict():
        _fail(r, "identical seeds produced different reports")
    else:
        r.lines.append("identical seeds reproduce identical reports")


# ---------------------------------------------------------------------------


def run_all(numbers=None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    selected = sorted(numbers) if numbers else sorted(CRITERIA)
    return [CRITERIA[num](seed) for num in selected]
