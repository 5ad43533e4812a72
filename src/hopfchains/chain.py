"""Markov chains from breaking-size operators, with exact arithmetic.

The transition probability from x to y is the coefficient of y in the
operator applied to x, conjugated by the basis rescaling and divided by
the normalising constant:

    K[x][y] = c_xy * eta(y) / (beta_n * eta(x)).

Row sums then equal 1 identically; the builder checks this for every row
and fails loudly otherwise rather than normalising anything away.

Word states (either word algebra, any state list) take the relabelled
build.  Both word algebras cut and merge by position and never read a
card label, so relabelling letters is a Hopf morphism: eta is the same
on every word of a degree, and the operator's image of x is its image of
the distinct word 0 1 ... n-1 with each key sigma read as x.sigma,
(x.sigma)[i] = x[sigma[i]] (Pang, arXiv:1508.01570).  So one `apply_cpp`
call gives the position law Q (`shuffle.position_law`), and
K[x][x.sigma] += Q(sigma) (`shuffle.relabelled_columns`).  That call on
n distinct cards costs far more than one on a deck with repeated
letters, so Q is formed only when n! is at most 5 times the kernel's
entry count (`RELABEL_RATIO`): always on a distinct deck's class and on
classes with many states for their size, such as aabbcc or aaaabbcc,
but not on decks such as aaaaaabb or aaaabbbb, whose 28 and 70 states a
per-row build reaches sooner.  Forests, whose coproduct reads tree
shapes, and those word lists take one `apply_cpp` call per state
(`per_row_kernel`).  On a distinct deck's class K is the
right-regular representation of Q, and the spectrum certificate runs its
chain from one of these rows.  Tests check the relabelled build entry by
entry against the per-state formula on every grid space and against
`per_row_kernel` on random specs.
Both builds write integer rows over one denominator (`RatMatrix`): the
image is integers over den and eta a count, so only beta_n is rational.
`evolve`, `lumping_check` and `check_stochastic` work on those integers,
and `row_of` and the exporters form `Fraction(c, den)` for output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Iterator, Optional

from .hopf import AlgebraHandle, CppSpec, apply_cpp, beta_n, eta, symmetrized_product
from .linalg import RatMatrix, rat
from .shuffle import WordAlgebra, not_closed, position_law, relabelled_columns

# The relabelled build is chosen when n! <= RELABEL_RATIO * states^2.  Timed
# in one process per deck (2 cores, Python 3.11.7) against the per-row
# build on repeated-letter decks of 6 to 9 cards under trinomial(1/4, 1/2,
# 1/4), whose position law holds all n! permutations, the relabelled build
# was the faster one up to n! = 4.1 * states^2 and the per-row build from
# 8.2 * states^2 on.  Laws with fewer permutations favour the relabelled
# build more: under riffle(3) it stays faster up to 280 * states^2.
RELABEL_RATIO = 5

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class TransitionMatrix:
    """Exact row-stochastic kernel over an ordered list of states: the step
    from state i to state j has probability kernel.entries[i][j] / kernel.den."""

    states: list
    kernel: RatMatrix
    etas: Optional[list] = None
    beta: Optional[Fraction] = None
    spec: Optional[CppSpec] = None
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.states)}

    @property
    def size(self) -> int:
        return len(self.states)

    def row_of(self, x) -> dict:
        den = self.kernel.den
        row = self.kernel.entries[self.index[x]]
        return {y: Fraction(c, den) for y, c in zip(self.states, row) if c}


def build_transition_matrix(alg: AlgebraHandle, spec: CppSpec, states=None) -> TransitionMatrix:
    """Build the chain kernel for an operator spec at its degree.

    `states` defaults to the full degree-n basis; passing a sublist (for
    example one deck's rearrangement class) restricts to it, and the
    builder raises if the operator ever leaves that set.  Word states take
    the relabelled build from one position law when n! is at most
    `RELABEL_RATIO` times the square of the state count; forests, and word
    lists with few states for their degree, take one `apply_cpp` call per
    state.
    """
    n = spec.n
    if states is None:
        states = alg.basis(n)
    states = list(states)
    if not states:
        raise ValueError(f"empty state space at degree {n}")
    for s in states:
        if s.degree != n:
            raise ValueError(f"state {s!r} has degree {s.degree}, spec degree is {n}")
    if isinstance(alg, WordAlgebra) and factorial(n) <= RELABEL_RATIO * len(states) ** 2:
        etas = [eta(alg, states[0])] * len(states)  # eta reads no label
        kernel = relabelled_kernel(*position_law(alg, spec), states)
    else:
        etas = [eta(alg, s) for s in states]
        kernel = per_row_kernel(alg, spec, states, etas)
    return TransitionMatrix(
        states=states,
        kernel=check_stochastic(states, kernel),
        etas=etas,
        beta=beta_n(spec),
        spec=spec,
    )


def check_stochastic(states: list, kernel: RatMatrix) -> RatMatrix:
    """The kernel itself, once every row is checked to be a probability law."""
    for x, row in zip(states, kernel.entries):
        if sum(row) != kernel.den:
            total = Fraction(sum(row), kernel.den)
            raise ArithmeticError(f"row for {x!r} sums to {total}, not 1: rescaling identity violated")
        if min(row) < 0:
            raise ArithmeticError(f"negative transition probability in row for {x!r}")
    return kernel


def per_row_kernel(alg: AlgebraHandle, spec: CppSpec, states: list, etas: list) -> RatMatrix:
    """K[x][y] = c_xy eta(y) / (beta_n eta(x)), one `apply_cpp` call per state:
    the integers c_xy eta(y) (L / eta(x)) over beta_n den L, L = lcm(etas)."""
    index = {s: i for i, s in enumerate(states)}
    beta = beta_n(spec)
    etas_lcm = lcm(*etas)
    rows = []
    for x, ex in zip(states, etas):
        row = [0] * len(states)
        scale = etas_lcm // ex
        image, den = apply_cpp(alg, {x: 1}, spec)
        for y, c in image.items():
            j = index.get(y)
            if j is None:
                raise not_closed(x, y)
            row[j] = c * etas[j] * scale
        rows.append(row)
    # every image's den is the lcm of the spec weights' denominators
    return RatMatrix(rows, beta.numerator * (den // beta.denominator) * etas_lcm)


def relabelled_kernel(law: tuple, den: int, states: list) -> RatMatrix:
    """K[x][x.sigma] += Q(sigma) for a position law Q over den (`position_law`)."""
    numerators = [c for _, c in law]
    rows = []
    for columns in relabelled_columns(law, states):
        row = [0] * len(states)
        for j, c in zip(columns, numerators):
            row[j] += c
        rows.append(row)
    return RatMatrix(rows, den)


@dataclass
class Distribution:
    """Exact probability vector aligned with a state list."""

    states: list
    weights: list
    provenance: Optional[tuple] = None

    def __post_init__(self):
        if len(self.states) != len(self.weights):
            raise ValueError("weights must align with states")
        if any(w < 0 for w in self.weights):
            raise ValueError("negative weight in distribution")
        if sum(self.weights, _ZERO) != 1:
            raise ValueError("distribution weights must sum to exactly 1")


def point_mass(matrix: TransitionMatrix, state) -> Distribution:
    if state not in matrix.index:
        raise ValueError(f"state {state!r} not in the chain's state space")
    weights = [_ZERO] * matrix.size
    weights[matrix.index[state]] = _ONE
    return Distribution(states=matrix.states, weights=weights)


def evolve(matrix: TransitionMatrix, start: Distribution, t: int) -> Distribution:
    """Distribution after t steps: start x K^t, computed exactly on integer
    numerators over the start's common denominator times den^t."""
    if t < 0:
        raise ValueError("negative time")
    if start.states != matrix.states:
        raise ValueError("distribution is over a different state list")
    den = lcm(*[w.denominator for w in start.weights])
    weights = [w.numerator * (den // w.denominator) for w in start.weights]
    for _ in range(t):
        new = [0] * matrix.size
        for wi, row in zip(weights, matrix.kernel.entries):
            if wi:
                for j, a in enumerate(row):
                    if a:
                        new[j] += wi * a
        weights = new
    den *= matrix.kernel.den**t
    return Distribution(states=matrix.states, weights=[Fraction(w, den) for w in weights])


def expectations(
    matrix: TransitionMatrix,
    start: Distribution,
    t: int,
    stat: Callable,
) -> list[Fraction]:
    """Exact expectations E[stat(X_s)] of a rational statistic for s = 0..t.

    One pass: the distribution advances one step at a time.  The statistic
    is evaluated at most once per state, the first time the state carries
    weight.
    """
    if t < 0:
        raise ValueError("negative time")
    if start.states != matrix.states:
        raise ValueError("distribution is over a different state list")
    dist = start
    values: list = [None] * matrix.size
    out = []
    for s in range(t + 1):
        if s:
            dist = evolve(matrix, dist, 1)
        total = _ZERO
        for i, w in enumerate(dist.weights):
            if w:
                v = values[i]
                if v is None:
                    v = values[i] = rat(stat(dist.states[i]))
                total += w * v
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# stationary distributions


def stationary_distributions(alg: AlgebraHandle, n: int, states=None) -> list[Distribution]:
    """One stationary distribution per multiset of degree-1 basis elements.

    The weight of x is eta(x)/n!^2 times the number of ways (summed over
    all orderings of the multiset) to build x as a product of the chosen
    degree-1 pieces.  These vectors are fixed by every breaking-size
    operator's chain at degree n; they depend on the algebra only.
    A multiset's product only reaches keys of its own content, so only
    the contents of the given states are tried, in the order of
    `combinations_with_replacement` over `basis(1)`; a multiset whose
    distribution still vanishes on the state list is skipped.
    """
    if states is None:
        states = alg.basis(n)
    states = list(states)
    singles = alg.basis(1)
    if not singles:
        raise ValueError("degree-1 basis is empty; no stationary construction")
    results = []
    nfact = factorial(n)
    for content in sorted({alg.content(x) for x in states}, reverse=True):
        multiset = tuple(key for key, m in zip(singles, content) for _ in range(m))
        coeffs = symmetrized_product(alg, [{key: 1} for key in multiset])
        weights = []
        for x in states:
            c = coeffs.get(x, 0)
            weights.append(c * eta(alg, x) / Fraction(nfact**2))
        total = sum(weights, _ZERO)
        if total == 0:
            continue
        if total != 1:
            raise ArithmeticError(
                f"stationary weights for multiset {multiset!r} sum to {total}; "
                "the state list does not cover this class"
            )
        results.append(
            Distribution(states=states, weights=weights, provenance=multiset)
        )
    return results


def is_stationary(matrix: TransitionMatrix, dist: Distribution) -> bool:
    """Exact fixed-point test: dist x K == dist."""
    return evolve(matrix, dist, 1).weights == dist.weights


# ---------------------------------------------------------------------------
# lumping


@dataclass
class LumpingResult:
    """Outcome of a strong-lumpability check."""

    ok: bool
    quotient: Optional[TransitionMatrix] = None
    witness: Optional[tuple] = None  # (x, x_prime, label_class)

    def __bool__(self) -> bool:
        return self.ok


def lumping_check(matrix: TransitionMatrix, statistic: Callable) -> LumpingResult:
    """Check that a statistic is Markov for this chain.

    Strong lumpability: states with equal labels must give equal total
    probability into every label class.  On success the quotient chain is
    returned; on failure the witness triple (x, x', class) is reported.
    """
    labels = [statistic(s) for s in matrix.states]
    classes = sorted(set(labels), key=repr)
    class_index = {c: i for i, c in enumerate(classes)}
    lumped_rows: dict = {}
    for x, row, label in zip(matrix.states, matrix.kernel.entries, labels):
        sums = [0] * len(classes)
        for a, target in zip(row, labels):
            if a:
                sums[class_index[target]] += a
        if label in lumped_rows:
            prev_state, prev_sums = lumped_rows[label]
            if prev_sums != sums:
                bad = next(
                    classes[k] for k in range(len(classes)) if prev_sums[k] != sums[k]
                )
                return LumpingResult(ok=False, witness=(prev_state, x, bad))
        else:
            lumped_rows[label] = (x, sums)
    kernel = RatMatrix([lumped_rows[c][1] for c in classes], matrix.kernel.den)
    quotient = TransitionMatrix(states=classes, kernel=kernel)
    return LumpingResult(ok=True, quotient=quotient)


# ---------------------------------------------------------------------------
# export


def _text_rows(matrix: TransitionMatrix) -> Iterator[Iterator[str]]:
    """Kernel rows as iterators of "p/q" strings, one Fraction per distinct numerator."""
    entries = matrix.kernel.entries
    text = {c: str(Fraction(c, matrix.kernel.den)) for c in set().union(*entries)}
    return (map(text.__getitem__, row) for row in entries)


def matrix_to_csv(matrix: TransitionMatrix) -> Iterator[str]:
    """CSV lines, each ending in a newline: a header row of state encodings,
    then one row of rational-string entries per state."""
    yield "state," + ",".join(map(str, matrix.states)) + "\n"
    for s, row in zip(matrix.states, _text_rows(matrix)):
        yield f"{s},{','.join(row)}\n"


def matrix_to_dict(matrix: TransitionMatrix) -> dict:
    data = {
        "states": [str(s) for s in matrix.states],
        "rows": list(map(list, _text_rows(matrix))),
    }
    if matrix.beta is not None:
        data["beta"] = str(matrix.beta)
    if matrix.etas is not None:
        data["etas"] = [str(e) for e in matrix.etas]
    return data


def distribution_to_dict(dist: Distribution) -> dict:
    return {str(s): str(w) for s, w in zip(dist.states, dist.weights) if w}
