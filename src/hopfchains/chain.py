"""Markov chains from breaking-size operators, with exact arithmetic.

The transition probability from x to y is the coefficient of y in the
operator applied to x, conjugated by the basis rescaling and divided by
the normalising constant:

    K[x][y] = c_xy * eta(y) / (beta_n * eta(x)).

One function forms these rows, `kernel_rows`: each state's row as
(column, numerator) pairs over one den.  It checks that every row's
numerators are positive and sum to den, failing loudly rather than
normalising anything away, and it refuses a state list the operator
leaves.  The matrix build (`build_transition_matrix`) stores them, columns
ascending, and the spectrum certificate (`spectral.verify_spectrum`) runs on them.

The rows come one of two ways.  Both word algebras cut and merge by
position and never read a card label, so relabelling letters is a Hopf
morphism: eta is the same on every word of a degree, and the operator's
image of x is its image of the distinct word 0 1 ... n-1 with each key
sigma read as x.sigma, (x.sigma)[i] = x[sigma[i]] (Pang, arXiv:1508.01570).
So one `apply_cpp` call gives the position law Q (`shuffle.position_law`),
and row x holds Q(sigma) at x.sigma, added where two sigma reach one
word.  That call on n distinct cards costs far more than one on a deck
with repeated letters.  So the word-build rule (`relabels`) is: Q holds
at most min(n!, sum of multinomial(n; c) over the spec's compositions c)
permutations, and it is read only when that bound is at most
`RELABEL_RATIO` times states^2.  That holds on a distinct deck's class
and on classes with many states for their size, such as aabbcc or
aaaabbcc, and under a spec with few short compositions, such as
riffle(3) on aaaaabbb, but not under trinomial on decks such as aaaaaabb
or aaaabbbb, whose 28 and 70 states one call per state reaches sooner.
Forests, whose coproduct reads tree shapes, and those word lists take
one `apply_cpp` call per state, rescaled by the etas.  Tests check the
rows entry by entry against the per-state formula on every grid space,
and the two ways against each other on random specs.

The rows are integers over one den (only beta_n is rational) and short:
top-to-random on 720 decks has 4,320 non-zeros of 518,400 entries.  So
every reader walks the pairs: `evolve` (with `expectations` and
`is_stationary`), `lumping_check`, `row_of`, the exporters, which still
write every zero, and `simulate.matrix_stepper`; the dense `kernel` is
only a view.  A law (`Distribution`) is integer numerators over one den
too.  `row_of` and `distribution_to_dict` form `Fraction(c, den)` for
each entry they output, the exporters one per distinct numerator of the
kernel (2 in riffle(2)'s 41,760 non-zeros on 720 decks), and
`expectations` one per time step.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Callable, Iterator, NamedTuple, Optional

from .hopf import AlgebraHandle, CppSpec, apply_cpp, beta_n, eta, multinomial, symmetrized_product
from .linalg import RatMatrix, dense_matrix, rat
from .shuffle import Word, WordAlgebra, position_law, position_moves

# The ratio of the word-build rule in the module docstring.  Timed in one
# process per deck (2 cores, Python 3.11.7) against the per-row build on
# repeated-letter decks of 6 to 9 cards under trinomial(1/4, 1/2, 1/4),
# whose position law holds all n! permutations (its bound is n!), the
# relabelled build was the faster one up to n! = 4.1 * states^2 and the
# per-row build from 8.2 * states^2 on.  Laws with fewer permutations
# favour the relabelled build more: under riffle(3) it stayed faster up
# to n! = 280 * states^2, and its bound at n = 8 is 6,051, not
# 8! = 40,320.
RELABEL_RATIO = 5


class TransitionMatrix:
    """Exact row-stochastic kernel over an ordered list of states: rows[i] holds,
    j ascending, the (j, c) of each step from state i to j with probability c / den,
    all divided by their gcd.  `index` maps each state to its position."""

    __slots__ = ("states", "rows", "den", "etas", "beta", "spec", "index", "_kernel")

    def __init__(
        self,
        states: list,
        rows: list,
        den: int,
        etas: Optional[list] = None,
        beta: Optional[Fraction] = None,
        spec: Optional[CppSpec] = None,
    ):
        g = gcd(den, *(c for row in rows for _, c in row))
        self.rows = [sorted((j, c // g) for j, c in row) if g > 1 else sorted(row) for row in rows]
        self.states, self.den, self.etas, self.beta, self.spec = states, den // g, etas, beta, spec
        self.index, self._kernel = {s: i for i, s in enumerate(states)}, None

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def kernel(self) -> RatMatrix:
        """The dense `RatMatrix` of the rows, formed on first read."""
        if self._kernel is None:
            self._kernel = dense_matrix(self.rows, self.den)
        return self._kernel

    def row_of(self, x) -> dict:
        return {self.states[j]: Fraction(c, self.den) for j, c in self.rows[self.index[x]]}


def build_transition_matrix(alg: AlgebraHandle, spec: CppSpec, states=None) -> TransitionMatrix:
    """Build the chain kernel for an operator spec at its degree.

    `states` defaults to the full degree-n basis; passing a sublist (for
    example one deck's rearrangement class) restricts to it, and the
    builder raises if the operator ever leaves that set.
    """
    states = list(alg.basis(spec.n) if states is None else states)
    rows, den, etas = kernel_rows(alg, spec, states)
    return TransitionMatrix(states, rows, den, etas=etas, beta=beta_n(spec), spec=spec)


def relabels(alg: AlgebraHandle, spec: CppSpec, size: int) -> bool:
    """The word-build rule of the module docstring: True iff the chain's
    rows on `size` word states are read off the position law."""
    n = spec.n
    return isinstance(alg, WordAlgebra) and min(
        factorial(n), sum(multinomial(n, c) for c, _ in spec.terms)
    ) <= RELABEL_RATIO * size**2


def _not_closed(x, y) -> ValueError:
    return ValueError(f"state space not closed: {x!r} reaches {y!r} outside the given states")


def kernel_rows(alg: AlgebraHandle, spec: CppSpec, states: list) -> tuple[list, int, list]:
    """(rows, den, etas): each state's row of K as (column, numerator)
    pairs, with distinct columns and positive numerators summing to den,
    and each state's eta.

    Where `relabels` holds, row x holds the position law's numerator of
    sigma at x.sigma, over the law's den.  Otherwise it is one `apply_cpp`
    call per state: the integers c_xy eta(y) (L / eta(x)) over beta_n den L,
    L = lcm(etas).
    """
    if not states:
        raise ValueError(f"empty state space at degree {spec.n}")
    for s in states:
        if s.degree != spec.n:
            raise ValueError(f"state {s!r} has degree {s.degree}, spec degree is {spec.n}")
    index = {s: i for i, s in enumerate(states)}
    rows = []
    if relabels(alg, spec, len(states)):
        law, den = position_law(alg, spec)
        etas = [eta(alg, states[0])] * len(states)  # eta reads no label
        moves = position_moves(law)
        for x in states:
            row: dict = {}
            for move, c in moves:
                j = index.get(move(x))
                if j is None:
                    raise _not_closed(x, Word(move(x)))
                row[j] = row.get(j, 0) + c
            rows.append(row)
    else:
        etas = [eta(alg, s) for s in states]
        etas_lcm = lcm(*etas)
        for x, ex in zip(states, etas):
            scale = etas_lcm // ex
            image, den = apply_cpp(alg, {x: 1}, spec)
            row = {}
            for y, c in image.items():
                j = index.get(y)
                if j is None:
                    raise _not_closed(x, y)
                row[j] = c * etas[j] * scale
            rows.append(row)
        # every image's den is the lcm of the spec weights' denominators
        beta = beta_n(spec)
        den = beta.numerator * (den // beta.denominator) * etas_lcm
    for x, row in zip(states, rows):
        if sum(row.values()) != den:
            total = Fraction(sum(row.values()), den)
            raise ArithmeticError(f"row for {x!r} sums to {total}, not 1: rescaling identity violated")
        if min(row.values()) <= 0:
            raise ArithmeticError(f"non-positive transition probability in row for {x!r}")
    return [list(row.items()) for row in rows], den, etas


class Distribution:
    """Exact probability law aligned with a state list: state i has
    probability nums[i] / den, both divided by their gcd as in `RatMatrix`."""

    __slots__ = ("states", "nums", "den", "provenance")

    def __init__(self, states: list, nums, den: int, provenance: Optional[tuple] = None):
        if len(states) != len(nums):
            raise ValueError("weights must align with states")
        if den <= 0 or sum(nums) != den:
            raise ValueError("distribution weights must sum to exactly 1")
        if min(nums) < 0:
            raise ValueError("negative weight in distribution")
        g = gcd(den, *nums)
        self.states, self.provenance = states, provenance
        self.nums = tuple(c // g for c in nums) if g > 1 else tuple(nums)
        self.den = den // g

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and (
            self.states, self.nums, self.den, self.provenance
        ) == (other.states, other.nums, other.den, other.provenance)

    def __repr__(self) -> str:
        return f"Distribution({self.states!r}, {self.nums!r}, {self.den}, {self.provenance!r})"


def point_mass(matrix: TransitionMatrix, state) -> Distribution:
    if state not in matrix.index:
        raise ValueError(f"state {state!r} not in the chain's state space")
    nums = [0] * matrix.size
    nums[matrix.index[state]] = 1
    return Distribution(matrix.states, nums, 1)


def evolve(matrix: TransitionMatrix, start: Distribution, t: int) -> Distribution:
    """Distribution after t steps: start x K^t, the start's numerators
    stepped through the kernel's sparse rows, over start.den * den^t."""
    if t < 0:
        raise ValueError("negative time")
    if start.states != matrix.states:
        raise ValueError("distribution is over a different state list")
    nums = start.nums
    for _ in range(t):
        new = [0] * matrix.size
        for wi, row in zip(nums, matrix.rows):
            if wi:
                for j, a in row:
                    new[j] += wi * a
        nums = new
    return Distribution(matrix.states, nums, start.den * matrix.den**t)


def expectations(
    matrix: TransitionMatrix,
    start: Distribution,
    t: int,
    stat: Callable,
) -> list[Fraction]:
    """Exact expectations E[stat(X_s)] of a rational statistic for s = 0..t.

    One pass: the distribution advances one step at a time.  The statistic
    is evaluated at most once per state, the first time the state carries
    weight, and each step's expectation is one integer sum over the law's
    den times the lcm of the denominators of the values it weighs.
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
        support = [i for i, w in enumerate(dist.nums) if w]
        for i in support:
            if values[i] is None:
                v = stat(dist.states[i])
                values[i] = v if isinstance(v, int) else rat(v)  # an int is its own numerator
        vden = lcm(*(values[i].denominator for i in support))
        total = sum(dist.nums[i] * values[i].numerator * (vden // values[i].denominator) for i in support)
        out.append(Fraction(total, dist.den * vden))
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
    distribution still vanishes on the state list is skipped.  Eta is
    computed only where the product's coefficient is non-zero.
    """
    if states is None:
        states = alg.basis(n)
    states = list(states)
    singles = alg.basis(1)
    if not singles:
        raise ValueError("degree-1 basis is empty; no stationary construction")
    results = []
    den = factorial(n) ** 2
    for content in sorted({alg.content(x) for x in states}, reverse=True):
        multiset = tuple(key for key, m in zip(singles, content) for _ in range(m))
        coeffs = symmetrized_product(alg, [{key: 1} for key in multiset])
        nums = [coeffs[x] * eta(alg, x) if x in coeffs else 0 for x in states]
        total = sum(nums)
        if total == 0:
            continue
        if total != den:
            raise ArithmeticError(
                f"stationary weights for multiset {multiset!r} sum to {Fraction(total, den)}; "
                "the state list does not cover this class"
            )
        results.append(Distribution(states, nums, den, provenance=multiset))
    return results


def is_stationary(matrix: TransitionMatrix, dist: Distribution) -> bool:
    """Exact fixed-point test: dist x K == dist, as reduced numerators over den."""
    after = evolve(matrix, dist, 1)
    return (after.nums, after.den) == (dist.nums, dist.den)


# ---------------------------------------------------------------------------
# lumping


class LumpingResult(NamedTuple):
    """Outcome of a strong-lumpability check."""

    ok: bool
    quotient: Optional[TransitionMatrix] = None
    witness: Optional[tuple] = None  # (x, x_prime, label_class)


def lumping_check(matrix: TransitionMatrix, statistic: Callable) -> LumpingResult:
    """Check that a statistic is Markov for this chain.

    Strong lumpability: states with equal labels must give equal total
    probability into every label class.  On success the quotient chain is
    returned; on failure the witness triple (x, x', class) is reported.
    """
    labels = [statistic(s) for s in matrix.states]
    classes = sorted(set(labels), key=repr)
    targets = list(map({c: i for i, c in enumerate(classes)}.__getitem__, labels))
    lumped_rows: dict = {}
    for x, row, label in zip(matrix.states, matrix.rows, labels):
        sums = [0] * len(classes)
        for j, a in row:
            sums[targets[j]] += a
        prev_state, prev_sums = lumped_rows.setdefault(label, (x, sums))
        if prev_sums != sums:
            bad = next(c for c, a, b in zip(classes, prev_sums, sums) if a != b)
            return LumpingResult(ok=False, witness=(prev_state, x, bad))
    rows = [[(k, a) for k, a in enumerate(lumped_rows[c][1]) if a] for c in classes]
    return LumpingResult(ok=True, quotient=TransitionMatrix(classes, rows, matrix.den))


# ---------------------------------------------------------------------------
# export


def _text_rows(matrix: TransitionMatrix) -> Iterator[list[str]]:
    """Kernel rows as lists of "p/q" strings, zeros too, one Fraction per distinct numerator."""
    numerators = {c for row in matrix.rows for _, c in row}
    text = {c: str(Fraction(c, matrix.den)) for c in numerators}
    for row in matrix.rows:
        line = ["0"] * matrix.size
        for j, c in row:
            line[j] = text[c]
        yield line


def matrix_to_csv(matrix: TransitionMatrix) -> Iterator[str]:
    """CSV lines, each ending in a newline: a header row of state encodings,
    then one row of rational-string entries per state."""
    yield "state," + ",".join(map(str, matrix.states)) + "\n"
    for s, row in zip(matrix.states, _text_rows(matrix)):
        yield f"{s},{','.join(row)}\n"


def matrix_to_dict(matrix: TransitionMatrix) -> dict:
    data = {
        "states": [str(s) for s in matrix.states],
        "rows": list(_text_rows(matrix)),
    }
    if matrix.beta is not None:
        data["beta"] = str(matrix.beta)
    if matrix.etas is not None:
        data["etas"] = [str(e) for e in matrix.etas]
    return data


def distribution_to_dict(dist: Distribution) -> dict:
    return {str(s): str(Fraction(c, dist.den)) for s, c in zip(dist.states, dist.nums) if c}
