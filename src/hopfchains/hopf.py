"""Graded connected Hopf-algebra plumbing over explicit combinatorial bases.

An `AlgebraHandle` supplies three things: a deterministic basis enumeration
per degree, the product of two basis elements, and the coproduct of one,
the last two as plain `{key: int}` dicts of structure constants.
Everything else here is generic over the handle: the product, the
iterated coproduct, the symmetrised product over all orderings,
convolutions of graded projections (the "break into pieces of prescribed
sizes, then recombine" operators), the normalisation constant of such an
operator, the basis rescaling that makes its matrix row-stochastic (whose
constants a handle may give in closed form), and the structural checks a
basis must satisfy for those operators to define Markov chains.

A linear combination is a plain `{key: coefficient}` dict with no zero
coefficient stored, so equal combinations are equal dicts; a tensor's
keys are tuples of basis keys, one per leg.  Coefficients are ints
where the maths is integral and Fractions only where q-weights or
kernel vectors bring one in.  `iterated_coproduct` alone wraps its dict
in a `LinComb`, whose `.terms` the benchmark's trace hook reads.

`apply_cpp` applies a weighted sum of projection convolutions in one
leg-by-leg walk over the spec's composition prefixes: it splits off one
non-empty leg at a time, keeps only the splits whose leg degrees still
begin some composition, and multiplies each closed leg into a running
product.  So it never forms a full iterated coproduct, and the
compositions that share a prefix share its expansion.  It returns integer
numerators over one denominator, as only the spec weights are rational.

Basis keys must be hashable, canonical (equal iff they denote the same
combinatorial object) and carry a `.degree` attribute; the unique degree-0
key plays the role of the unit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import factorial, lcm
from typing import NamedTuple

from .linalg import rat

_ZERO = Fraction(0)


def _add_term(d: dict, key, coeff) -> None:
    cur = d.get(key)
    if cur is None:
        if coeff:
            d[key] = coeff
    else:
        cur = cur + coeff
        if cur:
            d[key] = cur
        else:
            del d[key]


class LinComb:
    """The `.terms` holder that `iterated_coproduct` returns.

    Every other linear combination is a plain dict.  This one stays
    because `perfbench/layertrace.py` counts the coproduct's terms as
    `len(result.terms)`; once that hook reads a dict, the holder can go.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self.terms == other.terms


class AlgebraHandle:
    """Interface for a graded connected algebra/coalgebra on a combinatorial basis.

    Subclasses provide `basis`, `product_basis` and `coproduct_basis`, the
    `content` and `generator_counts` that the spectra and stationary laws
    read, and set the `commutative` / `cocommutative` flags.  A content
    class is a chain's state space, and the handle gives its size without
    enumeration (`class_size`), its states (`content_class`), a sampler
    that needs no kernel, if any (`stepper`), and the statistics its states
    take: one table `statistics`, {--stat name: {flag it reads: default}},
    and their callables (`statistic`).  Subclasses may supply `eta`, the basis
    rescaling constant, in closed form; the default recurses through
    `coproduct_basis`.  The structure maps return `{key: int}` dicts, which
    callers only read.  Handles are immutable after construction; the
    internal caches only memoise pure functions.
    """

    name = "abstract"
    commutative = False
    cocommutative = False
    statistics: dict = {}

    def __init__(self):
        self._eta_cache: dict = {}

    def basis(self, n: int) -> list:
        """All basis keys of degree n, in a fixed canonical order."""
        raise NotImplementedError

    def unit_key(self):
        return self.basis(0)[0]

    def product_basis(self, x, y) -> dict:
        """The product of x and y, as {key: int}."""
        raise NotImplementedError

    def coproduct_basis(self, x) -> dict:
        """The coproduct of x, as {(left, right): int}."""
        raise NotImplementedError

    def content(self, key) -> tuple:
        """How many of each `basis(1)` key a basis key is made of.

        A product of degree-1 keys reaches only keys of its own content,
        and every breaking-size operator preserves content, so each
        content class is an invariant state space of the chains.
        """
        raise NotImplementedError

    def class_size(self, content) -> int:
        """The number of basis keys of this content, counted, not enumerated."""
        raise NotImplementedError

    def content_class(self, content) -> list:
        """The basis keys of this content, in a fixed canonical order."""
        raise NotImplementedError

    def statistic(self, name: str, n: int, **params):
        """Statistic `name` of degree-n states as a callable, its flags fixed by `params`."""
        raise NotImplementedError

    def stepper(self, spec):
        """A (state, rng) -> state sampler of the spec's chain with no kernel, or None."""
        return None

    def generator_counts(self, content) -> dict:
        """Free generators that fit inside `content`: {size: {content: count}}.

        The algebra, or its graded dual where that is the commutative one,
        is free commutative on these generators, so the eigenvalue of a
        partition lam on a content class has as multiplicity the number of
        multisets of generators with size profile lam and total content
        `content`.  Only contents with a nonzero count are listed.
        """
        raise NotImplementedError

    def eta(self, key) -> int:
        """Rescaling constant of a basis key: the coefficient sum of
        breaking it into degree-1 pieces, 1 at degree 0 (see `hopf.eta`).

        This default is the definition, a recursion over the coproduct's
        terms whose right leg has degree 1, memoised per handle.  Handles
        with a closed form override it; the recursion is their test oracle.
        """
        if key.degree == 0:
            return 1
        cached = self._eta_cache.get(key)
        if cached is not None:
            return cached
        total = 0
        for (w, c), coeff in self.coproduct_basis(key).items():
            if c.degree == 1:
                total += coeff * AlgebraHandle.eta(self, w)  # not an override: an oracle
        self._eta_cache[key] = total
        return total

    def __repr__(self) -> str:
        return f"<algebra {self.name}>"


# ---------------------------------------------------------------------------
# linear extensions of the structure maps


def product(alg: AlgebraHandle, w: dict, z: dict) -> dict:
    """Bilinear extension of the basis product."""
    out: dict = {}
    for x, cx in w.items():
        for y, cy in z.items():
            c = cx * cy
            for k, ck in alg.product_basis(x, y).items():
                _add_term(out, k, c * ck)
    return out


def tensor_square_product(alg: AlgebraHandle, s: dict, t: dict) -> dict:
    """Componentwise product on H (x) H: (a(x)b)·(c(x)d) = (a·c)(x)(b·d).

    Both factors and the result are keyed by (left, right) pairs.
    """
    out: dict = {}
    for (a, b), cs in s.items():
        for (c, d), ct in t.items():
            coeff = cs * ct
            left = alg.product_basis(a, c)
            right = alg.product_basis(b, d)
            for kl, cl in left.items():
                for kr, cr in right.items():
                    _add_term(out, (kl, kr), coeff * cl * cr)
    return out


def iterated_coproduct(alg: AlgebraHandle, x: dict, a: int) -> LinComb:
    """a-fold coproduct, keyed by a-tuples of basis keys; a=1 wraps each
    key in a 1-tuple, a=2 is the plain coproduct.

    Built by expanding the last tensor leg at each step.  Coassociativity
    makes the result independent of which leg is expanded.
    """
    if a < 1:
        raise ValueError("arity must be >= 1")
    terms = {(k,): c for k, c in x.items()}
    for _ in range(a - 1):
        new: dict = {}
        for keys, c in terms.items():
            head = keys[:-1]
            for (u, v), ck in alg.coproduct_basis(keys[-1]).items():
                _add_term(new, head + (u, v), c * ck)
        terms = new
    return LinComb(terms)


def symmetrized_product(alg: AlgebraHandle, factors) -> dict:
    """Sum over all n! orderings of the product of n factors; the unit if n = 0.

    Orderings of equal factors count separately, so on a commutative
    algebra the sum is n! times one product.
    """
    if not factors:
        return {alg.unit_key(): 1}

    def ordered(order) -> dict:
        return reduce(lambda acc, f: product(alg, acc, f), order)

    if alg.commutative:
        orderings = factorial(len(factors))
        return {k: orderings * c for k, c in ordered(factors).items()}
    out: dict = {}
    for order in permutations(factors):
        for k, c in ordered(order).items():
            _add_term(out, k, c)
    return out


def homogeneous_degree(x):
    """Common degree of a mapping's keys, or None if it has none."""
    degrees = {k.degree for k in x}
    if not degrees:
        return None
    if len(degrees) > 1:
        raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


# ---------------------------------------------------------------------------
# breaking-size operators


class SpecError(ValueError):
    """Raised when an operator specification violates its axioms."""


class CppSpec(NamedTuple):
    """A validated non-negatively weighted sum of projection convolutions.

    `terms` maps compositions of n (no zero parts, canonically sorted) to
    positive rational weights.  Validity requires at least one weighted
    composition with two or more parts, so the operator genuinely breaks
    degree-n elements into smaller pieces.
    """

    n: int
    terms: tuple  # tuple of (composition tuple, Fraction weight)

    def __str__(self) -> str:
        bits = [f"{w}*Proj{comp}" for comp, w in self.terms]
        return " + ".join(bits)


def normalize_spec(n: int, terms) -> CppSpec:
    """Strip zero parts, merge equal compositions, and validate.

    Zero parts act through the unit and drop out of both the operator and
    its normalising constant, so the stripped form is a faithful canonical
    representative.  Raises SpecError (naming the offending term) if a
    weight is negative, a composition does not sum to n, or no positive
    weight sits on a composition with every part smaller than n.
    """
    if n < 1:
        raise SpecError(f"degree must be >= 1, got {n}")
    merged: dict = {}
    for comp, weight in terms:
        w = rat(weight)
        comp = tuple(int(d) for d in comp)
        if any(d < 0 for d in comp):
            raise SpecError(f"negative part in composition {comp}")
        if sum(comp) != n:
            raise SpecError(f"composition {comp} does not sum to n={n}")
        if w < 0:
            raise SpecError(f"negative weight {w} on composition {comp}")
        if w == 0:
            continue
        stripped = tuple(d for d in comp if d)
        merged[stripped] = merged.get(stripped, _ZERO) + w
    if not merged:
        raise SpecError("no composition carries positive weight")
    if not any(len(comp) >= 2 for comp in merged):
        raise SpecError(
            f"invalid operator at degree {n}: all weight sits on ({n},), "
            "which only rescales; some weight must break into smaller pieces"
        )
    return CppSpec(n=n, terms=tuple(sorted(merged.items())))


def multinomial(n: int, parts) -> int:
    """n! / (d_1! ... d_a!) for a composition of n."""
    result = factorial(n)
    for d in parts:
        result //= factorial(d)
    return result


def beta_n(spec: CppSpec) -> Fraction:
    """Normalising constant: sum of weight x multinomial over the terms."""
    return sum((w * multinomial(spec.n, comp) for comp, w in spec.terms), _ZERO)


def composition_law(spec: CppSpec) -> dict:
    """Probability of each piece-size composition in the breaking step.

    The probabilities are exact rationals and sum to 1.
    """
    beta = beta_n(spec)
    return {comp: w * multinomial(spec.n, comp) / beta for comp, w in spec.terms}


def apply_cpp(alg: AlgebraHandle, x, spec: CppSpec) -> tuple[dict, int]:
    """Apply the weighted sum of projection convolutions to homogeneous x.

    x maps keys to int or Fraction coefficients.  Returns the image as
    ({key: nonzero int numerator}, den), den the lcm of x's denominators
    times that of the spec's weights.

    One leg-by-leg walk serves every composition of the spec.  A frontier
    entry (leg degrees so far, product of the closed legs, remaining key)
    holds an integer coefficient; entries with the same key merge, so the
    splits that reach the same product and remainder are expanded once.
    Each entry emits product . remaining into the image of the composition
    its degrees then make, if the spec has one.  While some composition
    still needs two or more legs after its degrees, it also splits the
    remaining key by one coproduct, keeps a split (u, v) only if the
    degrees grown by deg u are still a proper prefix of a composition (so
    no leg is empty), and folds u into the product.  Expanding the last
    leg each time gives, by coassociativity, the a-fold coproduct
    restricted to each composition's leg degrees, and the legs are
    multiplied left to right, so each image is exactly
    m^[a] . Proj_comp . Delta^[a] (x).
    """
    deg = homogeneous_degree(x)
    if deg is None:
        return {}, 1
    if deg != spec.n:
        raise ValueError(f"degree mismatch: element degree {deg}, spec degree {spec.n}")
    images: dict = {comp: {} for comp, _ in spec.terms}
    # leg degrees after which one more leg may be split off, and those
    # after which a composition still needs two or more legs
    splits = {comp[:i] for comp in images for i in range(1, len(comp))}
    expanding = {degrees[:-1] for degrees in splits}
    # the structure maps run on x's numerators over their common denominator
    den = lcm(*(c.denominator for c in x.values()))
    unit = alg.unit_key()
    frontier = {((), unit, k): c.numerator * (den // c.denominator) for k, c in x.items()}
    while frontier:
        grown: dict = {}
        for (degrees, closed, rest), c in frontier.items():
            image = images.get(degrees + (rest.degree,))
            if image is not None:
                for k, ck in alg.product_basis(closed, rest).items():
                    _add_term(image, k, c * ck)
            if degrees not in expanding:
                continue
            for (u, v), cu in alg.coproduct_basis(rest).items():
                longer = degrees + (u.degree,)
                if longer in splits:
                    for k, ck in alg.product_basis(closed, u).items():
                        _add_term(grown, (longer, k, v), c * cu * ck)
        frontier = grown
    wden = lcm(*(w.denominator for _, w in spec.terms))
    totals: dict = {}
    for comp, w in spec.terms:
        m = w.numerator * (wden // w.denominator)
        for k, c in images[comp].items():
            totals[k] = totals.get(k, 0) + m * c
    return {k: c for k, c in totals.items() if c}, den * wden


# ---------------------------------------------------------------------------
# basis rescaling and structural checks


def eta(alg: AlgebraHandle, key) -> int:
    """Rescaling constant of a basis element of degree n >= 1.

    This is the coefficient sum after breaking the element all the way
    down into n degree-1 pieces; equivalently the number (with
    multiplicity) of ways to peel off one degree-1 piece at a time.  For a
    valid state space basis it is strictly positive.  The handle computes
    it (`AlgebraHandle.eta`): 1 on shuffle words, n! on free-associative
    words, the hook-length count on forests, and the coproduct recursion
    on a handle with no closed form.
    """
    if key.degree < 1:
        raise ValueError("eta is defined for degree >= 1")
    value = alg.eta(key)
    if value <= 0:
        raise ValueError(
            f"rescaling constant of {key!r} is {value}; "
            "basis cannot carry a Markov chain"
        )
    return value


def check_state_space_basis(alg: AlgebraHandle, n_max: int) -> list[str]:
    """Verify the axioms a graded basis needs to carry Markov chains.

    Checks, for all degrees <= n_max: a one-dimensional degree 0,
    non-negative product and coproduct structure constants, degree
    additivity, and the absence of primitive basis elements above degree 1
    (every object of size > 1 must break into strictly smaller pieces).
    Only basis elements are inspected; the algebra may well contain
    primitive non-basis elements.  Returns a list of violation messages,
    empty on success.
    """
    violations = []
    b0 = alg.basis(0)
    if len(b0) != 1:
        violations.append(f"degree 0 has dimension {len(b0)}, expected 1")
    for d in range(n_max + 1):
        for x in alg.basis(d):
            delta = alg.coproduct_basis(x)
            inner = False
            for (u, v), c in delta.items():
                if c < 0:
                    violations.append(f"negative coproduct coefficient {c} on {u!r}(x){v!r} in {x!r}")
                if u.degree + v.degree != d:
                    violations.append(f"coproduct of {x!r} not degree-additive at {u!r}(x){v!r}")
                if 0 < u.degree < d:
                    inner = True
            if d > 1 and not inner:
                violations.append(f"primitive basis element {x!r} in degree {d}")
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            for x in alg.basis(i):
                for y in alg.basis(j):
                    for k, c in alg.product_basis(x, y).items():
                        if c < 0:
                            violations.append(
                                f"negative product coefficient {c} on {k!r} in {x!r}*{y!r}"
                            )
                        if k.degree != i + j:
                            violations.append(f"product {x!r}*{y!r} not degree-additive at {k!r}")
    return violations


def check_coassociativity(alg: AlgebraHandle, n_max: int) -> list[str]:
    """Compare both arity-3 refinements of the coproduct, degree by degree."""
    violations = []
    for d in range(n_max + 1):
        for x in alg.basis(d):
            delta = alg.coproduct_basis(x)
            left: dict = {}
            right: dict = {}
            for (u, v), c in delta.items():
                for (a, b), cu in alg.coproduct_basis(u).items():
                    _add_term(left, (a, b, v), c * cu)
                for (a, b), cv in alg.coproduct_basis(v).items():
                    _add_term(right, (u, a, b), c * cv)
            if left != right:
                violations.append(f"coassociativity fails on {x!r}")
    return violations


def check_bialgebra_compatibility(alg: AlgebraHandle, n_max: int) -> list[str]:
    """Coproduct of a product vs product of coproducts, for small degrees."""
    violations = []
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            for x in alg.basis(i):
                for y in alg.basis(j):
                    lhs = iterated_coproduct(alg, alg.product_basis(x, y), 2).terms
                    rhs = tensor_square_product(
                        alg, alg.coproduct_basis(x), alg.coproduct_basis(y)
                    )
                    if lhs != rhs:
                        violations.append(f"compatibility fails on {x!r} * {y!r}")
    return violations


# ---------------------------------------------------------------------------
# JSON form of operator specifications


def spec_to_dict(spec: CppSpec) -> dict:
    return {
        "n": spec.n,
        "terms": [
            {"composition": list(comp), "weight": str(w)} for comp, w in spec.terms
        ],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def spec_from_dict(data: dict) -> CppSpec:
    """Parse `spec_to_dict`'s form.  The degree and every part must be JSON
    integers and each composition a list; anything else is a SpecError."""
    try:
        n = data["n"]
        terms = [(t["composition"], rat(t["weight"])) for t in data["terms"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"malformed spec JSON: {exc}") from exc
    if not _is_int(n):
        raise SpecError(f"malformed spec JSON: n must be an integer, got {n!r}")
    for comp, _ in terms:
        if not (isinstance(comp, list) and all(map(_is_int, comp))):
            raise SpecError(f"malformed spec JSON: composition {comp!r} is not a list of integers")
    return normalize_spec(n, terms)
