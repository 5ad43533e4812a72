"""Named operator presets and their expansion to validated specs.

Every preset expands to the same canonical form: a list of (composition,
weight) terms handed to `normalize_spec`.  Weights may be any
non-negative rationals; probability-style presets (biased, trinomial)
normalise so that the overall constant beta_n is 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .hopf import CppSpec, SpecError, normalize_spec
from .linalg import rat

_ONE = Fraction(1)


def _compositions(n: int, most: int):
    """All tuples of positive integers summing to n with at most `most` parts."""
    if n == 0:
        yield ()
    elif most:
        for first in range(1, n + 1):
            for rest in _compositions(n - first, most - 1):
                yield (first,) + rest


def riffle_spec(n: int, a: int = 2) -> CppSpec:
    """a-handed riffle: weight 1 on every cut into at most a piles.

    The cuts with empty piles strip to compositions of n; the k-part one
    arises from C(a, k) cuts, so it is listed once with that weight.
    """
    if a < 2:
        raise SpecError("riffle needs at least 2 hands")
    return normalize_spec(n, [(comp, comb(a, len(comp))) for comp in _compositions(n, a)])


def biased_spec(n: int, qs) -> CppSpec:
    """Biased cuts: pile sizes (d_1..d_a) get weight prod q_i^(d_i).

    The q_i must be non-negative and sum to 1; with all q_i = 1/a this is
    the a-handed riffle up to the overall constant.  One pass over the
    piles keeps the summed weight of each stripped composition so far.
    """
    qs = [rat(q) for q in qs]
    if len(qs) < 2:
        raise SpecError("biased cuts need at least 2 pile probabilities")
    if any(q < 0 for q in qs):
        raise SpecError("pile probabilities must be non-negative")
    if sum(qs) != 1:
        raise SpecError(f"pile probabilities must sum to 1, got {sum(qs)}")
    weights = {(): _ONE}  # stripped composition of the piles so far -> weight
    for q in qs:
        grown: dict = {}
        for comp, w in weights.items():
            for d in range(n + 1 - sum(comp)):
                key = comp + (d,) if d else comp
                grown[key] = grown.get(key, 0) + w * q**d
        weights = grown
    return normalize_spec(n, [(comp, w) for comp, w in weights.items() if sum(comp) == n])


def top_m_ordered_spec(n: int, m: int) -> CppSpec:
    """Cut off the top m cards as a block and reinsert, keeping their order."""
    if not 1 <= m <= n:
        raise SpecError(f"m must be within 1..{n}")
    return normalize_spec(n, [((m, n - m), _ONE)])


def top_m_unordered_spec(n: int, m: int) -> CppSpec:
    """Cut off the top m cards one by one and reinsert in any order."""
    if not 1 <= m <= n:
        raise SpecError(f"m must be within 1..{n}")
    return normalize_spec(n, [((1,) * m + (n - m,), _ONE)])


def top_or_bottom_spec(n: int, q) -> CppSpec:
    """Move the top card with probability q, else the bottom card."""
    q = rat(q)
    if not 0 <= q <= 1:
        raise SpecError("q must lie in [0, 1]")
    return normalize_spec(n, [((1, n - 1), q), ((n - 1, 1), 1 - q)])


def top_to_random_spec(n: int) -> CppSpec:
    return normalize_spec(n, [((1, n - 1), _ONE)])


def bottom_to_random_spec(n: int) -> CppSpec:
    return normalize_spec(n, [((n - 1, 1), _ONE)])


def trinomial_spec(n: int, q1, q2, q3) -> CppSpec:
    """Trinomial top-and-bottom moves.

    Each term peels m1 cards singly off the top and m3 singly off the
    bottom, keeping a middle block of size m2, with weight
    q1^m1 q2^m2 q3^m3 / (m1! m3!) over all m1+m2+m3 = n.
    """
    q1, q2, q3 = rat(q1), rat(q2), rat(q3)
    if any(q < 0 for q in (q1, q2, q3)):
        raise SpecError("trinomial parameters must be non-negative")
    if q1 + q2 + q3 != 1:
        raise SpecError(f"trinomial parameters must sum to 1, got {q1 + q2 + q3}")
    terms = []
    for m1 in range(n + 1):
        for m2 in range(n + 1 - m1):
            m3 = n - m1 - m2
            comp = (1,) * m1 + (m2,) + (1,) * m3
            w = q1**m1 * q2**m2 * q3**m3 / (factorial(m1) * factorial(m3))
            terms.append((comp, w))
    return normalize_spec(n, terms)


def _biased_preset(n: int, q=None, qs=None) -> CppSpec:
    """biased from q (two hands) or qs=q1+q2+... (one pile each)."""
    if qs is None and q is None:
        raise SpecError("biased needs q (two hands) or qs=q1+q2+...")
    if qs is None:
        q = rat(q)
        return biased_spec(n, [q, 1 - q])
    if q is not None:
        raise SpecError("unknown parameters for preset 'biased': ['q']")
    return biased_spec(n, str(qs).split("+"))


_REQUIRED = object()  # default of a parameter the preset cannot do without

# name -> (builder called as builder(n, **params), {parameter: default})
_PRESETS = {
    "riffle": (lambda n, a: riffle_spec(n, int(a)), {"a": 2}),
    "biased": (_biased_preset, {"q": None, "qs": None}),
    "top-m-ordered": (lambda n, m: top_m_ordered_spec(n, int(m)), {"m": _REQUIRED}),
    "top-m-unordered": (lambda n, m: top_m_unordered_spec(n, int(m)), {"m": _REQUIRED}),
    "top-or-bottom": (top_or_bottom_spec, {"q": _ONE / 2}),
    "top-to-random": (top_to_random_spec, {}),
    "bottom-to-random": (bottom_to_random_spec, {}),
    "trinomial": (trinomial_spec, dict.fromkeys(("q1", "q2", "q3"), _REQUIRED)),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def expand_preset(name: str, n: int, params: dict | None = None) -> CppSpec:
    """Expand a named preset at degree n; parameters as {"q": "1/3", ...}.

    Accepted names and parameters:
      riffle [a=2]; biased (q | qs=q1+..+qa); top-m-ordered (m);
      top-m-unordered (m); top-or-bottom [q=1/2]; top-to-random;
      bottom-to-random; trinomial (q1, q2, q3).
    """
    if name not in _PRESETS:
        raise SpecError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    build, defaults = _PRESETS[name]
    params = dict(params or {})
    required = [key for key, value in defaults.items() if value is _REQUIRED]
    missing = [key for key in required if key not in params]
    if missing:
        noun = "parameters" if len(required) > 1 else "parameter"
        raise SpecError(f"{name} needs {noun} {', '.join(missing)}")
    extras = sorted(set(params) - set(defaults))
    if extras:
        raise SpecError(f"unknown parameters for preset {name!r}: {extras}")
    return build(n, **{**defaults, **params})
