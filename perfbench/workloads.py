"""Seeded workload generator: each workload is a fixed list of hopfchains CLI jobs.

The seed chooses only start decks, start trees, the statistic's `q`,
rational operator parameters (from the short lists below) and the Monte
Carlo seed.  State counts and composition sets never depend on it, so two
seeds do the same amount of exact work.  The values in each list have the
same denominators (the trinomial triples are permutations of one
another), so the size of the rationals the program handles does not
change with the seed either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Rational choices the seed picks from.
STAT_Q = ("1/3", "2/3")
TOP_OR_BOTTOM_Q = ("1/4", "3/4")
TRINOMIAL = ("q1=1/4,q2=1/2,q3=1/4", "q1=1/2,q2=1/4,q3=1/4", "q1=1/4,q2=1/4,q3=1/2")
INSERTION_Q = ("1/3", "2/3")

WORKLOADS = ("words", "certify", "forests", "sample")


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output must satisfy.

    `args` is the argument list after the program name, so
    `hopfchains <args>` replays the job by hand.  `check` carries the
    values the command's invariant checks in `checks.py` need.
    """

    id: str
    args: tuple
    check: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def command(self) -> str:
        return self.args[0]

    def replay(self) -> str:
        return "hopfchains " + " ".join(_quote(a) for a in self.args)


def _quote(arg: str) -> str:
    return f"'{arg}'" if any(c in arg for c in "()|&;<> ") else arg


def random_tree(rng: random.Random, vertices: int) -> str:
    """Parenthesised encoding of a random recursive tree (vertex i hangs
    below a uniform earlier vertex); the CLI canonicalises it."""
    children: list[list[int]] = [[] for _ in range(vertices)]
    for v in range(1, vertices):
        children[rng.randrange(v)].append(v)

    def enc(v: int) -> str:
        return "(" + "".join(enc(c) for c in children[v]) + ")"

    return enc(0)


def _deck(rng: random.Random, letters: str) -> str:
    return "".join(rng.sample(letters, len(letters)))


def _words(rng):
    """720-state shuffle structure maps, chain build and evolve, Lyndon
    multiplicities, 6.9 MB JSON emits; eigvecs applies apply_cpp to wide
    free-associative combinations.  No rank, forest or sampler work."""
    q = rng.choice(STAT_Q)
    tob = rng.choice(TOP_OR_BOTTOM_Q)
    deck = _deck(rng, "123456")
    iq = rng.choice(INSERTION_Q)
    return [
        Job("matrix-riffle", ("matrix", "--distinct", "6", "--preset", "riffle"),
            {"states": 720}),
        Job("matrix-top-to-random", ("matrix", "--distinct", "6", "--preset", "top-to-random"),
            {"states": 720}),
        Job("stationary", ("stationary", "--distinct", "6"),
            {"states": 720}),
        Job("spectrum-riffle", ("spectrum", "--distinct", "6", "--preset", "riffle"),
            {"states": 720}),
        Job("evolve-top-or-bottom",
            ("evolve", "--deck", deck, "--preset", "top-or-bottom", "--params", f"q={tob}",
             "--t", "6", "--stat", "weighted-descents", "--q", q),
            {"start": deck, "stat": "weighted-descents", "q": q, "t": 6}),
        Job("eigvecs", ("eigvecs", "--distinct", "4", "--q", iq)),
    ]


def _certify(rng):
    """Bareiss rank and the annihilation product of --verify-matrix."""
    return [
        Job("verify-riffle",
            ("spectrum", "--distinct", "5", "--preset", "riffle", "--verify-matrix"),
            {"states": 120, "verify": True}),
        Job("verify-top-to-random",
            ("spectrum", "--distinct", "5", "--preset", "top-to-random", "--verify-matrix"),
            {"states": 120, "verify": True}),
        Job("verify-trinomial",
            ("spectrum", "--distinct", "5", "--preset", "trinomial",
             "--params", rng.choice(TRINOMIAL), "--verify-matrix"),
            {"states": 120, "verify": True}),
        Job("verify-aabbcc",
            ("spectrum", "--deck", _deck(rng, "aabbcc"), "--preset", "riffle", "--verify-matrix"),
            {"states": 90, "verify": True}),
    ]


def _forests(rng):
    """The root-cut coproduct through tensor_square_product; no other
    workload touches it."""
    tree = random_tree(rng, 6)
    params = rng.choice(TRINOMIAL)
    q1, q3 = params.split(",")[0][3:], params.split(",")[2][3:]
    return [
        Job("matrix-top-to-random",
            ("matrix", "--algebra", "forests", "--n", "8", "--preset", "top-to-random"),
            {"states": 286}),
        Job("verify-riffle",
            ("spectrum", "--algebra", "forests", "--n", "7", "--preset", "riffle",
             "--verify-matrix"),
            {"states": 115, "verify": True}),
        Job("stationary", ("stationary", "--algebra", "forests", "--n", "8"),
            {"states": 286}),
        Job("evolve-trinomial",
            ("evolve", "--algebra", "forests", "--forest", tree, "--preset", "trinomial",
             "--params", params, "--t", "8", "--stat", "f_j", "--j", "2", "--q1", q1, "--q3", q3),
            {"start": tree, "stat": "f_j", "j": 2, "q1": q1, "q3": q3, "t": 8}),
    ]


def _sample(rng):
    """simulate: the cut-and-drop sampler on 5040 states (above the cap, so
    no kernel is built) and the row sampler reading a built forest kernel."""
    mc = [str(rng.randrange(1, 10**6)) for _ in range(3)]
    q = rng.choice(STAT_Q)
    tree = random_tree(rng, 6)
    d1, d2 = _deck(rng, "1234567"), _deck(rng, "1234567")
    return [
        Job("simulate-riffle",
            ("simulate", "--deck", d1, "--preset", "riffle", "--trials", "20000", "--t", "3",
             "--seed", mc[0], "--stat", "weighted-descents", "--q", q),
            {"states": 5040, "start": d1, "stat": "weighted-descents",
             "q": q, "steps": 20000 * 3}),
        Job("simulate-trinomial",
            ("simulate", "--deck", d2, "--preset", "trinomial", "--params", rng.choice(TRINOMIAL),
             "--trials", "20000", "--t", "3", "--seed", mc[1], "--stat", "descents"),
            {"states": 5040, "start": d2, "stat": "descents",
             "steps": 20000 * 3}),
        Job("simulate-forest",
            ("simulate", "--algebra", "forests", "--forest", tree, "--preset", "top-to-random",
             "--trials", "20000", "--t", "3", "--seed", mc[2], "--stat", "f_j", "--j", "2"),
            {"states": 48, "start": tree, "stat": "f_j", "j": 2,
             "q1": "1/4", "q3": "1/4", "steps": 20000 * 3}),
    ]


_JOB_LISTS = {"words": _words, "certify": _certify, "forests": _forests, "sample": _sample}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's job list for a seed; the same seed gives the same argv."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return _JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))


# The CLI invocation timed as set-up: imports everything and parses, computes nothing.
SETUP_ARGS = ("--help",)
