"""Seeded Monte Carlo simulation of breaking-size chains.

Randomness comes from `RngStream`, a deterministic source keyed by a seed
and a stream index: the pair is hashed into a Mersenne Twister state and
all draws go through integer rejection sampling, so identical
(seed, stream, draw sequence) gives identical trajectories on every
platform.  All probability weights are realised by exact integer
inverse-CDF over a common denominator; floating point appears only in the
reporting layer.

Shuffles have a direct sampler, `gsr_stepper(spec)`: it resolves the
spec's cut law once (`cut_law`) into cumulative integer weights and, for
each composition, its pile sizes and end offsets.  Each step is one call
of `gsr_step`, one Python frame: it draws the composition by integer
inverse-CDF, cuts the deck into consecutive piles of those sizes, top
pile first, then builds the new deck from the bottom by repeatedly
dropping the bottommost card of a pile chosen with probability
proportional to its current size.  The step reads the stream's bits
inline, by the pinned draw rule of `RngStream.randbelow`: a draw below m
is `getrandbits(m.bit_length())`, redrawn while it is at least m.  So it
consumes every Mersenne Twister word that a `randbelow` per draw would,
and the trajectories do not depend on which of the two made the draws.
Each card's drop is one draw below the number of cards left, read
against the current pile sizes; it writes the chosen pile's bottom card
straight to its slot of the new deck, and no pile is copied out.
Given its cut sizes, the step is a uniform interleaving of the piles
(Bayer-Diaconis), so one step from a deck has an exact rational law:
`outcome_law` runs `gsr_step` once per tuple of in-range drop words from
a scripted stream and weighs each outcome exactly.  The acceptance suite
requires that law to equal the deck's kernel row.
Any built transition matrix can also be sampled row by row
(`matrix_stepper`): each visited row is resolved once into cumulative
integer weights, and a step is one `randbelow(total)` and a bisection.

`run_trajectories` splits the trials into contiguous ranges over the
available CPUs, runs the first range itself and each other range in a
forked worker (`trial_moments` per range), and adds up the exact
moments.  Each worker counts visits rather than samples: a statistic
must be a pure function of the state, and it is evaluated once per
distinct visited state per worker, not once per sample (once per state
of each batch of `_BATCH` distinct states when states rarely repeat,
which keeps memory bounded).  The exact sample moments are
count-weighted sums, so the report depends neither on trial order nor
on the CPU count.
"""

from __future__ import annotations

import _random
import hashlib
import os
import pickle
import signal
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import factorial, gcd, lcm
from typing import Callable, NamedTuple

from .chain import TransitionMatrix
from .hopf import CppSpec, composition_law
from .linalg import rat
from .shuffle import Word


class RngStream:
    """Deterministic pseudo-random stream identified by (seed, stream)."""

    __slots__ = ("_rng",)

    def __init__(self, seed: int, stream: int = 0):
        material = f"hopfchains:{seed}:{stream}".encode()
        # seeded in one C call: the Mersenne Twister state of
        # random.Random(state), without its Python-level __init__ and seed
        self._rng = _random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection on getrandbits."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        k = n.bit_length()
        r = self._rng.getrandbits(k)
        while r >= n:
            r = self._rng.getrandbits(k)
        return r


class CutLaw(NamedTuple):
    """A spec's cut law, resolved once for `gsr_step`."""

    cum: list  # cumulative integer weights of the compositions, in sorted order
    total: int  # cum[-1]
    bits: int  # total.bit_length(): the word size of a composition draw
    piles: list  # per composition: (pile sizes, end offsets of the piles)
    slots: tuple  # (s, (s + 1).bit_length()) for s = n-1 ... 0


def cut_law(spec: CppSpec) -> CutLaw:
    """The spec's breaking law over the lcm of its denominators, with each
    composition's piles (spec compositions have no zero part)."""
    law = sorted(composition_law(spec).items())
    den = lcm(*(p.denominator for _, p in law))
    cum = list(accumulate(p.numerator * (den // p.denominator) for _, p in law))
    piles = [(list(comp), list(accumulate(comp))) for comp, _ in law]
    slots = tuple((s, (s + 1).bit_length()) for s in range(spec.n - 1, -1, -1))
    return CutLaw(cum, cum[-1], cum[-1].bit_length(), piles, slots)


def gsr_step(law: CutLaw, deck: Word, rng: RngStream) -> Word:
    """One cut-and-drop step: draw a composition from the law, cut the deck
    into consecutive piles of its sizes (top pile first), then rebuild the
    deck from the bottom by dropping the bottommost card of a pile chosen
    with probability proportional to its current size.

    Every draw below m reads `getrandbits(m.bit_length())` straight from
    the stream's generator, redrawn while it is at least m: the rule of
    `RngStream.randbelow`, made inline.  The composition is the first
    whose cumulative weight exceeds a draw below the total.  A pile is
    only its size and the end offset of its slice of `deck`, copied from
    the law.  The current sizes sum to the number of cards left, so each
    drop is one draw r below that number, landing in the first pile whose
    running size total exceeds r; that pile's bottom card `deck[end - 1]`
    goes straight to slot `left - 1` of the new deck, and its size and
    end shrink by one.  An emptied pile keeps size 0, which adds nothing
    to the running total, so the walk passes it.
    """
    cum, total, bits, piles, slots = law
    if len(deck) != len(slots):
        raise ValueError(f"a cut law of {len(slots)} cards does not cut a deck of {len(deck)}")
    getrandbits = rng._rng.getrandbits
    r = getrandbits(bits)
    while r >= total:
        r = getrandbits(bits)
    sizes, ends = piles[bisect_right(cum, r)]
    sizes = sizes.copy()
    ends = ends.copy()
    out = list(deck)  # every slot is overwritten
    for slot, k in slots:  # slot + 1 cards left
        r = getrandbits(k)
        while r > slot:
            r = getrandbits(k)
        i = 0
        while r >= sizes[i]:
            r -= sizes[i]
            i += 1
        sizes[i] -= 1
        ends[i] = end = ends[i] - 1
        out[slot] = deck[end]
    return Word(out)


def gsr_stepper(spec: CppSpec) -> Callable:
    """Cut-and-drop stepper: `gsr_step` on the spec's law, resolved once."""
    return partial(gsr_step, cut_law(spec))


class _ScriptedBits(RngStream):
    """A stream whose generator answers `getrandbits` from a fixed script
    of words, then with 0, recording the word size of every call."""

    def __init__(self, script):
        self._rng = self
        self.script = script
        self.bits = []

    def getrandbits(self, k: int) -> int:
        j = len(self.bits)
        self.bits.append(k)
        return self.script[j] if j < len(self.script) else 0


def outcome_law(law: CutLaw, deck: Word) -> dict:
    """Exact law {deck: Fraction} of `gsr_step(law, deck, rng)` when the
    stream's bits are uniform.

    The composition word is fixed inside each composition's weight range;
    the drop words then walk the whole tree of k-bit words.  Each run
    replays a prefix of drop words and takes 0 after it, and every other
    k-bit word past the prefix is queued as a new prefix, so each run is
    made exactly once.  A run that redraws (a word at least its bound) is
    dropped unexpanded.  The kept runs are the n! tuples of in-range drop
    words, which the uniform bits make equally likely; any other count
    raises `ArithmeticError`.
    """
    n = len(deck)
    runs = factorial(n)
    nums: dict = {}  # outcome -> numerator over law.total * n!
    for lo, hi in zip([0] + law.cum, law.cum):
        kept = 0
        pending = [()]
        while pending:
            drops = pending.pop()
            rng = _ScriptedBits((lo, *drops))
            out = gsr_step(law, deck, rng)
            if len(rng.bits) > n + 1:
                continue  # a redraw
            kept += 1
            nums[out] = nums.get(out, 0) + hi - lo
            path = drops + (0,) * (n - len(drops))
            for j in range(len(drops), n):
                pending.extend(path[:j] + (v,) for v in range(1, 1 << rng.bits[j + 1]))
        if kept != runs:
            raise ArithmeticError(f"{kept} drop runs from {deck}, not {n}! = {runs}")
    return {y: Fraction(c, law.total * runs) for y, c in nums.items()}


def matrix_stepper(matrix: TransitionMatrix) -> Callable:
    """Generic row sampler for any built transition matrix.

    A row's weights are its numerators, in column order, over their gcd:
    the row sums to the kernel's denominator, so these are the least
    integers in the row's proportions.  Each visited row is resolved once
    into its targets and cumulative weights, and a step draws from it
    inline: one `randbelow(total)` and a bisection.
    """
    row_cache: dict = {}

    def step(state, rng: RngStream):
        cached = row_cache.get(state)
        if cached is None:
            cols, nums = zip(*matrix.rows[matrix.index[state]])
            g = gcd(*nums)
            targets = [matrix.states[j] for j in cols]
            cached = row_cache[state] = targets, list(accumulate(c // g for c in nums))
        targets, cum = cached
        return targets[bisect_right(cum, rng.randbelow(cum[-1]))]

    return step


# distinct states run_trajectories holds before folding their counts into
# the totals: it bounds memory when states rarely repeat, and exceeds the
# 5,040 decks of a 7-card class, which is then evaluated once per state
_BATCH = 1 << 13


class StatSeries(NamedTuple):
    """Exact sums of a statistic and of its square at each time step."""

    total: list  # Fraction sums per t
    total_sq: list
    trials: int

    def mean(self, t: int) -> Fraction:
        return self.total[t] / self.trials

    def variance(self, t: int) -> Fraction:
        m = self.mean(t)
        return self.total_sq[t] / self.trials - m * m


class SimulationReport(NamedTuple):
    """Per-step sample moments for each registered statistic."""

    steps: int
    trials: int
    seed: int
    series: dict  # name -> StatSeries

    def to_dict(self, exact_targets: dict | None = None) -> dict:
        out: dict = {
            "trials": self.trials,
            "steps": self.steps,
            "seed": self.seed,
            "cut_convention": "top pile first, drops rebuild the deck bottom-up",
            "statistics": {},
        }
        for name, series in self.series.items():
            rows = []
            for t in range(self.steps + 1):
                row = {
                    "t": t,
                    "mean": float(series.mean(t)),
                    "mean_exact": str(series.mean(t)),
                    "variance": float(series.variance(t)),
                }
                if exact_targets and name in exact_targets:
                    row["target"] = str(exact_targets[name][t])
                rows.append(row)
            out["statistics"][name] = rows
        return out


def trial_moments(
    start, steps: int, lo: int, hi: int, stepper: Callable, seed: int, stats: dict
) -> dict:
    """Exact moments of trials lo..hi-1: name -> (total, total_sq), the sums
    of the statistic and of its square over those trials at each time step.

    Each trial uses its own stream (seed, trial+1).  A sample only counts
    a visit: one index gives each distinct state a slot, and one sparse
    slot -> count map per time step counts the visits to each slot.  Every
    statistic, a pure function of the state, is then evaluated once per
    distinct visited state, and the totals gain the exact sums
    sum(count * value) and sum(count * value^2) over each time step.  The
    index is folded into the totals and cleared whenever it holds `_BATCH`
    states at the end of a trial, so memory stays bounded when states
    rarely repeat; a class of at most `_BATCH` states is evaluated once per
    state.
    """
    totals = {name: ([Fraction(0)] * (steps + 1), [Fraction(0)] * (steps + 1)) for name in stats}
    index: dict = {}  # state -> slot
    counts = [{} for _ in range(steps + 1)]  # counts[t][slot]

    def fold() -> None:
        for name, fn in stats.items():
            values = [rat(fn(state)) for state in index]
            den = lcm(*(v.denominator for v in values))
            nums = [v.numerator * (den // v.denominator) for v in values]
            total, total_sq = totals[name]
            for t, row in enumerate(counts):
                total[t] += Fraction(sum(c * nums[i] for i, c in row.items()), den)
                total_sq[t] += Fraction(sum(c * nums[i] ** 2 for i, c in row.items()), den * den)
        index.clear()
        for row in counts:
            row.clear()

    for trial in range(lo, hi):
        rng = RngStream(seed, trial + 1)
        state = start
        for t, row in enumerate(counts):
            if t:
                state = stepper(state, rng)
            slot = index.get(state)
            if slot is None:
                slot = index[state] = len(index)
            row[slot] = row.get(slot, 0) + 1
        if len(index) >= _BATCH:
            fold()
    fold()
    return totals


# the fewest trials worth a worker of their own.  A worker costs a fork and
# a pipe, about 3 ms, and evaluates the statistic on the states it visits
# once more.  On a 2-CPU Xeon with Python 3.11.7 two workers first beat one
# at about 100 trials each on a 7-card riffle and 600 each on the forest
# row sampler (n=6, t=3); this keeps a margin for larger, slower-to-fork
# processes
MIN_TRIALS_PER_WORKER = 1000


def available_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_moments(*args) -> tuple[int, int]:
    """Fork a child that writes the pickled `trial_moments(*args)`, or the
    exception it raised, to a pipe; returns (child pid, read end).

    The child leaves by `os._exit`, with status 0 once its payload is
    written: it flushes none of the parent's stdio and never returns into
    the caller.  The child is a copy of one thread only, so the caller
    must run no other threads."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        try:
            payload = pickle.dumps(trial_moments(*args))
        except BaseException as exc:  # re-raised in the parent
            try:
                payload = pickle.dumps(exc)
            except Exception:  # an exception that does not pickle
                payload = pickle.dumps(RuntimeError(f"trial worker failed: {exc!r}"))
        with os.fdopen(write, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def run_trajectories(
    start,
    steps: int,
    trials: int,
    stepper: Callable,
    seed: int,
    stats: dict,
) -> SimulationReport:
    """Run independent trajectories and accumulate exact sample moments.

    The trials are split into contiguous ranges, one per available CPU
    while each range keeps at least `MIN_TRIALS_PER_WORKER` trials, and
    never fewer than one range.  Every range but the first runs in a
    forked child, which inherits the stepper and the statistics (closures
    and their caches, never pickled) and sends back its exact totals; the
    parent runs the first range itself.  Each trial draws from its own
    stream (seed, trial+1), and the moments are exact `Fraction` sums
    (`trial_moments`), so the report is bit for bit the same whatever the
    CPU count.  Each statistic is evaluated once per distinct visited
    state per worker.  A child's exception is re-raised here, and no
    child outlives the call.
    """
    workers = max(1, min(available_cpus(), trials // MIN_TRIALS_PER_WORKER))
    bounds = [trials * i // workers for i in range(workers + 1)]
    pending = []  # (pid, read end) of each child not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pending.append(_fork_moments(start, steps, lo, hi, stepper, seed, stats))
        totals = trial_moments(start, steps, 0, bounds[1], stepper, seed, stats)
        while pending:
            pid, read = pending[0]
            payload = b"".join(iter(partial(os.read, read, 1 << 16), b""))
            _, status = os.waitpid(pid, 0)
            del pending[0]
            os.close(read)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"trial worker {pid} exited with code {code}")
            part = pickle.loads(payload)
            if isinstance(part, BaseException):
                raise part
            for name, sums in part.items():
                for mine, theirs in zip(totals[name], sums):
                    for t, value in enumerate(theirs):
                        mine[t] += value
    finally:
        for pid, read in pending:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    series = {
        name: StatSeries(total=total, total_sq=total_sq, trials=trials)
        for name, (total, total_sq) in totals.items()
    }
    return SimulationReport(steps=steps, trials=trials, seed=seed, series=series)
