"""Per-layer tracing from outside the program.

`WRAP_POINTS` is the single list of functions the traced run wraps.  Each
wrapper records a span (name, start, end, parent) or only counts calls,
and is installed at every import site: every `hopfchains` module
attribute that is the original function object is replaced, so
`hopfchains.chain.apply_cpp` and `hopfchains.spectral.rank` are wrapped
along with their defining modules.  Spans stay in memory and are written
out when the job ends.

Run as a script, this file is the traced job launcher:

    python3 perfbench/layertrace.py OUT_PREFIX <hopfchains arguments...>

It installs the wrappers, calls `hopfchains.cli.main(argv)`, writes
`OUT_PREFIX.json` (names, counters) and `OUT_PREFIX.spans` (the span
arrays), and exits with the CLI's exit code.  Its standard output is the
CLI's, byte for byte.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import math
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

_CLOCK = time.perf_counter


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.hook_errors = 0
        self.missing: list[str] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def maximum(self, counter: str, value: int) -> None:
        self.maxima[counter] = max(self.maxima.get(counter, 0), value)

    def distinct(self, counter: str, key) -> None:
        self.keys.setdefault(counter, set()).add(key)

    def timed(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; hook(tracer, args, kwargs, result)
        runs after the span closes, inside a `trace.bookkeeping` span of its own."""
        nid = self.name_id(name)
        book = self.name_id("trace.bookkeeping")
        start, end, names, parent, stack = self.start, self.end, self.name, self.parent, self.stack

        def open_span(span_name: int) -> int:
            idx = len(start)
            names.append(span_name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(_CLOCK())
            return idx

        def close_span(idx: int) -> None:
            end[idx] = _CLOCK()
            stack.pop()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if hook is not None:
                idx = open_span(book)
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # a hook must never change the job's outcome
                    self.hook_errors += 1
                finally:
                    close_span(idx)
            return result

        return wrapper

    def counted(self, counter: str, fn: Callable) -> Callable:
        """Wrap fn to count calls only (for calls too frequent to span)."""
        counts = self.counts
        counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = _CLOCK()
        else:
            self.gc_s += _CLOCK() - self._gc_t0
            self.gc_collections += 1

    # -- persistence ------------------------------------------------------

    def write(self, prefix: str) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "counts": self.counts,
            "maxima": self.maxima,
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
            "hook_errors": self.hook_errors,
            "missing": self.missing,
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


@dataclass
class Spans:
    names: list
    start: array
    end: array
    name: array
    parent: array


def read_spans(prefix: str) -> tuple[Spans, dict]:
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("d"), array("d"), array("H"), array("i")]
    with open(prefix + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return Spans(meta["names"], *arrays), meta


def self_times(spans: Spans) -> tuple[dict, dict]:
    """Per-name self time and span count.

    Self time is a span's duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    n = len(spans.start)
    children: dict[int, list] = {}
    for i in range(n):
        p = spans.parent[i]
        if p >= 0:
            children.setdefault(p, []).append((spans.start[i], spans.end[i]))
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(n):
        lo, hi = spans.start[i], spans.end[i]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        key = spans.names[spans.name[i]]
        selfs[key] = selfs.get(key, 0.0) + (hi - lo) - covered
        calls[key] = calls.get(key, 0) + 1
    return selfs, calls


def top_level_seconds(spans: Spans) -> float:
    return sum(
        spans.end[i] - spans.start[i] for i in range(len(spans.start)) if spans.parent[i] < 0
    )


# ---------------------------------------------------------------------------
# wrap points


def _apply_cpp(t, args, kwargs, result):
    t.add("hopf.apply_cpp_terms", len(args[1]))


def _iterated_coproduct(t, args, kwargs, result):
    t.add("hopf.coproduct_terms", len(result.terms))


def _rank(t, args, kwargs, result):
    rows = getattr(args[0], "entries", args[0])
    bits = (max(abs(e.numerator).bit_length(), e.denominator.bit_length()) for r in rows for e in r)
    t.maximum("linalg.rank_max_bits", max(bits, default=0))


def _annihilation(t, args, kwargs, result):
    t.add("linalg.annihilation_factors", len(set(args[1])))


def _coproduct_basis(t, args, kwargs, result):
    t.distinct("forests.coproduct_basis_keys", args[1])


def _build(t, args, kwargs, result):
    entries = result.kernel.entries
    t.add("chain.states", result.size)
    t.add("chain.kernel_nnz", sum(1 for row in entries for e in row if e))
    t.maximum(
        "chain.kernel_den_bits",
        max((e.denominator.bit_length() for row in entries for e in row if e), default=0),
    )


def _evolve(t, args, kwargs, result):
    t.add("chain.evolve_steps", args[2] if len(args) > 2 else kwargs["t"])


def _stationary(t, args, kwargs, result):
    alg, n = args[0], args[1]
    t.add("chain.stationary_multisets", math.comb(len(alg.basis(1)) + n - 1, n))
    t.add("chain.stationary_laws", len(result))


def _verify_spectrum(t, args, kwargs, result):
    t.add("spectral.eigenvalues_checked", len(result.entries))


def _build_E_j(t, args, kwargs, result):
    t.add("spectral.eigvecs_built", len(result))


@dataclass(frozen=True)
class WrapPoint:
    """One function to wrap.

    kind "span" times each call; "count" only counts calls into `name`;
    "returns" times each call of the callable the function returns, when
    `when(args)` holds.
    """

    module: str
    attr: str  # "func" or "Class.method"
    name: str
    kind: str = "span"
    hook: Optional[Callable] = None
    when: Optional[Callable] = None


WRAP_POINTS = (
    WrapPoint("linalg", "rank", "linalg.rank", hook=_rank),
    WrapPoint("linalg", "annihilation_check", "linalg.annihilation", hook=_annihilation),
    WrapPoint("linalg", "nullspace", "linalg.nullspace"),
    WrapPoint("hopf", "apply_cpp", "hopf.apply_cpp", hook=_apply_cpp),
    WrapPoint("hopf", "iterated_coproduct", "hopf.iterated_coproduct", hook=_iterated_coproduct),
    WrapPoint("hopf", "eta", "hopf.eta"),
    WrapPoint("hopf", "product", "hopf.product"),
    WrapPoint("hopf", "tensor_square_product", "hopf.tensor_square_product"),
    WrapPoint("shuffle", "shuffle_product", "shuffle.shuffle_product"),
    WrapPoint("shuffle", "deshuffle_coproduct", "shuffle.deshuffle_coproduct"),
    WrapPoint("shuffle", "lyndon_words", "shuffle.lyndon_words"),
    WrapPoint("shuffle", "rearrangement_class", "shuffle.rearrangement_class"),
    WrapPoint("cli", "_resolve_statistic", "shuffle.stat", kind="returns",
              when=lambda args: args[0].stat != "f_j"),
    WrapPoint("forests", "ForestAlgebra.coproduct_basis", "forests.coproduct_basis",
              hook=_coproduct_basis),
    WrapPoint("forests", "enumerate_forests", "forests.enumerate"),
    WrapPoint("forests", "f_j_statistic", "forests.f_j"),
    WrapPoint("chain", "build_transition_matrix", "chain.build", hook=_build),
    WrapPoint("chain", "evolve", "chain.evolve", hook=_evolve),
    WrapPoint("chain", "stationary_distributions", "chain.stationary", hook=_stationary),
    WrapPoint("spectral", "class_multiplicity", "spectral.class_multiplicity"),
    WrapPoint("spectral", "verify_spectrum", "spectral.verify_spectrum", hook=_verify_spectrum),
    WrapPoint("spectral", "build_E_j", "spectral.build_E_j", hook=_build_E_j),
    WrapPoint("spectral", "primitive_basis", "spectral.primitive_basis"),
    WrapPoint("simulate", "gsr_step", "simulate.gsr_step"),
    WrapPoint("simulate", "matrix_stepper", "simulate.matrix_step", kind="returns"),
    WrapPoint("simulate", "RngStream.randbelow", "simulate.rng_draws", kind="count"),
    WrapPoint("simulate", "run_trajectories", "simulate.run_trajectories"),
    WrapPoint("cli", "_emit", "cli.emit"),
)


def _wrapper(tracer: Tracer, point: WrapPoint, fn: Callable) -> Callable:
    if point.kind == "count":
        return tracer.counted(point.name, fn)
    if point.kind == "returns":

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if point.when is None or point.when(args):
                return tracer.timed(point.name, inner)
            return inner

        return factory
    return tracer.timed(point.name, fn, point.hook)


def install(tracer: Tracer) -> list[str]:
    """Install every wrap point; returns the points missing from the program."""
    modules = {
        name: importlib.import_module(f"hopfchains.{name}")
        for name in sorted({p.module for p in WRAP_POINTS})
    }
    loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hopfchains"]
    missing = []
    for point in WRAP_POINTS:
        owner = modules[point.module]
        *cls, attr = point.attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{point.module}.{point.attr}")
            continue
        wrapped = _wrapper(tracer, point, original)
        if cls:
            setattr(owner, attr, wrapped)
            continue
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    prefix, cli_args = argv[0], argv[1:]
    from hopfchains import cli

    tracer = Tracer()
    tracer.missing = install(tracer)
    gc.callbacks.append(tracer.gc_callback)
    try:
        return cli.main(cli_args)
    finally:
        gc.callbacks.remove(tracer.gc_callback)
        sys.stdout.flush()
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
