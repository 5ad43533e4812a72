"""Command-line surface: build matrices, spectra, stationary laws,
eigenvectors, exact evolution, Monte Carlo simulation, and the acceptance
verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error.
All rational parameters accept "p/q" strings; JSON output carries a
format_version field and serialises rationals as "p/q" strings.

Output is written as it is encoded, with no change to the bytes: JSON one
container at a time, each container of scalars in one C-encoder call, and
the text is exactly that of `json.dumps(payload, indent=2)`; CSV one line
at a time.  A JSON payload is built whole before anything is written.

`acceptance`, `spectral` and `simulate` are imported inside the commands
that run them, so each command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chain import (
    build_transition_matrix,
    distribution_to_dict,
    expectations,
    matrix_to_csv,
    matrix_to_dict,
    point_mass,
    stationary_distributions,
)
from .forests import f_j_statistic, forest_algebra, parse_forest, tree_count
from .hopf import SpecError, multinomial, spec_from_dict, spec_to_dict
from .linalg import rat
from .presets import expand_preset, preset_names
from .shuffle import (
    FreeAssociativeAlgebra,
    deck_from_string,
    deck_statistic,
    distinct_deck,
    rearrangement_class,
)

FORMAT_VERSION = 1


class UsageError(Exception):
    pass


def _parse_params(raw: str | None) -> dict:
    params: dict = {}
    if not raw:
        return params
    for bit in raw.split(","):
        if "=" not in bit:
            raise UsageError(f"malformed parameter {bit!r}; expected key=value")
        key, value = (part.strip() for part in bit.split("=", 1))
        if key in params:
            raise UsageError(f"parameter {key!r} given twice in --params")
        params[key] = value
    return params


def _load_spec(args, n: int):
    if args.spec:
        for flag in ("preset", "params"):
            if getattr(args, flag) is not None:
                raise UsageError(f"give --spec or --{flag}, not both")
        with open(args.spec, "r", encoding="utf-8") as fh:
            return spec_from_dict(json.load(fh))
    if args.preset:
        try:
            return expand_preset(args.preset, n, _parse_params(args.params))
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in --params {args.params!r}") from None
    raise UsageError("need --preset NAME or --spec FILE.json")


def _rat_flag(args, name: str) -> Fraction:
    value = getattr(args, name)
    try:
        return rat(value)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in --{name} {value!r}") from None


def _check_cap(args) -> None:
    """Refuse a --max-states below 1, which no state space fits under."""
    cap = getattr(args, "max_states", None)  # verify has no cap
    if cap is not None and cap < 1:
        raise UsageError(f"--max-states must be >= 1, got {cap}")


def check_state_count(count: int, max_states: int) -> None:
    """Refuse a state space of `count` elements above the --max-states cap."""
    if count > max_states:
        raise UsageError(
            f"state space has {count} elements, above the cap {max_states}; "
            "raise --max-states to proceed"
        )


def _check_horizon(args) -> None:
    if args.t < 0:
        raise UsageError(f"--t must be >= 0, got {args.t}")


def _one_start(args, size: str, other: str) -> None:
    """Reject a run given both start flags `--size` and `--other`, or a size below 1."""
    n = getattr(args, size)
    if n is None:
        return
    if getattr(args, other) is not None:
        raise UsageError(f"give --{size} or --{other}, not both")
    if n < 1:
        raise UsageError(f"--{size} must be >= 1, got {n}")


def _no_start_of(args, algebra: str, *flags: str) -> None:
    """Reject a start flag of the other algebra, which the run would ignore."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise UsageError(
                f"--{flag} starts a {algebra} run and would be ignored under --algebra {args.algebra}"
            )


def _shuffle_deck(args, missing: str):
    """(shuffle algebra, deck) from --distinct or --deck; `missing` is the usage error."""
    _no_start_of(args, "forests", "n", "forest")
    _one_start(args, "distinct", "deck")
    if args.distinct is not None:
        return distinct_deck(args.distinct)
    if args.deck is not None:
        if not args.deck:
            raise UsageError("--deck needs at least one card")
        return deck_from_string(args.deck)
    raise UsageError(missing)


def _setup_space(args):
    """Resolve (algebra, degree, start) from the flags; a full forest basis has no start."""
    if args.algebra == "shuffle":
        alg, deck = _shuffle_deck(args, "shuffle runs need --distinct N or --deck WORD")
        return alg, deck.degree, deck
    if args.algebra == "forests":
        _no_start_of(args, "shuffle", "distinct", "deck")
        _one_start(args, "n", "forest")
        alg = forest_algebra()
        if args.forest is not None:
            if not args.forest:
                raise UsageError("--forest needs at least one tree")
            start = parse_forest(args.forest)
            return alg, start.degree, start
        if args.n is not None:
            return alg, args.n, None
        raise UsageError("forest runs need --forest ENCODING or --n N")
    raise UsageError(f"unknown algebra {args.algebra!r}")


def _class_size(alg, deck) -> int:
    """Size of a deck's rearrangement class: the multinomial of its letter counts."""
    return multinomial(deck.degree, alg.content(deck))


def _states(args, alg, n, start) -> list:
    """The chain's states, checked against --max-states by their count
    before they are enumerated: a deck's class by its multinomial size,
    the forests on n vertices by the rooted trees on n + 1."""
    if args.algebra == "shuffle":
        check_state_count(_class_size(alg, start), args.max_states)
        return rearrangement_class(alg, start)
    check_state_count(tree_count(n + 1), args.max_states)
    return alg.basis(n)


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_chunks(obj, indent: str = ""):
    """The text of `json.dumps(obj, indent=2)`, yielded one container at a
    time.  A container whose items are all scalars (a kernel row, a state
    list) is one C-encoder call framed with the same newlines and indents,
    so no string is made per entry."""
    if isinstance(obj, dict):
        items, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        items, brackets = obj, "[]"
    else:
        yield json.dumps(obj)
        return
    if not obj:
        yield brackets
        return
    inner = indent + "  "
    if _SCALARS.issuperset(map(type, items)):
        text = json.dumps(obj, separators=(",\n" + inner, ": "))
        yield f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}"
        return
    # each key as JSON renders a dict key, with its separator: '"key": '
    keys = [json.dumps({k: 0})[1:-2] for k in obj] if brackets == "{}" else [""] * len(obj)
    sep = brackets[0]
    for key, value in zip(keys, items):
        yield f"{sep}\n{inner}{key}"
        yield from _json_chunks(value, inner)
        sep = ","
    yield f"\n{indent}{brackets[1]}"


def _write(path: str | None, chunks, end: str = "") -> None:
    """Write text chunks, then `end`, to the file at `path`, or to stdout
    without one.  A reader that closes stdout early (`| head`) ends the
    output quietly."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.write(end)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.write(end)
        sys.stdout.flush()
    except BrokenPipeError:
        import os

        # what is still buffered goes nowhere, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, payload: dict, csv_text=None) -> None:
    """Write the payload as indented JSON, or else the CSV lines `csv_text`,
    to --out or stdout as each piece is encoded."""
    if csv_text is None:
        _write(args.out, _json_chunks({"format_version": FORMAT_VERSION, **payload}), end="\n")
    else:
        _write(args.out, csv_text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_matrix(args) -> int:
    alg, n, start = _setup_space(args)
    spec = _load_spec(args, n)
    states = _states(args, alg, n, start)
    K = build_transition_matrix(alg, spec, states=states)
    if args.format == "csv":  # the CSV carries the kernel alone
        _emit(args, {}, csv_text=matrix_to_csv(K))
        return 0
    payload = {
        "command": "matrix",
        "algebra": alg.name,
        "n": n,
        "spec": spec_to_dict(spec),
        "matrix": matrix_to_dict(K),
    }
    _emit(args, payload)
    return 0


def cmd_spectrum(args) -> int:
    from .spectral import class_spectrum, verify_spectrum

    alg, n, start = _setup_space(args)
    spec = _load_spec(args, n)
    content = (n,) if start is None else alg.content(start)  # all forests form one class
    spectrum = class_spectrum(spec, alg, content)
    payload = {
        "command": "spectrum",
        "algebra": alg.name,
        "n": n,
        "spec": spec_to_dict(spec),
        "rows": spectrum.to_dicts(),
        "by_eigenvalue": {
            str(v): m for v, m in sorted(spectrum.by_eigenvalue().items(), reverse=True)
        },
    }
    ok = True
    if args.verify_matrix:
        states = _states(args, alg, n, start)
        report = verify_spectrum(alg, spec, states, spectrum)
        payload["matrix_verification"] = {"ok": report.ok, "detail": report.lines()}
        ok = report.ok
    _emit(args, payload)
    return 0 if ok else 1


def cmd_stationary(args) -> int:
    alg, n, start = _setup_space(args)
    states = _states(args, alg, n, start)
    pis = stationary_distributions(alg, n, states=states)
    payload = {
        "command": "stationary",
        "algebra": alg.name,
        "n": n,
        "distributions": [
            {
                "multiset": [str(c) for c in (pi.provenance or ())],
                "weights": distribution_to_dict(pi),
            }
            for pi in pis
        ],
    }
    _emit(args, payload)
    return 0


def cmd_eigvecs(args) -> int:
    from .spectral import build_E_j

    if args.algebra != "shuffle":
        raise UsageError("eigenvector construction runs on the word dual; use --algebra shuffle")
    words, deck = _shuffle_deck(args, "need --distinct N or --deck WORD")
    n = deck.degree
    count = len(words.alphabet) ** n
    if count > args.max_states:
        raise UsageError(
            f"eigvecs emits {len(words.alphabet)}^{n} = {count} vectors, above the cap "
            f"{args.max_states}; raise --max-states to proceed"
        )
    alg = FreeAssociativeAlgebra(words.alphabet)
    q = _rat_flag(args, "q")
    vectors = []
    for j in list(range(n - 1)) + [n]:
        vectors.extend(build_E_j(alg, n, j, q))
    payload = {
        "command": "eigvecs",
        "algebra": alg.name,
        "n": n,
        "q": str(q),
        "count": len(vectors),
        "verified": True,  # build_E_j raises on any eigen-equation failure
        "vectors": [v.to_dict() for v in vectors],
    }
    _emit(args, payload)
    return 0


# the statistic flags each statistic reads; any other one given is refused
_STAT_FLAGS = {"weighted-descents": ("q",), "weighted-peaks": ("q",), "f_j": ("j", "q1", "q3")}


def _resolve_statistic(args, alg, n: int):
    """The statistic of size-n states as a callable, checked against the algebra
    and the statistic flags before any kernel is built; an absent --q is 1/2 and
    an absent --j 2.  A deck statistic resolves its weights once (`deck_statistic`)."""
    name = args.stat
    given = [flag for flag in ("q", "j", "q1", "q3") if getattr(args, flag) is not None]
    if args.q is None:
        args.q = "1/2"
    q = _rat_flag(args, "q")
    if (name == "f_j") != (args.algebra == "forests"):
        raise UsageError(f"statistic {name!r} does not apply to the {args.algebra} algebra")
    for flag in given:
        if flag not in _STAT_FLAGS.get(name, ()):
            raise UsageError(f"--{flag} would be ignored by --stat {name}")
    if name != "f_j":
        return deck_statistic(name, alg.alphabet, n, q)
    j = 2 if args.j is None else args.j
    if j < 2:
        raise UsageError(f"--j must be >= 2 for f_j, got {j}")
    q1 = Fraction(1, 4) if args.q1 is None else _rat_flag(args, "q1")
    q3 = Fraction(1, 4) if args.q3 is None else _rat_flag(args, "q3")
    return lambda f: f_j_statistic(f, j, q1, q3)


def cmd_evolve(args) -> int:
    _check_horizon(args)
    alg, n, start = _setup_space(args)
    if start is None:
        raise UsageError("evolve needs a start state (--deck/--distinct/--forest)")
    spec = _load_spec(args, n)
    stat = _resolve_statistic(args, alg, n)
    states = _states(args, alg, n, start)
    K = build_transition_matrix(alg, spec, states=states)
    dist = point_mass(K, start)
    rows = [
        {"t": t, "expectation": str(value), "float": float(value)}
        for t, value in enumerate(expectations(K, dist, args.t, stat))
    ]
    payload = {
        "command": "evolve",
        "algebra": alg.name,
        "n": n,
        "spec": spec_to_dict(spec),
        "start": str(start),
        "statistic": args.stat,
        "q": str(_rat_flag(args, "q")),
        "values": rows,
    }
    _emit(args, payload)
    return 0


def cmd_simulate(args) -> int:
    from .simulate import gsr_stepper, matrix_stepper, run_trajectories

    _check_horizon(args)
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    alg, n, start = _setup_space(args)
    if start is None:
        raise UsageError("simulate needs a start state (--deck/--distinct/--forest)")
    spec = _load_spec(args, n)
    stat = _resolve_statistic(args, alg, n)
    stats = {args.stat: stat}
    exact_targets = None
    if args.algebra == "shuffle" and _class_size(alg, start) > args.max_states:
        stepper = gsr_stepper(spec)  # above the cap: cut-and-drop needs no kernel
    else:
        states = _states(args, alg, n, start)
        K = build_transition_matrix(alg, spec, states=states)
        stepper = gsr_stepper(spec) if args.algebra == "shuffle" else matrix_stepper(K)
        dist = point_mass(K, start)
        exact_targets = {args.stat: expectations(K, dist, args.t, stat)}
    report = run_trajectories(start, args.t, args.trials, stepper, args.seed, stats)
    payload = {
        "command": "simulate",
        "algebra": alg.name,
        "n": n,
        "spec": spec_to_dict(spec),
        "start": str(start),
        **report.to_dict(exact_targets=exact_targets),
    }
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    numbers = None
    if args.criteria is not None:
        bits = [x.strip() for x in args.criteria.split(",")]
        if not all(x.isdigit() and int(x) in acceptance.CRITERIA for x in bits):
            valid = sorted(acceptance.CRITERIA)
            raise UsageError(
                f"unknown criteria {args.criteria!r}; valid criteria are {valid[0]}-{valid[-1]}"
            )
        numbers = sorted({int(x) for x in bits})
    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(numbers=numbers, seed=seed)
    all_ok = True
    for r in results:
        print(r.status_line())
        for line in r.lines:
            print("    " + line)
        for line in r.defects:
            print("    defect: " + line)
        if args.show_flagged:
            for line in r.flagged:
                print("    flagged: " + line)
        all_ok = all_ok and r.passed
    print(
        f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
        + ("" if all_ok else " (failures carry defect lines above)")
    )
    if args.out:
        payload = {
            "command": "verify",
            "results": [
                {
                    "criterion": r.number,
                    "title": r.title,
                    "passed": r.passed,
                    "lines": r.lines,
                    "defects": r.defects,
                    "flagged": r.flagged,
                    "seconds": round(r.seconds, 2),
                }
                for r in results
            ],
        }
        _emit(args, payload)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", choices=["shuffle", "forests"], default="shuffle")
    p.add_argument("--distinct", type=int, help="distinct deck 1<2<...<N")
    p.add_argument("--deck", help="explicit deck word, e.g. aabb")
    p.add_argument("--forest", help="forest encoding, e.g. (()())")
    p.add_argument("--n", type=int, help="degree for full-basis forest runs")
    p.add_argument("--max-states", type=int, default=1000)
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_operator(p: argparse.ArgumentParser) -> None:
    """Operator flags, registered only on the commands that build an operator."""
    p.add_argument("--preset", help="named operator: " + ", ".join(preset_names()))
    p.add_argument("--params", help="preset parameters, e.g. q=1/3 or a=3,q1=1/4")
    p.add_argument("--spec", help="path to an operator spec JSON file")


def _add_statistic_flags(p: argparse.ArgumentParser, t_default: int) -> None:
    """Horizon and statistic flags shared by evolve and simulate."""
    p.add_argument("--t", type=int, default=t_default)
    p.add_argument(
        "--stat",
        default="weighted-descents",
        choices=["weighted-descents", "weighted-peaks", "descents", "peaks", "f_j"],
    )
    p.add_argument("--q", help="weight parameter for weighted statistics (default 1/2)")
    p.add_argument("--j", type=int, help="threshold for the forest statistic (default 2)")
    p.add_argument("--q1", help="forest statistic down-weight")
    p.add_argument("--q3", help="forest statistic up-weight")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfchains",
        description="Exact Markov chains from breaking-size operators on words and forests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="build and export the transition matrix")
    _add_common(p)
    _add_operator(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("spectrum", help="closed-form spectrum, optionally matrix-verified")
    _add_common(p)
    _add_operator(p)
    p.add_argument("--verify-matrix", action="store_true")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("stationary", help="stationary distributions at a degree")
    _add_common(p)
    p.set_defaults(fn=cmd_stationary)

    p = sub.add_parser("eigvecs", help="insertion-shuffle eigenvectors on the word dual")
    _add_common(p)
    p.add_argument("--q", default="1", help="insertion weight parameter")
    p.set_defaults(fn=cmd_eigvecs)

    p = sub.add_parser("evolve", help="exact expectations of a statistic over time")
    _add_common(p)
    _add_operator(p)
    _add_statistic_flags(p, t_default=5)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("simulate", help="seeded Monte Carlo with exact targets where available")
    _add_common(p)
    _add_operator(p)
    _add_statistic_flags(p, t_default=3)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance criteria and print a table")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,3")
    p.add_argument("--seed", type=int, help="default: the acceptance suite's own seed")
    p.add_argument("--show-flagged", action="store_true")
    p.add_argument("--out", help="also write a JSON report here")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_cap(args)
        return args.fn(args)
    except (UsageError, SpecError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(json.dumps({"error": "verification failure: " + str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
