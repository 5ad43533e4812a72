"""Command-line surface: build matrices, spectra, stationary laws,
eigenvectors, exact evolution, Monte Carlo simulation, and the acceptance
verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error or out of memory.
All rational parameters accept "p/q" strings; JSON output carries a
format_version field and serialises rationals as "p/q" strings.

Output is written as it is encoded, with no change to the bytes: JSON one
container at a time, and the text is exactly that of
`json.dumps(payload, indent=2)`; CSV one line at a time.  A list or tuple
of plain strings (printable ASCII with no '"' or '\\', such as a kernel
row of "p/q" entries or a state list) skips the C encoder: the encoder
escapes nothing in such a string, so quoting each one as it stands and
joining them with the indented separators gives its bytes.  Every other
container of scalars is one C-encoder call.  A JSON payload is built
whole before anything is written.

Each --algebra choice is one entry of `_STARTS`: its start flags, their
parser and its handle class.  A class's size (checked against --max-states
before enumeration), states, kernel-free sampler and statistics (each --stat
name, the flags it reads and their defaults, its callable) come from the handle.

`acceptance`, `spectral` and `simulate` are imported inside the commands
that run them, so each command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .forests import ForestAlgebra, forest_algebra, parse_forest
from .hopf import SpecError, spec_from_dict, spec_to_dict
from .linalg import rat
from .presets import expand_preset, preset_names
from .shuffle import FreeAssociativeAlgebra, ShuffleAlgebra, deck_from_string, distinct_deck

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


def _check_minima(args) -> None:
    """Refuse a numeric flag below its least value before any work (no state
    space fits under a --max-states below 1); a command without it skips it."""
    for flag, least in (("max_states", 1), ("t", 0), ("trials", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")


def _check_out(args) -> None:
    """Refuse an --out whose directory cannot be reached before any work,
    with the error that opening the file would raise once the output is
    ready; a command without the flag, or one writing to stdout, skips it."""
    path = getattr(args, "out", None)
    if path:
        try:
            os.stat(os.path.dirname(path) or ".")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def check_state_count(count: int, max_states: int) -> None:
    """Refuse a state space of `count` elements above the --max-states cap."""
    if count > max_states:
        raise UsageError(
            f"state space has {count} elements, above the cap {max_states}; "
            "raise --max-states to proceed"
        )


def _deck_start(args):
    """A deck from --distinct N or --deck WORD."""
    if args.deck == "":
        raise UsageError("--deck needs at least one card")
    alg, deck = distinct_deck(args.distinct) if args.deck is None else deck_from_string(args.deck)
    return alg, deck.degree, alg.content(deck), deck


def _forest_start(args):
    """A forest from --forest ENCODING, or every forest on --n N vertices."""
    alg = forest_algebra()
    if args.forest is None:
        return alg, args.n, (args.n,), None  # the forests on n vertices form one class
    if not args.forest:
        raise UsageError("--forest needs at least one tree")
    start = parse_forest(args.forest)
    return alg, start.degree, alg.content(start), start


# --algebra NAME: (flag sizing a start, flag naming one state, their parser into
# (algebra, degree, content, start or None), the error without them, the handle class)
_STARTS = {
    "shuffle": ("distinct", "deck", _deck_start, "shuffle runs need --distinct N or --deck WORD",
                ShuffleAlgebra),
    "forests": ("n", "forest", _forest_start, "forest runs need --forest ENCODING or --n N",
                ForestAlgebra),
}


def _setup_space(args, missing: str | None = None):
    """(algebra, degree, content, start) from the start flags of --algebra;
    start is None for a whole class.  Refused: a start flag of another
    algebra, both flags, a size below 1, or neither (`missing`, if given)."""
    size, state, parse, default, _ = _STARTS[args.algebra]
    for name, (*flags, _, _, _) in _STARTS.items():
        for flag in flags:
            if flag not in (size, state) and getattr(args, flag) is not None:
                raise UsageError(
                    f"--{flag} starts a {name} run and would be ignored under --algebra {args.algebra}"
                )
    n = getattr(args, size)
    if n is not None:
        if getattr(args, state) is not None:
            raise UsageError(f"give --{size} or --{state}, not both")
        if n < 1:
            raise UsageError(f"--{size} must be >= 1, got {n}")
    elif getattr(args, state) is None:
        raise UsageError(missing or default)
    return parse(args)


def _states(args, alg, content) -> list:
    """The content class, checked against --max-states by the handle's
    count of it before it is enumerated."""
    check_state_count(alg.class_size(content), args.max_states)
    return alg.content_class(content)


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _plain(text: str) -> bool:
    """True iff `json.dumps` escapes nothing in `text`: it is printable
    ASCII with no '"' or '\\'."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_chunks(obj, indent: str = ""):
    """The text of `json.dumps(obj, indent=2)`, yielded one container at a
    time.  A list or tuple of plain strings (`_plain`: a kernel row, a
    state list) is one `join` of the strings, each quoted as it stands,
    since the encoder would escape none of them; `"".join` raising
    `TypeError` on a non-string item is the only type test.  Any other
    container whose items are all scalars is one C-encoder call framed with
    the same newlines and indents, so no string is made per entry."""
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
    if brackets == "[]":
        try:
            plain = _plain("".join(obj))
        except TypeError:
            plain = False
        if plain:
            yield f'[\n{inner}"' + f'",\n{inner}"'.join(obj) + f'"\n{indent}]'
            return
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
    alg, n, content, _ = _setup_space(args)
    spec = _load_spec(args, n)
    K = build_transition_matrix(alg, spec, states=_states(args, alg, content))
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

    alg, n, content, _ = _setup_space(args)
    spec = _load_spec(args, n)
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
        report = verify_spectrum(alg, spec, _states(args, alg, content), spectrum)
        payload["matrix_verification"] = {"ok": report.ok, "detail": report.lines()}
        ok = report.ok
    _emit(args, payload)
    return 0 if ok else 1


def cmd_stationary(args) -> int:
    alg, n, content, _ = _setup_space(args)
    pis = stationary_distributions(alg, n, states=_states(args, alg, content))
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

    if "deck" not in _STARTS[args.algebra]:  # the word dual needs a deck; no start is read
        raise UsageError("eigenvector construction runs on the word dual; use --algebra shuffle")
    words, n, _, _ = _setup_space(args, "need --distinct N or --deck WORD")
    if n < 2:
        raise UsageError(f"eigvecs needs a deck of at least 2 cards, got {n}")
    count = len(words.alphabet) ** n
    if count > args.max_states:
        raise UsageError(
            f"eigvecs emits {len(words.alphabet)}^{n} = {count} vectors, above the cap "
            f"{args.max_states}; raise --max-states to proceed"
        )
    alg = FreeAssociativeAlgebra(words.alphabet)
    q = _rat_flag(args, "q")
    vectors = [v for j in [*range(n - 1), n] for v in build_E_j(alg, n, j, q)]
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


def _resolve_statistic(args, alg, n: int):
    """The --stat statistic of size-n states as a callable from the handle
    (`alg.statistic`), resolved once before any kernel is built.  A name not
    in the handle's table, or a statistic flag given that it does not read, is
    refused; each flag it reads is set on `args` as given (parsed) or as its default."""
    table = alg.statistics.get(args.stat)
    if table is None:
        raise UsageError(f"statistic {args.stat!r} does not apply to the {args.algebra} algebra")
    params = dict(table)
    for flag in [flag for flag in ("q", "j", "q1", "q3") if getattr(args, flag) is not None]:
        if flag not in table:
            raise UsageError(f"--{flag} would be ignored by --stat {args.stat}")
        value = getattr(args, flag)
        params[flag] = _rat_flag(args, flag) if isinstance(value, str) else value  # --j: an int
    vars(args).update(params)
    return alg.statistic(args.stat, n, **params)


def _setup_run(args):
    """(algebra, degree, content, start, spec, statistic) of a run from one start state."""
    alg, n, content, start = _setup_space(args)
    if start is None:
        raise UsageError(f"{args.command} needs a start state (--deck/--distinct/--forest)")
    spec = _load_spec(args, n)
    return alg, n, content, start, spec, _resolve_statistic(args, alg, n)


def cmd_evolve(args) -> int:
    alg, n, content, start, spec, stat = _setup_run(args)
    K = build_transition_matrix(alg, spec, states=_states(args, alg, content))
    rows = [
        {"t": t, "expectation": str(value), "float": float(value)}
        for t, value in enumerate(expectations(K, point_mass(K, start), args.t, stat))
    ]
    payload = {
        "command": "evolve",
        "algebra": alg.name,
        "n": n,
        "spec": spec_to_dict(spec),
        "start": str(start),
        "statistic": args.stat,
        "q": str(Fraction(1, 2) if args.q is None else args.q),  # --q's documented default
        "values": rows,
    }
    _emit(args, payload)
    return 0


def cmd_simulate(args) -> int:
    from .simulate import matrix_stepper, run_trajectories

    alg, n, content, start, spec, stat = _setup_run(args)
    stepper = alg.stepper(spec)
    exact_targets = None
    # a class above the cap runs on a kernel-free sampler, with no exact targets
    if stepper is None or alg.class_size(content) <= args.max_states:
        K = build_transition_matrix(alg, spec, states=_states(args, alg, content))
        if stepper is None:
            stepper = matrix_stepper(K)
        exact_targets = {args.stat: expectations(K, point_mass(K, start), args.t, stat)}
    report = run_trajectories(start, args.t, args.trials, stepper, args.seed, {args.stat: stat})
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
    p.add_argument("--algebra", choices=list(_STARTS), default="shuffle")
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
        choices=list(dict.fromkeys(s for *_, alg in _STARTS.values() for s in alg.statistics)),
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
        _check_minima(args)
        _check_out(args)
        return args.fn(args)
    except (UsageError, SpecError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc) or type(exc).__name__}) + "\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(json.dumps({"error": "verification failure: " + str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
