"""Correctness checks on one job's output.

Every check is exact: outputs are parsed with `Fraction` and compared by
equality.  Each returns a list of problems; an empty list means the job
passed.  The invariants hold for any seed; golden digests pin the exact
bytes for the jobs whose argv they list.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

CLI_MAX_STATES = 1000  # the CLI's default --max-states


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_problems(replay: str, digest: str, golden: dict) -> list[str]:
    """Compare against the committed digest for this exact argv, if any."""
    want = golden.get(replay)
    if want is not None and want != digest:
        return [f"digest {digest[:12]} differs from golden {want[:12]}"]
    return []


def start_statistic(check: dict) -> Fraction:
    """The statistic at the start state, through the public hopfchains API."""
    stat = check["stat"]
    if stat == "f_j":
        from hopfchains.forests import f_j_statistic, parse_forest

        return f_j_statistic(
            parse_forest(check["start"]), check["j"], Fraction(check["q1"]), Fraction(check["q3"])
        )
    from hopfchains.shuffle import (
        deck_from_string,
        descent_peak_sets,
        weighted_descent_stat,
    )

    alg, deck = deck_from_string(check["start"])
    if stat == "weighted-descents":
        return weighted_descent_stat(deck, Fraction(check["q"]), alg.alphabet)
    if stat == "descents":
        return Fraction(len(descent_peak_sets(deck, alg.alphabet).descents))
    raise ValueError(f"no start-state check for statistic {stat!r}")


def output_problems(command: str, check: dict, text: str) -> list[str]:
    """Invariant checks for the JSON output of one `hopfchains <command>` job."""
    try:
        out = json.loads(text)
        if out.get("command") != command:
            return [f"output command {out.get('command')!r}, expected {command!r}"]
        return _CHECKS[command](check, out)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed {command} output: {exc!r}"]


def _matrix(check, out):
    m = out["matrix"]
    problems = []
    if len(m["states"]) != check["states"]:
        problems.append(f"{len(m['states'])} states, expected {check['states']}")
    for state, row in zip(m["states"], m["rows"]):
        total = sum(Fraction(e) for e in row if e != "0")
        if total != 1:
            problems.append(f"row {state} sums to {total}")
            break
    return problems


def _spectrum(check, out):
    total = sum(r["multiplicity"] for r in out["rows"])
    problems = []
    if total != check["states"]:
        problems.append(f"multiplicities sum to {total}, expected {check['states']}")
    if check.get("verify"):
        mv = out.get("matrix_verification")
        if not mv or mv.get("ok") is not True:
            problems.append("--verify-matrix did not report ok")
    return problems


def _stationary(check, out):
    laws = out["distributions"]
    if not laws:
        return ["no stationary law"]
    problems = []
    for law in laws:
        total = sum(Fraction(w) for w in law["weights"].values())
        if total != 1:
            problems.append(f"law {law['multiset']} sums to {total}")
    return problems


def _evolve(check, out):
    values = out["values"]
    problems = []
    if len(values) != check["t"] + 1:
        problems.append(f"{len(values)} time points, expected {check['t'] + 1}")
    want = start_statistic(check)
    got = Fraction(values[0]["expectation"])
    if got != want:
        problems.append(f"expectation at t=0 is {got}, statistic at the start is {want}")
    return problems


def _eigvecs(check, out):
    problems = []
    if out.get("verified") is not True:
        problems.append("eigenvectors not verified")
    if out.get("count", 0) < 1 or out["count"] != len(out["vectors"]):
        problems.append(f"count {out.get('count')} vs {len(out['vectors'])} vectors")
    return problems


def _simulate(check, out):
    problems = []
    want = start_statistic(check)
    for name, rows in out["statistics"].items():
        if Fraction(rows[0]["mean_exact"]) != want:
            problems.append(f"{name}: sample mean at t=0 is {rows[0]['mean_exact']}, not {want}")
        if check["states"] <= CLI_MAX_STATES and not all("target" in r for r in rows):
            problems.append(f"{name}: rows lack exact targets with {check['states']} states")
        for r in rows:
            if "target" in r and r["t"] == 0 and Fraction(r["target"]) != want:
                problems.append(f"{name}: target at t=0 is {r['target']}, not {want}")
    return problems


_CHECKS = {
    "matrix": _matrix,
    "spectrum": _spectrum,
    "stationary": _stationary,
    "evolve": _evolve,
    "eigvecs": _eigvecs,
    "simulate": _simulate,
}
