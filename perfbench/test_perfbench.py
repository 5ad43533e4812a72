"""Tests of the benchmark's own machinery (generator, checks, tracing).

They import hopfchains from the checkout's src/ and start at most two
short CLI processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import digest_problems, output_problems, sha256_file  # noqa: E402
from layertrace import WRAP_POINTS, Spans, Tracer, read_spans, self_times  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import TRINOMIAL, WORKLOADS, jobs_for  # noqa: E402

from hopfchains.cli import main as cli_main  # noqa: E402
from hopfchains.forests import enumerate_forests, parse_forest  # noqa: E402
from hopfchains.presets import expand_preset  # noqa: E402
from hopfchains.shuffle import deck_from_string, rearrangement_class  # noqa: E402

SEEDS = range(6)


def _flag(args, name):
    return args[args.index(name) + 1] if name in args else None


def _state_count(args) -> int:
    if _flag(args, "--distinct"):
        return factorial(int(_flag(args, "--distinct")))
    if _flag(args, "--deck"):
        return len(rearrangement_class(*deck_from_string(_flag(args, "--deck"))))
    if _flag(args, "--forest"):
        return len(enumerate_forests(parse_forest(_flag(args, "--forest")).degree))
    return len(enumerate_forests(int(_flag(args, "--n"))))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    for seed in SEEDS:
        assert [j.args for j in jobs_for(workload, seed)] == [
            j.args for j in jobs_for(workload, seed)
        ]


def test_seed_changes_inputs():
    for workload in ("words", "forests", "sample"):
        argvs = {tuple(j.args for j in jobs_for(workload, s)) for s in SEEDS}
        assert len(argvs) > 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_state_counts_do_not_depend_on_seed(workload):
    for seed in SEEDS:
        for job in jobs_for(workload, seed):
            if "states" in job.check:
                assert _state_count(job.args) == job.check["states"], (job.id, seed)
    assert [j.check.get("states") for j in jobs_for(workload, 0)] == [
        j.check.get("states") for j in jobs_for(workload, 1)
    ]


def test_trinomial_choices_share_compositions():
    params = [dict(kv.split("=") for kv in p.split(",")) for p in TRINOMIAL]
    comps = {tuple(c for c, _ in expand_preset("trinomial", 5, p).terms) for p in params}
    assert len(comps) == 1


def test_digest_check_catches_altered_output(tmp_path):
    out = tmp_path / "m.json"
    args = ["matrix", "--distinct", "3", "--preset", "riffle"]
    assert cli_main(args + ["--out", str(out)]) == 0
    replay = "hopfchains " + " ".join(args)
    golden = {replay: sha256_file(out)}
    check = {"states": 6}
    assert digest_problems(replay, sha256_file(out), golden) == []
    assert output_problems("matrix", check, out.read_text()) == []

    data = json.loads(out.read_text())
    row = data["matrix"]["rows"][0]
    k = next(i for i, e in enumerate(row) if e != "0")
    row[k] = "1/1000"
    out.write_text(json.dumps(data, indent=2) + "\n")
    assert digest_problems(replay, sha256_file(out), golden)
    assert output_problems("matrix", check, out.read_text())


def _spans(rows):
    names = sorted({r[0] for r in rows})
    return Spans(
        names,
        array("d", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("H", [names.index(r[0]) for r in rows]),
        array("i", [r[3] for r in rows]),
    )


def test_self_time_on_synthetic_tree():
    # root [0,10] -> a [1,4], b [5,9] -> c [6,8]; a second root d [11,12]
    spans = _spans([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 2),
        ("d", 11.0, 12.0, -1),
    ])
    selfs, calls = self_times(spans)
    assert selfs == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0}
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1, "d": 1}


def test_self_time_counts_overlapping_children_once():
    spans = _spans([
        ("p", 0.0, 10.0, -1),
        ("k", 2.0, 6.0, 0),
        ("k", 4.0, 8.0, 0),
        ("k", 9.0, 12.0, 0),  # runs past its parent: only 9..10 is covered
    ])
    selfs, _ = self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nesting_round_trip(tmp_path):
    t = Tracer()

    def leaf():
        return 1

    inner = t.timed("inner", leaf)
    outer = t.timed("outer", lambda: inner() + inner())
    assert outer() == 2
    t.write(str(tmp_path / "x"))
    spans, meta = read_spans(str(tmp_path / "x"))
    assert meta["spans"] == 3
    assert [spans.names[i] for i in spans.name] == ["outer", "inner", "inner"]
    assert list(spans.parent) == [-1, 0, 0]
    selfs, calls = self_times(spans)
    assert calls == {"outer": 1, "inner": 2}
    total = spans.end[0] - spans.start[0]
    assert sum(selfs.values()) == pytest.approx(total)


def test_traced_job_output_matches_untraced(tmp_path):
    args = ["evolve", "--distinct", "3", "--preset", "top-to-random", "--t", "2"]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src")
    entry = "import sys; from hopfchains.cli import main; sys.exit(main())"
    plain = subprocess.run(
        [sys.executable, "-c", entry, *args], capture_output=True, env=env, check=True, timeout=60
    ).stdout
    prefix = str(tmp_path / "t")
    traced = subprocess.run(
        [sys.executable, str(HERE / "layertrace.py"), prefix, *args],
        capture_output=True, env=env, check=True, timeout=60,
    ).stdout
    assert traced == plain
    spans, meta = read_spans(prefix)
    assert meta["missing"] == [] and meta["hook_errors"] == 0
    _, calls = self_times(spans)
    expected = {"chain.build", "chain.evolve", "hopf.apply_cpp", "shuffle.stat", "cli.emit"}
    assert expected <= set(calls)


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
    spans = {p.name for p in WRAP_POINTS}
    for _, _, source in PER_LAYER:
        if source and source[0] in ("self", "calls"):
            assert source[1] in spans
