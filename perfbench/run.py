"""hopfchains benchmark: run one workload's CLI jobs, check them, print metrics.

    python3 perfbench/run.py --workload words --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each job is a fresh interpreter
running the `hopfchains` entry point from `src/`, exactly as a user
invokes it, so every process-wide cache starts cold.  Jobs run one at a
time.  With `--trace 0` the run repeats rounds of the workload's jobs
while another round fits in `--seconds`, and prints the end-to-end
metrics.  With `--trace 1` it runs one untraced round and one traced
round (see layertrace.py) and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it give
each job's replayable argv and digest.  The full record is written to
perfbench/out/.

Times are normalised to the host's current speed.  On the host this was
written on, the same job ran up to 1.7x slower for minutes at a time with
no load of its own, so raw seconds spread more between runs than any
useful bound.  A fixed probe (PROBE: standard-library Python only, in a
fresh interpreter, like a job) runs before the first job and after every
job, and each job's wall time is reported as

    wall seconds x PROBE_REF_S / (mean of the probe times before and after it),

i.e. in seconds at the speed where the probe takes PROBE_REF_S.  Raw
seconds and probe times are kept in the record.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

from checks import digest_problems, output_problems, sha256_file  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_metrics, per_job  # noqa: E402
from workloads import SETUP_ARGS, WORKLOADS, Job, jobs_for  # noqa: E402

ENTRY = "import sys; from hopfchains.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 60
SETUP_REPEATS = 7

# The speed probe: allocation-heavy Fraction, dict and JSON work in a fresh
# interpreter, independent of hopfchains so no change to the program moves it.
PROBE = """
import json, random
from fractions import Fraction
rng = random.Random(1)
xs = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**3)) for _ in range(30000)]
d = {}
for i, x in enumerate(xs):
    d[i % 1009, x.denominator] = x + Fraction(i, 7)
json.dumps({str(k): str(v) for k, v in d.items()})
"""
# The probe's median time on an Intel Xeon 2.1 GHz host with Python 3.11.7;
# it only fixes the unit of the reported seconds.
PROBE_REF_S = 0.35


class SetupFailed(Exception):
    pass


@dataclass
class JobRun:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None
    out_path: Path
    scale: float
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Wall seconds normalised by the speed probe."""
        return self.wall_s * self.scale


def job_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    return env


def run_process(argv: list, out_path: Path) -> tuple[float, float, float, int | None]:
    """Run one process to completion.

    Returns its wall seconds, CPU seconds, peak RSS in MB and exit code.
    The wait blocks in wait4, which also gives the process's own resource
    usage; `Popen.wait(timeout=...)` would poll every 50 ms and round every
    time up by up to 50 ms.  A timer kills a process that outlives
    JOB_TIMEOUT_S; its exit code is then reported as None.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=job_env(), cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024, None if code == -signal.SIGKILL else code


class Probe:
    """Runs PROBE between measured intervals and turns its times into scale factors."""

    def __init__(self, out_dir: Path):
        self.out = out_dir / "probe.out"
        self.last = self._time()
        self.samples = [self.last]

    def _time(self) -> float:
        wall, _, _, code = run_process([sys.executable, "-c", PROBE], self.out)
        if code != 0:
            raise RuntimeError(f"speed probe exited with {code}")
        return wall

    def scale(self) -> float:
        """Factor for the interval since the previous probe."""
        before, self.last = self.last, self._time()
        self.samples.append(self.last)
        return PROBE_REF_S / ((before + self.last) / 2)


def run_job(job: Job, out_dir: Path, tag: str, probe: Probe, trace_prefix=None) -> JobRun:
    out_path = out_dir / f"{job.id}.{tag}.out"
    if trace_prefix is None:
        argv = [sys.executable, "-c", ENTRY, *job.args]
    else:
        argv = [sys.executable, str(HERE / "layertrace.py"), str(trace_prefix), *job.args]
    wall, cpu, rss, code = run_process(argv, out_path)
    run = JobRun(job, wall, cpu, rss, code, out_path, scale=probe.scale())
    if code != 0:
        err = out_path.with_suffix(".err").read_text(errors="replace").strip()[-300:]
        run.problems.append(f"exit code {code}: {err}")
    else:
        run.digest = sha256_file(out_path)
    return run


def time_setup(workload: str, seed: int, out_dir: Path, probe: Probe) -> list[float]:
    """Seconds of input generation plus one CLI invocation that imports and
    parses only, SETUP_REPEATS times, normalised by the probes around them."""
    samples = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs_for(workload, seed)
        gen = time.perf_counter() - t0
        wall, _, _, code = run_process(
            [sys.executable, "-c", ENTRY, *SETUP_ARGS], out_dir / f"setup{k}.out"
        )
        if code != 0:
            raise SetupFailed(f"`hopfchains {' '.join(SETUP_ARGS)}` exited with {code}")
        samples.append(gen + wall)
    scale = probe.scale()
    return [x * scale for x in samples]


def check_run(run: JobRun, reference: dict, golden: dict) -> None:
    """Full output checks on a job's first run; later runs must match its digest."""
    if run.exit_code != 0:
        return
    first = reference.get(run.job.id)
    if first is None:
        reference[run.job.id] = run.digest
        run.problems += digest_problems(run.job.replay(), run.digest, golden)
        run.problems += output_problems(run.job.command, run.job.check, run.out_path.read_text())
    elif first != run.digest:
        run.problems.append(f"digest {run.digest[:12]} differs from the first run's {first[:12]}")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record this run's digests as golden (use at the default seed 0)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "hopfchains" / "cli.py").is_file():
        sys.stderr.write(f"hopfchains sources not found under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = environment()
    probe = Probe(out_dir)
    try:
        setup = time_setup(args.workload, args.seed, out_dir, probe)
    except SetupFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 2

    jobs = jobs_for(args.workload, args.seed)
    golden = {} if args.write_golden else json.loads(GOLDEN.read_text())
    reference: dict = {}
    runs: list[JobRun] = []
    began = time.perf_counter()
    rounds = 0
    while True:
        start = time.perf_counter()
        for job in jobs:
            run = run_job(job, out_dir, f"r{rounds}", probe)
            check_run(run, reference, golden)
            runs.append(run)
        rounds += 1
        took = time.perf_counter() - start
        if args.trace or time.perf_counter() - began + took > args.seconds:
            break
    traced: list[tuple[JobRun, Path]] = []
    if args.trace:
        for job in jobs:
            prefix = out_dir / f"{job.id}.trace"
            run = run_job(job, out_dir, "traced", probe, trace_prefix=prefix)
            check_run(run, reference, golden)
            traced.append((run, prefix))

    notes: list[str] = []
    if args.trace:
        metrics, notes = layer_metrics(jobs, runs, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": sum(per_job(runs).values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r.rss_mb for r in runs),
        }
        units = END_TO_END
    all_runs = runs + [run for run, _ in traced]
    failures = [f"{run.job.id}: {p}" for run in all_runs for p in run.problems]
    env["loadavg_end"] = list(os.getloadavg())

    if args.write_golden:
        if failures:
            sys.stderr.write("not writing golden digests: the run had failures\n")
            return 1
        table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        table.update({r.job.replay(): r.digest for r in runs})
        GOLDEN.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "environment": env,
        "setup_s": setup,
        "probe_s": probe.samples,
        "jobs": [
            {
                "id": j.id,
                "argv": j.replay(),
                "digest": reference.get(j.id, ""),
                "seconds": [r.seconds for r in runs if r.job is j],
                "wall_s": [r.wall_s for r in runs if r.job is j],
                "cpu_s": [r.cpu_s for r in runs if r.job is j],
                "traced_seconds": [r.seconds for r, _ in traced if r.job is j],
            }
            for j in jobs
        ],
        "failures": failures,
        "trace_notes": notes,
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# python {env['python']}, nproc {env['nproc']}, loadavg {env['loadavg']}, "
          f"rounds {rounds}")
    for j in record["jobs"]:
        secs = " ".join(f"{w:.3f}" for w in j["seconds"])
        raw = " ".join(f"{w:.3f}" for w in j["wall_s"])
        print(f"# job {j['id']}: {j['argv']}  sha256={j['digest']}  s=[{secs}] raw_s=[{raw}]")
    for line in notes:
        print(f"# trace note: {line}")
    for line in failures:
        print(f"# FAILED {line}")
    result = {
        "correct": not failures,
        "attempted": len(all_runs),
        "failed": sum(1 for run in all_runs if run.problems),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
