"""Metric definitions and their computation from job runs and traces.

End-to-end metrics come from untraced runs only.  Per-layer metrics come
from the traced round: every `_s` layer metric is the self time of one
span name summed over the workload's jobs, so the layer times never count
the same second twice.  Every time is normalised by the speed probe
(see run.py): layer seconds by their job's scale factor.
"""

from __future__ import annotations

import statistics

from layertrace import read_spans, self_times, top_level_seconds

COMMANDS = ("matrix", "spectrum", "stationary", "evolve", "eigvecs", "simulate")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: (name, unit, source).  Sources: ("self", span) is the
# span's self time; ("calls", span) its span count; ("count"|"max"|"distinct",
# counter) a tracer counter; anything else is computed in layer_metrics.
PER_LAYER = [
    ("linalg.rank_s", "s", ("self", "linalg.rank")),
    ("linalg.rank_calls", "count", ("calls", "linalg.rank")),
    ("linalg.rank_max_bits", "bits", ("max", "linalg.rank_max_bits")),
    ("linalg.annihilation_s", "s", ("self", "linalg.annihilation")),
    ("linalg.annihilation_factors", "count", ("count", "linalg.annihilation_factors")),
    ("linalg.nullspace_s", "s", ("self", "linalg.nullspace")),
    ("hopf.apply_cpp_s", "s", ("self", "hopf.apply_cpp")),
    ("hopf.apply_cpp_calls", "count", ("calls", "hopf.apply_cpp")),
    ("hopf.apply_cpp_terms", "count", ("count", "hopf.apply_cpp_terms")),
    ("hopf.iterated_coproduct_s", "s", ("self", "hopf.iterated_coproduct")),
    ("hopf.coproduct_terms", "count", ("count", "hopf.coproduct_terms")),
    ("hopf.eta_s", "s", ("self", "hopf.eta")),
    ("hopf.product_s", "s", ("self", "hopf.product")),
    ("hopf.tensor_square_product_s", "s", ("self", "hopf.tensor_square_product")),
    ("hopf.tensor_square_product_calls", "count", ("calls", "hopf.tensor_square_product")),
    ("shuffle.shuffle_product_calls", "count", ("calls", "shuffle.shuffle_product")),
    ("shuffle.shuffle_product_s", "s", ("self", "shuffle.shuffle_product")),
    ("shuffle.deshuffle_coproduct_calls", "count", ("calls", "shuffle.deshuffle_coproduct")),
    ("shuffle.deshuffle_coproduct_s", "s", ("self", "shuffle.deshuffle_coproduct")),
    ("shuffle.lyndon_words_calls", "count", ("calls", "shuffle.lyndon_words")),
    ("shuffle.lyndon_words_s", "s", ("self", "shuffle.lyndon_words")),
    ("shuffle.rearrangement_class_s", "s", ("self", "shuffle.rearrangement_class")),
    ("shuffle.stat_calls", "count", ("calls", "shuffle.stat")),
    ("shuffle.stat_s", "s", ("self", "shuffle.stat")),
    ("forests.coproduct_basis_calls", "count", ("calls", "forests.coproduct_basis")),
    ("forests.coproduct_basis_keys", "count", ("distinct", "forests.coproduct_basis_keys")),
    ("forests.coproduct_basis_s", "s", ("self", "forests.coproduct_basis")),
    ("forests.enumerate_s", "s", ("self", "forests.enumerate")),
    ("forests.f_j_calls", "count", ("calls", "forests.f_j")),
    ("forests.f_j_s", "s", ("self", "forests.f_j")),
    ("chain.build_s", "s", ("self", "chain.build")),
    ("chain.states", "count", ("count", "chain.states")),
    ("chain.kernel_nnz", "count", ("count", "chain.kernel_nnz")),
    ("chain.kernel_den_bits", "bits", ("max", "chain.kernel_den_bits")),
    ("chain.evolve_s", "s", ("self", "chain.evolve")),
    ("chain.evolve_steps", "count", ("count", "chain.evolve_steps")),
    ("chain.stationary_s", "s", ("self", "chain.stationary")),
    ("chain.stationary_multisets", "count", ("count", "chain.stationary_multisets")),
    ("chain.stationary_laws", "count", ("count", "chain.stationary_laws")),
    ("spectral.class_multiplicity_s", "s", ("self", "spectral.class_multiplicity")),
    ("spectral.class_multiplicity_calls", "count", ("calls", "spectral.class_multiplicity")),
    ("spectral.verify_spectrum_s", "s", ("self", "spectral.verify_spectrum")),
    ("spectral.eigenvalues_checked", "count", ("count", "spectral.eigenvalues_checked")),
    ("spectral.build_E_j_s", "s", ("self", "spectral.build_E_j")),
    ("spectral.eigvecs_built", "count", ("count", "spectral.eigvecs_built")),
    ("spectral.primitive_basis_s", "s", ("self", "spectral.primitive_basis")),
    ("simulate.gsr_step_s", "s", ("self", "simulate.gsr_step")),
    ("simulate.gsr_steps", "count", ("calls", "simulate.gsr_step")),
    ("simulate.matrix_step_s", "s", ("self", "simulate.matrix_step")),
    ("simulate.matrix_steps", "count", ("calls", "simulate.matrix_step")),
    ("simulate.rng_draws", "count", ("count", "simulate.rng_draws")),
    ("simulate.run_trajectories_s", "s", ("self", "simulate.run_trajectories")),
    ("cli.emit_s", "s", ("self", "cli.emit")),
    ("cli.output_bytes", "B", None),
    ("runtime.gc_s", "s", None),
    ("runtime.gc_collections", "count", None),
    ("trace.overhead_frac", "ratio", None),
    # untraced seconds per CLI command, from the trace run's untraced round
    *((f"{c}_s", "s", None) for c in COMMANDS),
    ("mc_steps_per_s", "1/s", None),
]


def per_job(runs) -> dict:
    """Median normalised seconds per job id over the run's rounds."""
    walls: dict = {}
    for r in runs:
        walls.setdefault(r.job.id, []).append(r.seconds)
    return {k: statistics.median(v) for k, v in walls.items()}


def command_metrics(jobs, runs) -> dict:
    """Untraced seconds per CLI command, and Monte Carlo steps per second."""
    walls = per_job(runs)
    out = {f"{c}_s": sum(walls[j.id] for j in jobs if j.command == c) for c in COMMANDS}
    steps = sum(j.check.get("steps", 0) for j in jobs)
    out["mc_steps_per_s"] = steps / out["simulate_s"] if out["simulate_s"] else 0.0
    return out


def layer_metrics(jobs, plain, traced) -> tuple[dict, list]:
    """Per-layer metrics from the traced round.

    `plain` holds the untraced job runs and `traced` (run, trace prefix)
    pairs.  A traced run whose span time exceeds its wall time gets a
    problem.  Returns the metrics and notes on wrap points that are missing
    from the program or whose counting hook failed; their metrics read 0
    rather than failing the run.
    """
    selfs: dict = {}
    calls: dict = {}
    counts: dict = {}
    maxima: dict = {}
    distinct: dict = {}
    gc_s, gc_n = 0.0, 0
    notes = []
    for run, prefix in traced:
        if run.exit_code != 0:
            continue
        spans, meta = read_spans(str(prefix))
        s, c = self_times(spans)
        for k, v in s.items():
            selfs[k] = selfs.get(k, 0.0) + v * run.scale
        for k, v in c.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in meta["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in meta["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
        for k, v in meta["distinct"].items():
            distinct[k] = distinct.get(k, 0) + v
        gc_s += meta["gc_s"] * run.scale
        gc_n += meta["gc_collections"]
        top = top_level_seconds(spans)
        if top > run.wall_s:
            run.problems.append(f"span time {top:.3f}s exceeds the job's wall {run.wall_s:.3f}s")
        if meta["hook_errors"] or meta["missing"]:
            notes.append(
                f"{run.job.id}: {meta['hook_errors']} hook errors, "
                f"missing wrap points {meta['missing']}"
            )
    sources = {"self": selfs, "calls": calls, "count": counts, "max": maxima, "distinct": distinct}
    metrics = {
        name: sources[source[0]].get(source[1], 0)
        for name, _, source in PER_LAYER
        if source is not None
    }
    ok = [r for r, _ in traced if r.exit_code == 0]
    metrics["cli.output_bytes"] = sum(r.out_path.stat().st_size for r in ok)
    metrics["runtime.gc_s"] = gc_s
    metrics["runtime.gc_collections"] = gc_n
    traced_s = sum(r.seconds for r, _ in traced)
    metrics["trace.overhead_frac"] = traced_s / sum(r.seconds for r in plain) - 1
    metrics.update(command_metrics(jobs, plain))
    return metrics, notes
