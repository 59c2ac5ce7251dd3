#!/usr/bin/env python3
"""End-to-end benchmark of the four ways Chiaroscuro runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plain_object --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; the program receives
only the collection and the configuration, through the public entry point
``repro.core.runner.run_chiaroscuro``.  Runs repeat, each in a fresh forked
process, until ``--seconds`` have passed; every run's output is checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians over
the runs).  ``--trace 1`` alternates untraced runs with traced runs, in which
the calls into each layer are timed from outside (see ``tracing.py``), and
reports the per-layer metrics of the traced run with the median wall time.
Traced runs write their spans, as Chrome trace-event JSON, to
``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Longest a single run may take before it is killed and counted as failed.
RUN_TIMEOUT_S = 90.0
#: The whole invocation stays below this, whatever ``--seconds`` says.
TOTAL_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mib": "MiB",
    "bytes_per_node_iter": "bytes",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- in the child
def reference_inertias(workload, seed: int) -> dict[str, float]:
    """Inertias of two references on the same normalized data.

    ``converged``: converged centralized k-means (the denominator of
    ``inertia_ratio``).  ``start``: the public, data-independent initial
    centroids every participant derives from ``simulation.seed``, before any
    iteration.
    """
    from repro.clustering.kmeans import (
        best_of_kmeans, compute_inertia, public_initial_centroids)
    from repro.core.runner import normalize_collection

    collection, config = workload.inputs(seed)
    bound = config.privacy.value_bound
    data, _ = normalize_collection(collection, bound)
    start = public_initial_centroids(workload.clusters, data.shape[1], 0.0, bound,
                                     seed=config.simulation.seed)
    converged = best_of_kmeans(data, workload.clusters, n_restarts=3,
                               max_iterations=30, seed=seed)
    return {"converged": converged.inertia, "start": compute_inertia(data, start)}


def _profile_checks(collection, config, result) -> dict[str, Any]:
    """Whether the returned profiles lie in the public range, and the inertia
    recomputed from them on the normalized input (in row blocks, so that the
    check stays below the run's own peak memory)."""
    import numpy as np

    from repro.clustering.kmeans import compute_inertia
    from repro.core.runner import normalize_collection

    bound = config.privacy.value_bound
    profiles = np.asarray(result.profiles, dtype=float)
    data, _ = normalize_collection(collection, bound)
    rows = 65536
    return {
        "profiles_in_range": bool(np.all(np.isfinite(profiles))
                                  and profiles.min() >= 0.0 and profiles.max() <= bound),
        "recomputed_inertia": sum(compute_inertia(data[row:row + rows], profiles)
                                  for row in range(0, len(data), rows)),
    }


def run_once(workload, seed: int, traced: bool, trace_path: str) -> dict[str, Any]:
    """One run of *workload*: generate inputs, run, measure (traced or not)."""
    import resource

    from repro.core.runner import run_chiaroscuro
    from tracing import TARGETS, Tracer

    # Untraced runs still time the one set-up call, to split it from run_s.
    tracer = Tracer(TARGETS if traced else TARGETS[:1])
    begin = time.perf_counter()
    collection, config = workload.inputs(seed)
    generate_s = time.perf_counter() - begin
    tracer.install()
    # Live workers fork from this process: they run untraced.
    os.register_at_fork(after_in_child=tracer.uninstall)
    try:
        with tracer.span("run"):
            result = run_chiaroscuro(collection, config)
    finally:
        tracer.uninstall()
    run_span = next(span for span in reversed(tracer.spans) if span[0] == "run")
    setup_span = sum(tracer.durations("core.setup"))
    costs = result.costs
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record: dict[str, Any] = {
        "traced": traced,
        "trace_path": trace_path if traced else "",
        "setup_s": generate_s + setup_span,
        "run_s": run_span[2] - run_span[1] - setup_span,
        "self_peak_rss_kib": max(usage_self, usage_children),
        "n_participants": len(collection),
        "epsilon": config.privacy.epsilon,
        "epsilon_spent": result.epsilon_spent,
        "stop_reasons": dict(result.stop_reasons),
        "n_iterations": result.n_iterations,
        "inertia": result.inertia,
        "messages_sent": costs.messages_sent,
        # The slab engine's bulk population ships no frames: its traffic is
        # the engine's modelled figure, on top of any sampled measured bytes.
        "bytes_sent": costs.bytes_sent
        + result.metadata.get("engine", {}).get("bulk_bytes_modelled", 0),
        "encryptions": costs.encryptions,
        "phase_seconds": dict(costs.phase_seconds or {}),
        "live": result.metadata.get("live"),
    }
    record.update(_profile_checks(collection, config, result))
    if traced:
        record["layers"] = _layer_figures(tracer)
        tracer.write_chrome_trace(trace_path, origin=run_span[1])
    return record


def _layer_figures(tracer) -> dict[str, Any]:
    """Self times, call counts and counters of one traced run."""
    generated = tracer.counters.get("crypto.pool_take", {}).get("generated_by_pool", {})
    return {
        "self_times": tracer.self_times(exclude_under="core.setup"),
        "setup_s": sum(tracer.durations("core.setup")),
        "calls": tracer.calls,
        "counters": tracer.counters,
        "blinders_generated": sum(generated.values()),
        "cycle_walls": tracer.durations("sim.cycle"),
        "spans": len(tracer.spans),
    }


# ---------------------------------------------------------------------- in the parent
def check_run(workload, record: dict[str, Any]) -> list[str]:
    """Output checks of one run; returns the failed ones (empty when fine)."""
    from workloads import INERTIA_TOLERANCE

    problems = []
    reasons = record["stop_reasons"]
    if "unfinished" in reasons or sum(reasons.values()) != record["n_participants"]:
        problems.append(f"not every participant finished: {reasons}")
    if record["epsilon_spent"] > record["epsilon"] * (1 + 1e-9):
        problems.append(f"epsilon_spent {record['epsilon_spent']} > {record['epsilon']}")
    if not record["profiles_in_range"]:
        problems.append("profiles not finite or outside the public value range")
    inertia = record["inertia"]
    if abs(record["recomputed_inertia"] - inertia) > 1e-9 * max(inertia, 1.0):
        problems.append(f"inertia {inertia} != {record['recomputed_inertia']} "
                        "recomputed from the returned profiles")
    ratio = record["inertia_ratio"]
    if not 0 < ratio <= INERTIA_TOLERANCE:
        problems.append(f"inertia_ratio {ratio:.3f} outside (0, {INERTIA_TOLERANCE}]")
    if workload.beats_start and inertia >= record["start_inertia"]:
        problems.append(f"inertia {inertia} not below the public initial centroids' "
                        f"{record['start_inertia']}")
    if record["traced"] and workload.counters_checked:
        layers = record["layers"]
        encrypted = layers["counters"].get("crypto.encrypt", {}).get("ciphertexts", 0)
        if encrypted != record["encryptions"]:
            problems.append(f"traced encryptions {encrypted} != costs.encryptions "
                            f"{record['encryptions']}")
        sent = layers["calls"].get("sim.transmit", 0)
        if sent != record["messages_sent"]:
            problems.append(f"traced transmits {sent} != costs.messages_sent "
                            f"{record['messages_sent']}")
    return problems


def end_to_end(record: dict[str, Any]) -> dict[str, float]:
    return {
        "setup_s": record["setup_s"],
        "run_s": record["run_s"],
        "peak_rss_mib": record["peak_rss_kib"] / 1024.0,
        "bytes_per_node_iter": record["bytes_sent"]
        / (record["n_participants"] * record["n_iterations"]),
    }


def per_layer(record: dict[str, Any], untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, with their units."""
    layers = record["layers"]
    self_times = layers["self_times"]
    calls = layers["calls"]
    counters = layers["counters"]

    def s(key: str) -> float:
        return self_times.get(key, 0.0)

    def counter(key: str, name: str) -> float:
        return float(counters.get(key, {}).get(name, 0))

    metrics: dict[str, tuple[float, str]] = {}
    for layer in ("crypto", "codec", "core", "sim", "live", "slab"):
        metrics[f"{layer}.self_s"] = (
            sum(value for key, value in self_times.items()
                if key.startswith(layer + ".")), "s")
    takes = calls.get("crypto.pool_take", 0)
    refills = counter("crypto.pool_take", "inline_refills")
    metrics.update({
        "crypto.encrypt_s": (s("crypto.encrypt"), "s"),
        "crypto.encrypt_calls": (calls.get("crypto.encrypt", 0), "count"),
        "crypto.encryptions": (counter("crypto.encrypt", "ciphertexts"), "count"),
        "crypto.rerandomize_s": (s("crypto.rerandomize"), "s"),
        "crypto.rerandomize_calls": (calls.get("crypto.rerandomize", 0), "count"),
        "crypto.lincomb_s": (s("crypto.lincomb"), "s"),
        "crypto.partial_decrypt_s": (s("crypto.partial_decrypt"), "s"),
        "crypto.combine_s": (s("crypto.combine"), "s"),
        "crypto.pool_take_s": (s("crypto.pool_take"), "s"),
        "crypto.pool_takes": (takes, "count"),
        "crypto.pool_inline_refills": (refills, "count"),
        "crypto.pool_hit_ratio": ((takes - refills) / takes if takes else 0.0, "ratio"),
        "crypto.blinders_generated": (layers["blinders_generated"], "count"),
        "codec.encode_s": (s("codec.encode"), "s"),
        "codec.encode_frames": (calls.get("codec.encode", 0), "count"),
        "codec.encode_bytes": (counter("codec.encode", "bytes"), "bytes"),
        "codec.decode_s": (s("codec.decode"), "s"),
        "codec.decode_frames": (calls.get("codec.decode", 0), "count"),
        "core.setup_s": (layers["setup_s"], "s"),
        "core.node_step_s": (s("core.node_step"), "s"),
        "core.node_steps": (calls.get("core.node_step", 0), "count"),
        "core.decrypt_round_s": (s("core.decrypt_round"), "s"),
        "core.decrypt_rounds": (calls.get("core.decrypt_round", 0), "count"),
        "core.assemble_s": (s("core.assemble"), "s"),
        "sim.cycle_s": (s("sim.cycle"), "s"),
        "sim.cycles": (calls.get("sim.cycle", 0), "count"),
        "sim.cycle_wall_median_ms": (_quantile(layers["cycle_walls"], 2) * 1e3, "ms"),
        "sim.cycle_wall_p90_ms": (_quantile(layers["cycle_walls"], 10) * 1e3, "ms"),
        "sim.transmit_s": (s("sim.transmit"), "s"),
        "sim.transmit_frames": (calls.get("sim.transmit", 0), "count"),
        "live.runner_s": (s("live.runner"), "s"),
    })
    live = record["live"] or {}
    socket = live.get("socket", {})
    coordinator = live.get("coordinator_socket", {})
    socket_bytes = socket.get("bytes_sent", 0) + coordinator.get("bytes_sent", 0)
    metrics.update({
        "live.socket_bytes": (socket_bytes, "bytes"),
        "live.socket_records": (
            socket.get("records_sent", 0) + coordinator.get("records_sent", 0), "count"),
        "live.drain_waits": (
            socket.get("drain_waits", 0) + coordinator.get("drain_waits", 0), "count"),
        "live.socket_overhead_ratio": (
            socket_bytes / record["bytes_sent"] if live and record["bytes_sent"] else 0.0,
            "ratio"),
        "slab.assign_s": (s("slab.assign"), "s"),
        "slab.scatter_s": (s("slab.scatter"), "s"),
        "slab.average_s": (s("slab.average"), "s"),
        "slab.pairs_averaged": (counter("slab.average", "pairs"), "count"),
        "slab.average_minflt": (counter("slab.average", "minflt"), "count"),
        "slab.average_bytes_computed": (counter("slab.average", "bytes_computed"), "bytes"),
        "slab.mean_s": (s("slab.mean"), "s"),
    })
    averaging_phase = record["phase_seconds"].get("averaging", 0.0)
    metrics["slab.average_phase_ratio"] = (
        s("slab.average") / averaging_phase if averaging_phase else 0.0, "ratio")
    metrics.update({
        "quality.inertia_ratio": (record["inertia_ratio"], "ratio"),
        "trace.run_s": (record["run_s"], "s"),
        "trace.other_s": (s("run"), "s"),
        "trace.untraced_run_s": (untraced_run_s, "s"),
        "trace.overhead_s": (record["run_s"] - untraced_run_s, "s"),
        "trace.spans": (layers["spans"], "count"),
    })
    return metrics


def _quantile(values: list[float], n: int) -> float:
    """The last of the n-quantiles of *values* (the median for n=2)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=n)[-1]


def _median_record(records: list[dict[str, Any]]) -> dict[str, Any]:
    """The run whose run_s is the (lower) median of *records*."""
    ordered = sorted(records, key=lambda record: record["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from forked import become_subreaper, run_forked
    from workloads import INERTIA_TOLERANCE, WORKLOADS

    # Import every module a run touches now, so each forked run starts warm.
    import repro.core.slab_runner  # noqa: F401
    import repro.net.live  # noqa: F401
    import tracing  # noqa: F401

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    become_subreaper()
    OUT_DIR.mkdir(exist_ok=True)
    started = time.monotonic()
    budget_end = started + TOTAL_BUDGET_S

    reference = run_forked(reference_inertias, (workload, args.seed), RUN_TIMEOUT_S)
    if reference.status != "ok":
        print(f"error: centralized reference failed: {reference.error}", file=sys.stderr)
        return 1

    records: list[dict[str, Any]] = []
    failures: list[str] = []
    attempted = 0
    measure_end = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        trace_path = str(OUT_DIR / f"trace-{workload.name}-seed{args.seed}-run{attempted}.json")
        timeout = min(RUN_TIMEOUT_S, budget_end - time.monotonic())
        attempted += 1
        outcome = run_forked(run_once, (workload, args.seed, traced, trace_path), timeout)
        if outcome.status != "ok":
            failures.append(f"run {attempted}: {outcome.status}: {outcome.error.strip()}")
        else:
            record = outcome.value
            record["peak_rss_kib"] = max(record["self_peak_rss_kib"],
                                         outcome.tree_peak_rss_kib)
            record["inertia_ratio"] = record["inertia"] / reference.value["converged"]
            record["start_inertia"] = reference.value["start"]
            problems = check_run(workload, record)
            if workload.deterministic and records:
                first = records[0]
                for key in ("messages_sent", "bytes_sent", "inertia"):
                    if record[key] != first[key]:
                        problems.append(f"{key} {record[key]} differs from the first "
                                        f"run's {first[key]} on the same seed")
            print(f"{workload.name} run {attempted}"
                  f"{' (traced)' if traced else ''}: run_s {record['run_s']:.4f} "
                  f"setup_s {record['setup_s']:.4f} "
                  f"peak_rss_mib {record['peak_rss_kib'] / 1024:.1f}")
            if problems:
                failures.append(f"run {attempted}: " + "; ".join(problems))
            else:
                records.append(record)
        now = time.monotonic()
        enough = attempted >= (4 if args.trace else 2)
        if (now >= measure_end and enough) or now >= budget_end - RUN_TIMEOUT_S:
            break

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    untraced = [record for record in records if not record["traced"]]
    traced_records = [record for record in records if record["traced"]]
    metrics: dict[str, dict[str, Any]] = {}
    if args.trace == 0 and untraced:
        samples = {name: [end_to_end(record)[name] for record in untraced]
                   for name in END_TO_END_UNITS}
        for name, unit in END_TO_END_UNITS.items():
            values = samples[name]
            median = statistics.median(values)
            print(f"{workload.name} {name}: median {median:.6g} {unit} "
                  f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")
            metrics[name] = {"value": median, "unit": unit}
        ratios = [record["inertia_ratio"] for record in untraced]
        print(f"{workload.name} inertia_ratio: median {statistics.median(ratios):.6g} "
              f"(tolerance {INERTIA_TOLERANCE}; unbounded, see BENCHMARK.json)")
    elif args.trace == 1 and untraced and traced_records:
        chosen = _median_record(traced_records)
        untraced_run_s = statistics.median(record["run_s"] for record in untraced)
        for name, (value, unit) in per_layer(chosen, untraced_run_s).items():
            print(f"{workload.name} {name}: {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        kept = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        Path(chosen["trace_path"]).replace(kept)
        print(f"{workload.name} spans of the median traced run: {kept}")
    for path in OUT_DIR.glob(f"trace-{workload.name}-seed{args.seed}-run*.json"):
        path.unlink()
    failed = len(failures)
    print(f"{workload.name} failed_ratio: {failed / attempted:.6g} "
          f"({failed} of {attempted} runs)")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
