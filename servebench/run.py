"""Run one servebench workload and print its metrics.

Usage, from the repository root::

    python3 servebench/run.py --workload fleet-sharded --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with the per-layer wrappers of
:mod:`servebench.layers` installed, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 3

E2E_UNITS = {
    "downgrade_rps": "1/s",
    "downgrade_p50_ms": "ms",
    "downgrade_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "edge.self_ms_p50": "ms",
    "edge.requests": "count",
    "gateway.queue_wait_ms_p50": "ms",
    "gateway.tick_ms_p50": "ms",
    "gateway.tick_ms_p99": "ms",
    "gateway.batch_mean": "count",
    "gateway.ticks": "count",
    "gateway.self_s": "s",
    "session.calls": "count",
    "session.busy_s": "s",
    "session.us_per_downgrade": "us",
    "api.result_self_s": "s",
    "api.us_per_result": "us",
    "api.lifecycle_s": "s",
    "ledger.admit_s": "s",
    "ledger.commit_s": "s",
    "ledger.apply_s": "s",
    "ledger.epoch_ms_p50": "ms",
    "ledger.refusals": "count",
    "ledger.distinct_prior_frac": "1",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.bytes_per_result": "B",
    "workers.jobs": "count",
    "workers.roundtrip_ms_p50": "ms",
    "workers.request_bytes": "B",
    "workers.response_bytes": "B",
    "supervise.open_fraction_calls": "count",
    "supervise.open_fraction_s": "s",
    "supervise.retries": "count",
    "journal.begin_s": "s",
    "journal.ack_s": "s",
    "journal.txns": "count",
    "journal.entries_per_txn": "count",
    "journal.duplicates": "count",
    "obs.record_s": "s",
    "obs.absorb_s": "s",
    "obs.spans": "count",
    "obs.orphan_traces": "count",
    "obs.scrape_ms_p50": "ms",
    "compile.count": "count",
    "compile.ms_p50": "ms",
    "compile.cache_hits": "count",
    "trace.unattributed_frac": "1",
    "trace.overhead_frac": "1",
}


def end_to_end(out) -> dict[str, float]:
    from servebench.layers import quantile

    latencies = out.phase.downgrade_ms
    return {
        "downgrade_rps": len(latencies) / out.seconds,
        "downgrade_p50_ms": statistics.median(latencies),
        "downgrade_p90_ms": quantile(latencies, 0.90),
        "setup_s": statistics.median(out.setup_s),
        "peak_rss_mb": out.peak_rss_mb,
    }


def checks(out) -> list[str]:
    """Every correctness check of one run; returns the failures."""
    from servebench import workloads

    problems = []
    if out.phase.failed:
        problems.append(f"{out.phase.failed} request(s) failed")
    measured = out.digests[1:]
    if len(set(measured)) != 1:
        problems.append(f"rounds are not stationary: {len(set(measured))} distinct digests")
    if out.digests[0] != measured[0]:
        problems.append("warm-up round decided differently from round 1")
    if measured[0] != out.reference:
        problems.append("digest differs from the gateway-local reference server")
    if out.wrong:
        problems.append(f"{out.wrong} authorized response(s) differ from the query's value")
    if out.phase.retry_mismatches:
        problems.append(f"{out.phase.retry_mismatches} retried response(s) differ")
    if len(out.phase.downgrade_ms) < workloads.MIN_SAMPLES:
        problems.append(f"fewer than {workloads.MIN_SAMPLES} downgrade samples")
    return problems


def cross_check(out, layer: dict[str, float]) -> list[str]:
    """The wrappers' counts must equal the program's own counters."""
    after_setup, before, after = out.stats
    delta = {key: after[key] - before[key] for key in after}
    pairs = {
        "downgrades served": (layer["_gateway.served"], delta["downgrades_served"]),
        "first-delivery downgrades": (len(out.phase.downgrade_ms), delta["downgrades_served"]),
        "budget refusals": (layer["ledger.refusals"], delta["budget_refusals"]),
        "ticks": (layer["gateway.ticks"], delta["ticks"]),
        "journal appends": (layer["_journal.appends"], delta["journal_appends"]),
        "journal duplicates": (layer["journal.duplicates"], delta["journal_duplicates"]),
        "retries answered from the journal": (out.phase.retries, delta["journal_duplicates"]),
        "compiles": (layer["compile.count"], after_setup["compiles"]),
        "compile cache hits": (layer["compile.cache_hits"], after_setup["compile_cache_hits"]),
    }
    return [
        f"{name}: traced {seen:g} != program {want:g}"
        for name, (seen, want) in pairs.items()
        if seen != want
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"servebench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".servebench" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            plain = run(args.seed, args.seconds, 1, workdir)
            tracing = layers.Tracing()
            tracing.install()
            try:
                out = run(args.seed, args.seconds, 1, workdir)
            finally:
                tracing.uninstall()
            layer = layers.summarize(
                tracing.log.spans, out.window, out.setup_window,
                edge_requests=out.phase.requests,
            )
            layer["obs.orphan_traces"] = float(out.orphan_traces)
            layer["trace.overhead_frac"] = 1.0 - (
                end_to_end(out)["downgrade_rps"] / end_to_end(plain)["downgrade_rps"]
            )
            problems = checks(plain) + checks(out) + cross_check(out, layer)
            metrics = {name: layer[name] for name in LAYER_UNITS}
            units = LAYER_UNITS
        else:
            out = run(args.seed, args.seconds, SETUPS, workdir)
            problems = checks(out)
            metrics = end_to_end(out)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    if not args.trace:
        # For people only; README.md says why these stay out of BENCHMARK.json.
        print(f"{'failed_frac':32s} {out.phase.failed / out.phase.attempted:14.6g} 1")
        print(f"{'downgrade_mean_ms':32s} {statistics.fmean(out.phase.downgrade_ms):14.6g} ms")
        print(f"{'downgrade_p99_ms':32s} {layers.quantile(out.phase.downgrade_ms, 0.99):14.6g} ms")
        print(f"{'control_p50_ms':32s} {statistics.median(out.phase.control_ms):14.6g} ms")
        print(f"{'control_p99_ms':32s} {layers.quantile(out.phase.control_ms, 0.99):14.6g} ms")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": out.phase.attempted,
        "failed": out.phase.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
