"""End-to-end benchmark of the TerraDir reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-hotspot --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` makes a separate traced run and reports
the per-layer metrics.  A readable table goes to standard output first;
the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program under test is
imported from ``src/`` of the same checkout; without it the benchmark
exits non-zero before printing a result.

See ``perfbench/README.md`` for workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: unit of every metric printed in the readable table (the JSON line
#: takes its units from BENCHMARK.json)
TABLE_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "lookups_per_s": "1/s",
    "latency_p50_ms": "ms", "failed_frac": "frac",
    "sim_drop_frac": "frac", "sim_latency_p50_ms": "ms",
    "sim_latency_p90_ms": "ms",
    "sim_latency_p99_ms": "ms", "sim_ctrl_msgs_per_lookup": "count",
    "p50_ms_at_400": "ms", "p90_ms_at_400": "ms", "p99_ms_at_400": "ms", "p50_ms_at_1000": "ms",
    "p99_ms_at_1000": "ms", "max_qps_p99_50ms": "1/s",
    "lookups_per_cpu_s_at_1000": "1/s", "server_gc_full_at_1000": "count",
    "server_gc_max_ms_at_1000": "ms",
}


def _parse(argv: list) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def stop_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    Shard workers are joined by their coordinator and live servers by
    their session; this also catches any an error path left behind, and
    multiprocessing's resource tracker, which the shared-memory arenas
    start and which would otherwise outlive this process by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(signum: int, frame: object) -> None:
    sys.exit(128 + signum)


def main(argv: list) -> int:
    # a terminated run still unwinds, so every child is stopped
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        stop_processes()


def _main(argv: list) -> int:
    args = _parse(argv)
    # the live workload addresses its sockets relative to the checkout
    os.chdir(ROOT)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    contract = harness.load_contract(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in harness.workload_names(contract):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{harness.workload_names(contract)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"cannot import the program under test from src/: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    if args.workload == "live-lookup":
        import liveload

        res = (liveload.traced if args.trace else liveload.measure)(
            args.seed, args.seconds, ROOT)
    else:
        import simload

        if args.trace:
            res = simload.traced(args.workload, args.seed, ROOT)
        else:
            res = simload.measure(args.workload, args.seed, args.seconds)

    if args.trace:
        values = res["per_layer"]
        spec = contract["per_layer"]
    else:
        values = res["e2e"]
        spec = contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    errors = list(res["errors"])
    try:
        harness.check_metrics(contract, metrics, bool(args.trace))
    except ValueError as exc:
        errors.append(str(exc))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for key, val in sorted(res.get("notes", {}).items()):
        print(f"  {key}: {val}")
    if args.trace:
        for name in sorted(units):
            print(f"  {name:<32} {metrics[name]['value']:>14.6g} "
                  f"{units[name]}")
    else:
        for name, val in res["table"].items():
            print(f"  {name:<28} {val:>12.4f} {TABLE_UNITS[name]}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
