"""Server process of the ``live-lookup`` workload.

Hosts a 16-peer TerraDir cluster over unix-domain sockets in one
asyncio loop (2,047-node N_S, BCR preset, 1e-4 s modelled service time
so the program's own CPU bounds capacity), prints ``READY {...}`` once
every listener is up, serves until a ``STOP`` line arrives on standard
input, then prints ``STATS {...}`` and exits.

With ``--trace`` it installs the span wrappers of :mod:`tracing` before
building the cluster, counts frame bytes, and runs a 10 ms loop-lag
probe, and times every garbage-collector pause; the totals come back
in the ``STATS`` line.  Started by
:mod:`liveload`; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from typing import Any, Dict, List, Set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

N_PEERS = 16
LEVELS = 10  # balanced binary tree: 2**11 - 1 = 2,047 nodes
SERVICE_MEAN = 1e-4
#: the paper's 12-slot queue holds 60 ms of its 5 ms service time; at
#: 1e-4 s it would hold 1.2 ms, so any event-loop stall (a collector
#: pause, a maintenance tick) would shed lookups.  256 slots, as in
#: bench-micro's serve_loopback, keep ~25 ms of work.
QUEUE_SIZE = 256
LOOKUP_DEADLINE = 1.0
LAG_PERIOD = 0.010


#: the deployment (node ownership, peer RNG streams) is fixed; the
#: benchmark seed drives only the lookup stream
CLUSTER_SEED = 1


def live_config() -> Any:
    from repro.cluster.config import SystemConfig

    return SystemConfig.replicated(
        n_servers=N_PEERS, seed=CLUSTER_SEED, service_mean=SERVICE_MEAN,
        queue_size=QUEUE_SIZE,
    )


def _count_bytes(fn: Any, counter: List[int]) -> Any:
    def counted(msg: Any) -> bytes:
        frame = fn(msg)
        counter[0] += len(frame)
        return frame

    return counted


async def serve(sock_dir: str, seed: int, trace: bool) -> Dict[str, Any]:
    from repro.namespace.generators import balanced_tree
    from repro.runtime import async_service, async_wire
    from repro.runtime.async_runtime import AsyncRuntime
    from repro.runtime.async_service import LiveService, build_live_system
    from repro.runtime.async_wire import AsyncWire, uds_addresses
    from repro.server.peer import Peer
    from repro.sim.memsize import deep_sizeof

    import harness

    loop = asyncio.get_running_loop()
    frame_bytes = [0]
    tracer = None
    lags: List[float] = []
    gc_pauses: List[float] = []  # (generation, seconds) per collection
    gc_started = [0.0]

    def on_gc(phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            gc_started[0] = time.perf_counter()
        else:
            gc_pauses.append(
                (info["generation"], time.perf_counter() - gc_started[0]))

    # collector pauses stall every peer at once: they are a candidate
    # source of tail latency, so every run records them
    gc.callbacks.append(on_gc)
    if trace:
        from tracing import LIVE_TARGETS, Tracer

        async_wire.encode_frame = _count_bytes(  # type: ignore[assignment]
            async_wire.encode_frame, frame_bytes)
        async_service.encode_frame = _count_bytes(  # type: ignore[assignment]
            async_service.encode_frame, frame_bytes)
        tracer = Tracer(LIVE_TARGETS).install()

    # which servers ever held a replica of which node: the reference for
    # the host maps in the replies (maps are soft state, so a server
    # that has since evicted its replica may still be named)
    replica_hosts: Dict[int, Set[int]] = {}
    install = Peer.install_replica

    def recording_install(peer: Any, payload: Any, now: float) -> None:
        replica_hosts.setdefault(payload.node, set()).add(peer.sid)
        install(peer, payload, now)

    Peer.install_replica = recording_install  # type: ignore[method-assign]

    t0 = time.perf_counter()
    ns = balanced_tree(levels=LEVELS)
    t1 = time.perf_counter()
    runtime = AsyncRuntime(loop)
    wire = AsyncWire(loop, uds_addresses(sock_dir, N_PEERS))
    system = build_live_system(ns, live_config(), runtime, wire)
    service = LiveService(system, lookup_deadline=LOOKUP_DEADLINE)
    service.attach(wire)
    await wire.start_listeners()
    system.start_maintenance()
    t2 = time.perf_counter()
    ready = {"namespace_build_s": t1 - t0, "cluster_build_s": t2 - t1}
    print("READY " + json.dumps(ready), flush=True)

    if trace:
        def probe(due: float) -> None:
            now = loop.time()
            lags.append(now - due)
            loop.call_at(now + LAG_PERIOD, probe, now + LAG_PERIOD)

        start = loop.time() + LAG_PERIOD
        loop.call_at(start, probe, start)

    cpu0 = time.process_time()
    marks: Dict[str, Any] = {}
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line or line.strip() == "STOP":
            break
        if line.startswith("MARK"):
            # the generator brackets a rung: snapshot CPU and counters
            marks[line.split()[1]] = _snapshot(service, wire, tracer,
                                               len(gc_pauses))
    cpu = time.process_time() - cpu0
    await wire.close()

    peers = system.local_peers
    decisions: Dict[str, int] = {}
    for p in peers:
        for k, v in p.router.decisions.items():
            decisions[k] = decisions.get(k, 0) + v
    out: Dict[str, Any] = {
        "ready": ready,
        "namespace_bytes": deep_sizeof(ns),
        "decisions": decisions,
        "stale_hops": system.stats.n_stale_hops,
        "repl_sessions": sum(p.repl.n_sessions for p in peers),
        "repl_aborted": sum(p.repl.n_sessions_aborted for p in peers),
        "replicas_installed": sum(p.repl.n_replicas_installed for p in peers),
        "replicas_evicted": sum(p.repl.n_replicas_evicted for p in peers),
        "cpu_s": cpu,
        "n_lookups": service.n_lookups,
        "n_completed": service.n_completed,
        "n_deadline_failures": service.n_deadline_failures,
        "wire_sent": wire.n_sent,
        "wire_control_sent": wire.n_control_sent,
        "wire_lost": wire.n_lost,
        "wire_delivered": wire.n_delivered,
        "processed": sum(p.n_processed for p in peers),
        "queue_drops": sum(p.n_queue_drops for p in peers),
        # modelled drops (queue, routing, ttl): each one is a lookup the
        # generator sees fail at the server's deadline
        "drop_reasons": dict(system.stats.drop_reasons),
        "peak_rss_mb": harness.vm_hwm_mb(),
        "frame_bytes": frame_bytes[0],
        "marks": marks,
        "replica_hosts": {str(n): sorted(sids)
                          for n, sids in replica_hosts.items()},
    }
    out["gc_pauses_s"] = gc_pauses
    if tracer is not None:
        tracer.restore()
        out["totals"] = tracer.totals
        out["loop_lag_s"] = sorted(lags)
        out["spans_written"] = tracer.write_spans(
            os.path.join(harness.out_dir(ROOT), f"spans-live-{seed}.jsonl"))
    return out


def _snapshot(service: Any, wire: Any, tracer: Any,
              n_gc: int) -> Dict[str, Any]:
    snap: Dict[str, Any] = {
        "cpu_s": time.process_time(),
        "gc_pauses": n_gc,
        "n_lookups": service.n_lookups,
        "wire_msgs": wire.n_sent + wire.n_control_sent,
    }
    if tracer is not None:
        snap["totals"] = {k: list(v) for k, v in tracer.totals.items()}
    return snap


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/live_server.py")
    ap.add_argument("--sock-dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    stats = asyncio.run(serve(args.sock_dir, args.seed, args.trace))
    print("STATS " + json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
