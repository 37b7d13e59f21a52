"""The two simulator workloads: ``sim-hotspot`` and ``sim-paper-sharded``.

One *repetition* builds the system from scratch (set-up), runs a fixed
simulated workload derived from the seed, and checks the outcome.  A
run repeats it until its time budget is spent (at least three times)
and reports medians; every repetition of one seed must produce the same
``run_fingerprint`` digest, so the simulated outcome is fixed by the
seed and the code, and only host-time metrics vary between runs.

* ``sim-hotspot`` -- serial engine at the Fig. 9 point 256 servers x 8
  nodes/server (2,047-node N_S), BCR preset, Fig. 9's cache/Rmap sizing,
  ``cuzipf`` alpha 1.0 at utilisation 0.3 through ``WorkloadDriver``:
  moving hot spots keep replication, eviction and reshuffles busy.
* ``sim-paper-sharded`` -- the paper's testbed, 1,024 servers and the
  32,767-node N_S, uniform destinations at utilisation 0.1 on the
  2-shard process backend (``WindowedCoordinator``: shared-memory
  arenas, packed codec): long hierarchical routes, the shard barriers
  and the codec dominate, replication barely fires.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import harness

from repro.analysis.summary import run_summary
from repro.cluster import builder
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.experiments.common import SMALL, rate_for_utilization
from repro.namespace.generators import balanced_tree
from repro.net.transport import shard_of_sid
from repro.sim import profile
from repro.sim.memsize import deep_sizeof
from repro.sim import shard
from repro.sim.shard import WindowedCoordinator, run_fingerprint
from repro.sim.shardcodec import LOG_COMPLETION
from repro.sim.stats import SystemStats
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import WorkloadSpec, cuzipf_stream, unif_stream

#: Fig. 9 sizing is relative to the smallest point of the small-scale
#: sweep (2^5 servers): cache grows by 2 and Rmap by 1 per doubling
FIG9_BASE_K = 5
#: simulated seconds after the last arrival; long enough that every
#: lookup is completed or dropped (nothing may stay in flight)
DRAIN_S = 4.0
#: repetitions are short (a few host seconds) so a run holds many:
#: host speed on a shared VM wanders by +-15% from one to the next,
#: and the median over more repetitions steadies the result
MIN_REPS = 3
SETUP_SAMPLES = 15


def fig9_config(n_servers: int, seed: int) -> SystemConfig:
    k = int(math.log2(n_servers))
    return SystemConfig.replicated(
        n_servers=n_servers, seed=seed,
        cache_slots=SMALL.cache_slots + 2 * (k - FIG9_BASE_K),
        rmap=2 + (k - FIG9_BASE_K), rfact=2.0,
    )


class SimCase:
    """One sim workload's fixed inputs for a seed."""

    def __init__(self, name: str, seed: int) -> None:
        if name == "sim-hotspot":
            self.n_servers, self.levels = 256, 10
            rate = rate_for_utilization(0.3, self.n_servers)
            # a uniform warm-up, then two Zipf(1.0) phases, each with a
            # fresh popularity permutation
            self.spec: WorkloadSpec = cuzipf_stream(
                rate, 1.0, warmup=0.4, phase=0.4, n_phases=2, seed=seed,
            )
            self.sharded = False
        elif name == "sim-paper-sharded":
            self.n_servers, self.levels = 1024, 14
            rate = rate_for_utilization(0.1, self.n_servers)
            self.spec = unif_stream(rate, 0.75, seed=seed)
            self.sharded = True
        else:
            raise ValueError(f"not a sim workload: {name}")
        self.cfg = fig9_config(self.n_servers, seed)
        self.until = self.spec.duration + DRAIN_S


@contextlib.contextmanager
def completion_latencies() -> Iterator[List[float]]:
    """Collect every simulated lookup latency the stats collector sees.

    The collector's own histogram has 10 ms bins; the benchmark wants
    exact percentiles, so for the length of one repetition it taps
    ``SystemStats.record_completion`` (bound by each routing core at
    build time) and the sharded merge's replay table entry for
    completion records.
    """
    seen: List[float] = []
    orig = SystemStats.record_completion

    def tap(self: SystemStats, now: float, latency: float, *a: Any,
            **kw: Any) -> None:
        seen.append(latency)
        orig(self, now, latency, *a, **kw)

    hooks = shard._REPLAY_HOOKS
    SystemStats.record_completion = tap  # type: ignore[method-assign]
    hooks[LOG_COMPLETION] = tap
    try:
        yield seen
    finally:
        SystemStats.record_completion = orig  # type: ignore[method-assign]
        hooks[LOG_COMPLETION] = orig


@contextlib.contextmanager
def coordinator_ready(
    on_ready: Optional[Callable[[], None]] = None,
) -> Iterator[List[Tuple[float, Any]]]:
    """Time stamp the moment a coordinator's shards are built.

    ``WindowedCoordinator.run`` spawns its workers (or builds inline
    shards), then registers itself with the profiler before the first
    window; that call marks the end of set-up.
    """
    marks: List[Tuple[float, Any]] = []
    orig = profile.note_coordinator

    def note(coord: Any) -> None:
        marks.append((time.perf_counter(), coord))
        if on_ready is not None:
            on_ready()
        orig(coord)

    profile.note_coordinator = note  # type: ignore[assignment]
    try:
        yield marks
    finally:
        profile.note_coordinator = orig  # type: ignore[assignment]


def digest_of(run: Any) -> str:
    blob = json.dumps(run_fingerprint(run), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Rep:
    """Outcome of one repetition."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.ns_s = 0.0
        self.cluster_s = 0.0
        self.run_s = 0.0
        self.run: Any = None
        self.ns: Any = None
        self.coord: Optional[WindowedCoordinator] = None
        self.latencies: List[float] = []
        self.summary: Dict[str, float] = {}
        self.fingerprint = ""

    @property
    def injected(self) -> int:
        return int(self.summary["injected"])

    @property
    def unaccounted(self) -> int:
        s = self.summary
        return int(s["injected"] - s["completed"] - s["dropped"])


def run_rep(case: SimCase, backend: str = "process",
            on_ready: Optional[Callable[[], None]] = None) -> Rep:
    """Set up and run one repetition; ``backend`` applies when sharded.

    ``on_ready`` is called once set-up ends, just before the first
    simulated event.
    """
    rep = Rep()
    # the first repetition's system stays alive for the checks; a full
    # collection of it landing inside a set-up added about 0.1 s to one
    # sample in three on sim-hotspot, so each set-up starts collected
    gc.collect()
    with completion_latencies() as lat, coordinator_ready(on_ready) as marks:
        t0 = time.perf_counter()
        ns = balanced_tree(levels=case.levels)
        t1 = time.perf_counter()
        if case.sharded:
            coord = WindowedCoordinator(
                ns, case.cfg, case.spec, 2, backend=backend, codec=True,
            )
            run = coord.run(case.until)
            t_end = time.perf_counter()
            if not marks:
                raise RuntimeError("coordinator never reported ready")
            t_ready = marks[0][0]
            rep.coord = coord
        else:
            system = build_system(ns, case.cfg)
            WorkloadDriver(system, case.spec).start()
            t_ready = time.perf_counter()
            if on_ready is not None:
                on_ready()
            system.run_until(case.until)
            t_end = time.perf_counter()
            run = system
    rep.ns_s = t1 - t0
    rep.cluster_s = t_ready - t1
    rep.setup_s = t_ready - t0
    rep.run_s = t_end - t_ready
    rep.run, rep.ns = run, ns
    rep.latencies = lat
    rep.summary = run_summary(run)
    rep.fingerprint = digest_of(run)
    return rep


def time_setup(case: SimCase) -> float:
    """Seconds to build the serial system and arm its workload."""
    gc.collect()  # as in run_rep
    t0 = time.perf_counter()
    system = build_system(balanced_tree(levels=case.levels), case.cfg)
    WorkloadDriver(system, case.spec).start()
    return time.perf_counter() - t0


def peak_rss_mb(case: SimCase) -> float:
    """This process's peak RSS plus, when sharded, both shard workers'
    (each charged the largest child peak -- the workers are symmetric)."""
    mb = harness.vm_hwm_mb()
    if case.sharded:
        mb += 2 * harness.children_max_rss_mb()
    return mb


def outcome(rep: Rep) -> Dict[str, float]:
    """The simulated outcomes (identical for any pure speed-up)."""
    s = rep.summary
    lat = sorted(rep.latencies)
    inj = s["injected"]
    return {
        "sim_drop_frac": s["dropped"] / inj,
        "sim_latency_p50_ms": 1e3 * harness.quantile(lat, 0.5),
        "sim_latency_p90_ms": 1e3 * harness.quantile(lat, 0.9),
        "sim_latency_p99_ms": 1e3 * harness.p99(lat),
        "sim_ctrl_msgs_per_lookup": s["control_messages"] / inj,
    }


def check_rep(rep: Rep, first: Optional[Rep]) -> List[str]:
    """Output checks for one repetition; returns failure reasons."""
    errs = []
    if rep.unaccounted:
        errs.append(f"{rep.unaccounted} lookups neither completed nor "
                    "dropped after the drain")
    if len(rep.latencies) != int(rep.summary["completed"]):
        errs.append("latency tap saw a different completion count")
    if first is not None and rep.fingerprint != first.fingerprint:
        errs.append(f"fingerprint {rep.fingerprint} != first repetition's "
                    f"{first.fingerprint}: the run is not deterministic")
    return errs


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: repetitions until ``seconds`` are spent."""
    case = SimCase(name, seed)
    reps: List[Rep] = []
    errors: List[str] = []
    start = time.perf_counter()
    while True:
        rep = run_rep(case)
        errors += check_rep(rep, reps[0] if reps else None)
        # keep only the first repetition's objects alive
        if reps:
            rep.run = rep.ns = rep.coord = None
            rep.latencies = []
        reps.append(rep)
        elapsed = time.perf_counter() - start
        last = rep.setup_s + rep.run_s
        if len(reps) >= MIN_REPS and elapsed + last > seconds:
            break
    setups = [r.setup_s for r in reps]
    if not case.sharded:
        # building the serial system takes tens of milliseconds; more
        # set-ups (without runs) steady the median cheaply
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(case))
    first = reps[0]
    out = outcome(first)
    e2e = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": peak_rss_mb(case),
        "lookups_per_s": harness.median(
            [r.injected / r.run_s for r in reps]
        ),
        "latency_p50_ms": out["sim_latency_p50_ms"],
    }
    attempted = sum(r.injected for r in reps)
    failed = sum(r.unaccounted for r in reps)
    table = dict(e2e)
    table.update(out)
    table["failed_frac"] = failed / attempted
    return {
        "e2e": e2e, "table": table, "attempted": attempted,
        "failed": failed, "errors": errors,
        "notes": {
            "reps": len(reps), "fingerprint": first.fingerprint,
            "lookups_per_rep": first.injected,
            "run_s": [round(r.run_s, 3) for r in reps],
            "setup_s": [round(x, 3) for x in setups],
        },
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def _peers_of(systems: List[Any]) -> List[Any]:
    peers: List[Any] = []
    for system in systems:
        local = getattr(system, "local_peers", None)
        peers.extend(local if local is not None else system.peers)
    return peers


def _protocol_counters(peers: List[Any], digest_probes: int) -> Dict[str, float]:
    decisions: Dict[str, int] = {}
    sessions = aborted = 0
    for p in peers:
        for k, v in p.router.decisions.items():
            decisions[k] = decisions.get(k, 0) + v
        sessions += p.repl.n_sessions
        aborted += p.repl.n_sessions_aborted
    out = harness.decision_mix(decisions)
    out["core.repl_sessions"] = float(sessions)
    out["core.repl_abort_frac"] = aborted / sessions if sessions else 0.0
    out["filters.digest_hit_frac"] = (
        decisions.get("digest", 0) / digest_probes if digest_probes else 0.0
    )
    return out


def traced(name: str, seed: int, root: str) -> Dict[str, Any]:
    """One untraced and one traced repetition -> per-layer metrics.

    The sharded workload's untraced repetition runs on the process
    backend (source of the ``shard.*`` counters); its traced one runs
    the same shards inline with the codec on, because profiled engines
    must live in this process.  Both must agree on the fingerprint.
    """
    from tracing import SIM_TARGETS, Tracer

    case = SimCase(name, seed)
    base = run_rep(case)
    errors = check_rep(base, None)
    # the overhead baseline must run the same backend as the traced rep
    plain = run_rep(case, backend="inline") if case.sharded else base
    # every system the traced repetition builds (the serial one, or the
    # inline shards) registers with the profiler through the builder
    systems: List[Any] = []
    orig_note = builder.note_system

    def note_system(system: Any) -> None:
        systems.append(system)
        orig_note(system)

    tracer = Tracer(SIM_TARGETS)
    profile.enable()
    profile.reset()
    builder.note_system = note_system  # type: ignore[assignment]
    try:
        with tracer:
            # spans from building the system are set-up, not run phase
            rep = run_rep(case, backend="inline", on_ready=tracer.reset)
        engines = profile.engines()
    finally:
        builder.note_system = orig_note  # type: ignore[assignment]
        profile.disable()
        profile.reset()
    errors += check_rep(rep, base)
    if plain is not base:
        errors += check_rep(plain, base)
    n_spans = tracer.write_spans(
        f"{harness.out_dir(root)}/spans-{name}-{seed}.jsonl"
    )

    run = base.run
    s = base.summary
    inj = s["injected"]
    msgs = run.transport.n_sent + run.transport.n_control_sent
    events = run.engine.n_dispatched
    layers = tracer.layer_self(engines)
    split = tracer.engine_split(engines)
    attributed = sum(layers.values())
    peers = _peers_of(systems)
    proto = _protocol_counters(peers, tracer.calls("filters.digest_shortcut"))
    stats = rep.run.stats
    forwards = sum(stats.route_sources.values())

    m: Dict[str, float] = {
        "namespace.build_s": base.ns_s,
        "namespace.bytes": float(deep_sizeof(base.ns)),
        "cluster.build_s": base.cluster_s,
        "cluster.maintenance_s": tracer.self_s("cluster.maintenance"),
        "workload.arrivals_s": tracer.self_s("workload.arrivals"),
        "sim.events": float(events),
        "sim.events_per_msg": events / msgs,
        "sim.loop_s": split["sim.loop"],
        "net.drains_per_msg": tracer.calls("net.drain") / msgs,
        "net.drain_s": tracer.self_s("net.drain"),
        "net.query_msgs_per_lookup": run.transport.n_sent / inj,
        "net.lost": float(run.transport.n_lost),
        "server.service_s": tracer.self_s(
            "server.service", "server.deliver", "server.inject",
            "server.softstate",
        ),
        "server.msgs_processed": float(sum(p.n_processed for p in peers)),
        "server.queue_drops": float(sum(p.n_queue_drops for p in peers)),
        "server.utilization_mean": s["utilization_mean"],
        "server.load_max": max(stats.loads.maxima(), default=0.0),
        "server.cache_s": tracer.self_s("server.cache"),
        "core.routing_s": tracer.self_s(
            "core.process", "core.decide", "core.response", "core.maps",
        ),
        "core.decide_us": tracer.mean_us("core.decide"),
        "core.nsindex_s": tracer.self_s("core.nsindex"),
        "core.replicas_installed": float(sum(stats.level_replicas)),
        "core.replicas_evicted": float(sum(stats.level_evictions)),
        "core.replication_s": tracer.self_s("core.replication"),
        "core.stale_hop_frac": stats.n_stale_hops / forwards if forwards else 0.0,
        "filters.digest_shortcut_s": tracer.self_s("filters.digest_shortcut"),
        "filters.bloom_tests": float(tracer.calls("filters.bloom")),
        "trace.overhead_frac": 1.0 - plain.run_s / rep.run_s,
        "trace.attributed_frac": attributed / rep.run_s,
        "trace.spans": float(n_spans),
    }
    m.update(proto)
    dp = base.coord.data_plane if base.coord is not None else {}
    if dp:
        planned = dp["n_barriers"] + dp["n_coalesced"]
        m.update({
            "shard.barriers": float(dp["n_barriers"]),
            "shard.coalesced_frac": dp["n_coalesced"] / planned,
            "shard.barrier_wait_s": dp["barrier_wait_s"],
            "shard.imbalance": _imbalance(run),
            "shardcodec.bytes_per_msg": dp["bytes_exchanged"] / msgs,
            "shardcodec.encode_s": dp["encode_s"],
            "shardcodec.decode_s": dp["decode_s"],
        })
    for layer, sec in layers.items():
        m[f"self_s.{layer}"] = sec
    m["self_s.unattributed"] = rep.run_s - attributed
    runs = [base, rep] + ([plain] if plain is not base else [])
    return {"per_layer": m, "errors": errors,
            "attempted": sum(r.injected for r in runs),
            "failed": sum(r.unaccounted for r in runs),
            "notes": {"fingerprint": base.fingerprint,
                      "traced_fingerprint": rep.fingerprint,
                      "spans_written": n_spans,
                      "top_self_s": tracer.top(8)}}


def _imbalance(run: Any) -> float:
    """Busiest shard's processed messages over the mean shard's."""
    per = run.processed_by_sid
    loads = [0, 0]
    for sid, n in enumerate(per):
        loads[shard_of_sid(sid, len(per), 2)] += n
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean else 0.0
