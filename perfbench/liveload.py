"""The ``live-lookup`` workload: open-loop lookups against a live cluster.

This process is the load generator.  It starts ``live_server.py`` (16
peers over unix-domain sockets, one asyncio loop), opens two client
connections to two gateway peers, and offers an open-loop Poisson
stream of lookups -- independent users, so the schedule never waits
for replies -- with Zipf(1.0) destinations from
:class:`~repro.runtime.async_client.SegmentSampler`.

The offered rate steps through a ladder: a short warm-up, the two
report rates (400/s and 1,000/s), then a search for the highest rate
whose p99 stays at or under 50 ms with at most 1% failures and no
growing backlog.  Every lookup is timed from its *scheduled* send time;
each rung records how late the generator ran and the in-flight backlog,
and a rung whose generator ran late is re-run, then reported invalid.

A reply is correct when it is ``ok``, names the requested node, and its
host map is not empty.  Every server a host map names must be the
node's owner (rebuilt here from the same seed through the public
builder) or a server that held a replica of the node during the run,
by the server process's record of replica installs; a map may leave
the owner out, since maps hold at most ``rmap`` entries and fresh
replicas take precedence (paper section 3.7).  Timeouts, ``ok=False``
replies and wrong answers are failures; a map naming a server that
never hosted the node fails the run's correctness check.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import harness
import live_server
from tracing import layer_of

from repro.cluster.builder import build_system
from repro.namespace.generators import balanced_tree
from repro.net.frame import FrameReader, decode_message, encode_frame
from repro.net.message import ClientLookup
from repro.runtime.async_client import SegmentSampler
from repro.runtime.async_wire import uds_addresses
from repro.workload.streams import uzipf_stream

GATEWAYS = (0, 8)
REPORT_RATES = (400.0, 1000.0)
WARMUP = (400.0, 1.0)  # rate, seconds
REPORT_S = {400.0: 14.0, 1000.0: 8.0}
PROBE_S = 2.0
CLIENT_TIMEOUT = 2.0
BACKLOG_PERIOD = 0.02
SETUPS = 5
RUNG_RETRIES = 2


class Server:
    """One ``live_server.py`` child process and its control pipe."""

    def __init__(self, root: str, sock_dir: str, seed: int,
                 trace: bool) -> None:
        cmd = [sys.executable, os.path.join(root, "perfbench",
                                            "live_server.py"),
               "--sock-dir", sock_dir, "--seed", str(seed)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(
            cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
    def wait_ready(self) -> None:
        self._line("READY ")

    def _line(self, tag: str) -> str:
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"live server exited (code {self.proc.wait()}) "
                    f"before {tag.strip()}"
                )
            if line.startswith(tag):
                return line[len(tag):]

    def send(self, text: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def stop(self) -> Dict[str, Any]:
        self.send("STOP")
        stats = json.loads(self._line("STATS "))
        self.proc.wait(timeout=30)
        return stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Generator:
    """Open-loop lookup generator over two gateway connections.

    A sender thread sleeps (``time.sleep``, which releases the
    interpreter lock) until each scheduled send time and writes the
    frame; one receiver thread per connection blocks in ``recv`` and
    stamps each reply as it arrives.  An asyncio loop would add its
    own timer slack to every send -- measured at several milliseconds
    p99 on a 2-vCPU host, enough to dominate the p99 it is measuring.
    """

    def __init__(self, owner: List[int], n_nodes: int, seed: int) -> None:
        self.owner = owner
        self.n_nodes = n_nodes
        self.seed = seed
        self.socks: List[socket.socket] = []
        self.readers: List[threading.Thread] = []
        #: cqid -> (scheduled send time, node, ledger)
        self.pending: Dict[int, Tuple[float, int, harness.LookupLedger]] = {}
        self.lock = threading.Lock()
        #: node -> servers other than its owner named in reply host maps
        self.named: Dict[int, Set[int]] = {}
        self.cqid = 0
        self.n_rungs = 0
        # the popularity ranking is part of the workload definition and
        # fixed; the seed drives which destinations are drawn
        spec = uzipf_stream(1.0, 1.0, 1.0, seed=live_server.CLUSTER_SEED)
        self.sampler = SegmentSampler(
            spec, n_nodes, random.Random(live_server.CLUSTER_SEED))
        self.sampler.rng = random.Random(seed)

    def connect(self, sock_dir: str) -> None:
        addrs = uds_addresses(sock_dir, live_server.N_PEERS)
        for sid in GATEWAYS:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(addrs[sid][1])
            self.socks.append(sock)
            reader = threading.Thread(target=self._read, args=(sock,),
                                      daemon=True)
            reader.start()
            self.readers.append(reader)

    def close(self) -> None:
        for sock in self.socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the server already closed its end
            sock.close()
        for reader in self.readers:
            reader.join(timeout=5)
        self.socks, self.readers = [], []

    def _read(self, sock: socket.socket) -> None:
        frames = FrameReader()
        clock = time.perf_counter
        while True:
            try:
                data = sock.recv(65536)
            except OSError:
                return
            if not data:
                return
            now = clock()
            for payload in frames.feed(data):
                self._on_reply(decode_message(payload), now)

    def _on_reply(self, msg: Any, now: float) -> None:
        with self.lock:
            entry = self.pending.pop(msg.cqid, None)
        if entry is None:
            return  # already counted as a timeout
        due, node, ledger = entry
        if not msg.ok:
            ledger.failed()  # the server's deadline expired
        elif msg.node == node and msg.servers:
            ledger.ok(now - due)
            # a map holds at most rmap entries and may leave the owner
            # out for fresh replicas (paper section 3.7); every other
            # entry is checked against the server's replica record
            extra = [s for s in msg.servers if s != self.owner[node]]
            if extra:
                with self.lock:
                    self.named.setdefault(node, set()).update(extra)
        else:
            ledger.failed(wrong=True)

    def unhosted(self, stats: Dict[str, Any]) -> int:
        """Servers named in a host map that neither own the node nor
        ever held a replica of it, by the server's ``STATS`` record."""
        hosts = stats["replica_hosts"]
        return sum(len(sids.difference(hosts.get(str(node), ())))
                   for node, sids in self.named.items())

    def schedule(self, rate: float, seconds: float) -> List[Tuple[float, int]]:
        """Poisson send offsets and destinations for one rung.

        Gaps are drawn per rung; destinations come from one Zipf(1.0)
        sampler over the whole session, so the hot set stays put and
        every rung after the warm-up meets an adapted cluster.
        """
        self.n_rungs += 1
        rng = random.Random(self.seed * 1_000_003 + self.n_rungs)
        out = []
        t = rng.expovariate(rate)
        while t < seconds:
            out.append((t, self.sampler.dest(0.0)))
            t += rng.expovariate(rate)
        return out

    def _send_all(self, sched: List[Tuple[float, int]],
                  ledger: harness.LookupLedger) -> None:
        clock = time.perf_counter
        t0 = clock() + 0.005
        pending = self.pending
        socks = self.socks
        for i, (offset, node) in enumerate(sched):
            due = t0 + offset
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            frame = encode_frame(ClientLookup(self.cqid + 1, node))
            with self.lock:
                self.cqid += 1
                pending[self.cqid] = (due, node, ledger)
            socks[i % len(socks)].sendall(frame)
            ledger.sent(clock() - due)

    def _in_flight(self, ledger: harness.LookupLedger) -> int:
        with self.lock:
            return sum(1 for e in self.pending.values() if e[2] is ledger)

    def _settle(self, ledger: harness.LookupLedger) -> None:
        """Wait for the rung's replies; what stays unanswered times out."""
        deadline = time.perf_counter() + CLIENT_TIMEOUT
        while self._in_flight(ledger) and time.perf_counter() < deadline:
            time.sleep(0.005)
        with self.lock:
            lost = [c for c, e in self.pending.items() if e[2] is ledger]
            for cqid in lost:
                del self.pending[cqid]
        for _ in lost:
            ledger.failed()

    def first_lookup(self) -> None:
        """One lookup through the first gateway; set-up ends at its reply."""
        ledger = harness.LookupLedger()
        self._send_all([(0.0, 1)], ledger)
        self._settle(ledger)
        if ledger.n_ok != 1:
            raise RuntimeError("first live lookup failed")

    def rung(self, rate: float, seconds: float) -> harness.LookupLedger:
        """Offer ``rate`` lookups/s for ``seconds``; sample the backlog."""
        ledger = harness.LookupLedger()
        sender = threading.Thread(
            target=self._send_all, args=(self.schedule(rate, seconds), ledger))
        gc.disable()  # the generator's own pauses would land in the tail
        try:
            sender.start()
            while sender.is_alive():
                ledger.backlog.append(self._in_flight(ledger))
                sender.join(BACKLOG_PERIOD)
        finally:
            gc.enable()
        self._settle(ledger)
        return ledger


def _owner() -> Tuple[List[int], int]:
    ns = balanced_tree(levels=live_server.LEVELS)
    system = build_system(ns, live_server.live_config())
    return list(system.owner), len(ns)


def _rung_row(rate: float, seconds: float, ledger: harness.LookupLedger,
             kind: str) -> Dict[str, Any]:
    verdict = harness.rung_verdict(ledger)
    lat = sorted(ledger.latencies)
    return {
        "kind": kind,
        "rate": rate,
        "seconds": seconds,
        "sent": ledger.n_sent,
        "failed": ledger.n_failed,
        "wrong": ledger.n_wrong,
        "p50_ms": 1e3 * harness.quantile(lat, 0.5) if lat else float("inf"),
        "p90_ms": 1e3 * harness.quantile(lat, 0.9) if lat else float("inf"),
        "p99_ms": 1e3 * verdict["p99_s"],
        "gen_late_p99_ms": 1e3 * ledger.gen_late_p99(),
        "backlog_max": max(ledger.backlog, default=0),
        "valid": verdict["valid"],
        "meets_slo": verdict["meets_slo"],
        "growing": verdict["growing"],
    }


class Session:
    """Servers started for one run, all stopped by :meth:`close`."""

    def __init__(self, root: str, seed: int, trace: bool) -> None:
        self.root = root
        self.seed = seed
        self.trace = trace
        self.sock_dir = os.path.join(".perfbench_out", f"uds-{os.getpid()}")
        os.makedirs(os.path.join(root, self.sock_dir), exist_ok=True)
        self.servers: List[Server] = []
        self.gens: List[Generator] = []
        self.owner, self.n_nodes = _owner()

    def start(self) -> Tuple[Server, Generator, float]:
        """Start a server and connect a generator; returns set-up time."""
        t0 = time.perf_counter()
        server = Server(self.root, self.sock_dir, self.seed, self.trace)
        self.servers.append(server)
        server.wait_ready()
        gen = Generator(self.owner, self.n_nodes, self.seed)
        self.gens.append(gen)
        gen.connect(self.sock_dir)
        gen.first_lookup()
        return server, gen, time.perf_counter() - t0

    def close(self) -> None:
        for gen in self.gens:
            gen.close()
        for s in self.servers:
            s.kill()
        shutil.rmtree(os.path.join(self.root, self.sock_dir),
                      ignore_errors=True)


def _measure(seed: int, seconds: float, root: str,
             trace: bool) -> Dict[str, Any]:
    session = Session(root, seed, trace)
    rows: List[Dict[str, Any]] = []
    warnings: List[str] = []
    unhosted = 0
    try:
        setups: List[float] = []
        for i in range(SETUPS):
            server, gen, dt = session.start()
            setups.append(dt)
            if i < SETUPS - 1:
                gen.close()
                unhosted += gen.unhosted(server.stop())
        start = time.perf_counter()
        rows.append(_rung_row(WARMUP[0], WARMUP[1], gen.rung(*WARMUP),
                              "warmup"))
        report: Dict[float, Dict[str, Any]] = {}
        ledgers: Dict[float, harness.LookupLedger] = {}
        for rate in REPORT_RATES:
            row = None
            for _attempt in range(1 + RUNG_RETRIES):
                # the server snapshots CPU and counters around each
                # report rung (capacity, trace overhead, attribution)
                server.send(f"MARK begin{rate:.0f}")
                ledger = gen.rung(rate, REPORT_S[rate])
                server.send(f"MARK end{rate:.0f}")
                attempt = _rung_row(rate, REPORT_S[rate], ledger, "report")
                rows.append(attempt)
                if (row is None or attempt["gen_late_p99_ms"]
                        < row["gen_late_p99_ms"]):
                    row, ledgers[rate] = attempt, ledger
                if attempt["valid"]:
                    break
            if not row["valid"]:
                warnings.append(
                    f"rung {rate:.0f}/s invalid after {1 + RUNG_RETRIES} "
                    f"tries: the generator ran {row['gen_late_p99_ms']:.1f}"
                    " ms late (p99); its figures come from the least-late "
                    "try")
            report[rate] = row

        best_row: Optional[Dict[str, Any]] = None
        if not trace:
            top = report[REPORT_RATES[-1]]
            top_ok = bool(top["valid"] and top["meets_slo"])
            passed = {top["rate"]: top} if top_ok else {}

            def probe(rate: float) -> bool:
                row = _rung_row(rate, PROBE_S, gen.rung(rate, PROBE_S),
                                "probe")
                rows.append(row)
                ok = bool(row["valid"] and row["meets_slo"])
                if ok:
                    passed[rate] = row
                return ok

            def budget() -> bool:
                return time.perf_counter() - start + PROBE_S + 1.0 <= seconds

            best, _trail = harness.search_max_rate(
                probe, top["rate"], top_ok, budget)
            best_row = passed.get(best)
            if best_row is None:
                warnings.append("no offered rate met the SLO")
        gen.close()
        stats = server.stop()
        unhosted += gen.unhosted(stats)
    finally:
        session.close()
    return {"setups": setups, "rows": rows, "report": report,
            "ledgers": ledgers, "best": best_row, "stats": stats,
            "warnings": warnings, "unhosted": unhosted}


def measure(seed: int, seconds: float, root: str) -> Dict[str, Any]:
    res = _measure(seed, seconds, root, trace=False)
    rep, best, stats = res["report"], res["best"], res["stats"]
    attempted, failed = _served(res)
    lo, hi = rep[400.0], rep[1000.0]
    # achieved (not nominal) rate of the highest passing rung
    max_qps = best["sent"] / best["seconds"] if best else 0.0
    peak = stats["peak_rss_mb"] + harness.vm_hwm_mb()
    e2e = {
        "setup_s": harness.median(res["setups"]),
        "peak_rss_mb": peak,
        "lookups_per_s": 1.0 / _cpu_per_lookup(res),
        # at 1,000/s the server runs near 70% of a shared vCPU and its
        # tail swings with host speed (p99 10 to 70 ms across runs); at
        # 400/s the median is steady enough to bound a regression, the
        # tail percentiles stay in the table
        "latency_p50_ms": lo["p50_ms"],
    }
    table = dict(e2e)
    table.update({
        "failed_frac": failed / attempted,
        "p50_ms_at_400": lo["p50_ms"], "p90_ms_at_400": lo["p90_ms"],
        "p99_ms_at_400": lo["p99_ms"],
        "p50_ms_at_1000": hi["p50_ms"], "p99_ms_at_1000": hi["p99_ms"],
        "max_qps_p99_50ms": max_qps,
        "lookups_per_cpu_s_at_1000": e2e["lookups_per_s"],
        "server_gc_full_at_1000": float(
            sum(1 for g, _ in _gc_at_1000(res) if g == 2)),
        "server_gc_max_ms_at_1000": 1e3 * max(
            (d for _, d in _gc_at_1000(res)), default=0.0),
    })
    return {"e2e": e2e, "table": table, "attempted": attempted,
            "failed": failed, "errors": _wrong_answers(res),
            "notes": {"ladder": _ladder_text(res["rows"]),
                      "warnings": res["warnings"],
                      "setup_s": [round(s, 3) for s in res["setups"]],
                      "server": {k: stats[k] for k in (
                          "n_lookups", "n_completed", "n_deadline_failures",
                          "queue_drops", "drop_reasons")}}}


def _wrong_answers(res: Dict[str, Any]) -> List[str]:
    """Correctness failures: replies naming the wrong node or hosts."""
    errors = []
    wrong = sum(r["wrong"] for r in res["rows"])
    if wrong:
        errors.append(f"{wrong} replies named the wrong node or an empty "
                      "host map")
    if res["unhosted"]:
        errors.append(f"host maps named {res['unhosted']} servers that "
                      "never hosted the node")
    return errors


def _served(res: Dict[str, Any]) -> Tuple[int, int]:
    """Lookups attempted and failed outside the capacity search.

    Search probes past the knee shed load by design -- their failures
    are what fails them against the SLO -- so they are listed in the
    ladder table, not counted here.
    """
    rows = [r for r in res["rows"] if r["kind"] != "probe"]
    return (sum(r["sent"] for r in rows) + len(res["setups"]),
            sum(r["failed"] for r in rows))


def _ladder_text(rows: List[Dict[str, Any]]) -> str:
    parts = []
    for r in rows:
        flag = "ok" if r["meets_slo"] else "SLO"
        if not r["valid"]:
            flag = "INVALID"
        if r["kind"] == "warmup":
            flag = "-"
        parts.append(
            f"\n    {r['kind']:<7}{r['rate']:7.1f}/s sent {r['sent']:6d} p50 "
            f"{r['p50_ms']:7.2f} ms p99 {r['p99_ms']:8.2f} ms late99 "
            f"{r['gen_late_p99_ms']:5.2f} ms backlog<= {r['backlog_max']:5d}"
            f" failed {r['failed']:4d} [{flag}]")
    return "".join(parts)


def traced(seed: int, seconds: float, root: str) -> Dict[str, Any]:
    """Per-layer numbers from one traced server over the report rungs."""
    base = _measure(seed, seconds, root, trace=False)
    res = _measure(seed, seconds, root, trace=True)
    stats = res["stats"]
    totals = stats["totals"]
    begin, end = stats["marks"]["begin1000"], stats["marks"]["end1000"]

    def window(name: str) -> Tuple[float, float, float]:
        a = begin["totals"].get(name, [0, 0.0, 0.0])
        b = end["totals"].get(name, [0, 0.0, 0.0])
        return b[0] - a[0], b[1] - a[1], b[2] - a[2]

    def self_s(*names: str) -> float:
        return sum(window(n)[2] for n in names)

    def mean_us(name: str) -> float:
        n, total, _ = window(name)
        return 1e6 * total / n if n else 0.0

    lookups = end["n_lookups"] - begin["n_lookups"]
    cpu = end["cpu_s"] - begin["cpu_s"]
    layers: Dict[str, float] = {}
    for name in sorted(totals):
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + self_s(name)
    attributed = sum(layers.values())
    hi = res["ledgers"][1000.0]
    base_cpu = _cpu_per_lookup(base)
    lags = stats["loop_lag_s"]
    pauses = [d for _, d in _gc_at_1000(res)]
    m: Dict[str, float] = {
        "frame.encode_us": mean_us("frame.encode"),
        "frame.decode_us": mean_us("frame.decode"),
        "frame.bytes_per_lookup": stats["frame_bytes"] / max(1, stats["n_lookups"]),
        "runtime.peer_frames_per_lookup": (end["wire_msgs"] - begin["wire_msgs"])
        / max(1, lookups),
        "runtime.loop_lag_ms": 1e3 * harness.quantile(lags, 0.99) if lags else 0.0,
        "runtime.handle_client_us": mean_us("runtime.handle_client"),
        "runtime.gc_pauses": float(len(pauses)),
        "runtime.gc_pause_max_ms": 1e3 * max(pauses, default=0.0),
        "runtime.deadline_failures": float(stats["n_deadline_failures"]),
        "bench.gen_late_p99_ms": 1e3 * hi.gen_late_p99(),
        "bench.backlog_max": float(max(hi.backlog, default=0)),
        "server.service_s": self_s("server.service", "server.deliver",
                                   "server.inject", "server.softstate"),
        "server.msgs_processed": float(stats["processed"]),
        "server.queue_drops": float(stats["queue_drops"]),
        "server.cache_s": self_s("server.cache"),
        "core.routing_s": self_s("core.process", "core.decide",
                                 "core.response", "core.maps"),
        "core.decide_us": mean_us("core.decide"),
        "core.nsindex_s": self_s("core.nsindex"),
        "core.replication_s": self_s("core.replication"),
        "filters.digest_shortcut_s": self_s("filters.digest_shortcut"),
        "filters.bloom_tests": float(window("filters.bloom")[0]),
        "cluster.maintenance_s": self_s("cluster.maintenance"),
        "namespace.build_s": stats["ready"]["namespace_build_s"],
        "namespace.bytes": float(stats["namespace_bytes"]),
        "cluster.build_s": stats["ready"]["cluster_build_s"],
        "core.repl_sessions": float(stats["repl_sessions"]),
        "core.repl_abort_frac": stats["repl_aborted"]
        / max(1, stats["repl_sessions"]),
        "core.replicas_installed": float(stats["replicas_installed"]),
        "core.replicas_evicted": float(stats["replicas_evicted"]),
        "net.lost": float(stats["wire_lost"]),
        "trace.attributed_frac": attributed / cpu if cpu else 0.0,
        "trace.overhead_frac": 1.0 - base_cpu / (cpu / max(1, lookups)),
        "trace.spans": float(stats["spans_written"]),
    }
    decisions = stats["decisions"]
    m.update(harness.decision_mix(decisions))
    forwards = sum(decisions.values()) - decisions.get(
        "resolved", 0) - decisions.get("fail", 0)
    m["core.stale_hop_frac"] = stats["stale_hops"] / max(1, forwards)
    m["filters.digest_hit_frac"] = decisions.get("digest", 0) / max(
        1, totals.get("filters.digest_shortcut", [0])[0])
    for layer, sec in layers.items():
        m[f"self_s.{layer}"] = sec
    m["self_s.unattributed"] = cpu - attributed
    attempted, failed = _served(base)
    more = _served(res)
    attempted, failed = attempted + more[0], failed + more[1]
    return {"per_layer": m,
            "errors": _wrong_answers(base) + _wrong_answers(res),
            "attempted": attempted, "failed": failed,
            "notes": {"ladder": _ladder_text(res["rows"]),
                      "warnings": base["warnings"] + res["warnings"]}}


def _gc_at_1000(res: Dict[str, Any]) -> List[Tuple[int, float]]:
    """Server collector pauses (generation, seconds) during the
    1,000/s report rung."""
    stats = res["stats"]
    marks = stats["marks"]
    return [tuple(p) for p in stats["gc_pauses_s"][
        marks["begin1000"]["gc_pauses"]:marks["end1000"]["gc_pauses"]]]


def _cpu_per_lookup(res: Dict[str, Any]) -> float:
    """Server CPU seconds per lookup over the 1,000/s report rung."""
    marks = res["stats"]["marks"]
    begin, end = marks["begin1000"], marks["end1000"]
    return (end["cpu_s"] - begin["cpu_s"]) / max(
        1, end["n_lookups"] - begin["n_lookups"])
