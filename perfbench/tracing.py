"""Span tracing from the benchmark's side of each layer boundary.

A :class:`Tracer` replaces chosen public entry points of the program
(class methods and module functions) with thin wrappers for the length
of a traced run and restores them afterwards; the program's own files
never change.  Each wrapper records a span -- name, start, end, parent
span name and lookup id (``qid`` for simulated and live peer
messages, ``cqid`` for client frames) -- and folds it into per-name
totals: call count, total time and *self* time (duration minus the part
covered by child spans).

Every span name belongs to a layer, the first dotted component mapped
through :data:`LAYER_OF_PREFIX` (``shard``/``shardcodec`` belong to
``sim``, ``frame`` to ``net``).  Engine dispatch is attributed with
:func:`repro.sim.profile.enable`: a span around ``ProfiledEngine.run``
/ ``run_window`` has as self time the loop itself plus every handler
that is not wrapped, and :meth:`Tracer.engine_split` moves those
handlers' time to their layers by qualified name.

Wrappers must be installed *before* the system is built: constructors
bind some methods once (``rt.send``, the transport's delivery
endpoints), and those bindings capture whatever the class held then.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: span-name prefix -> layer
LAYER_OF_PREFIX = {
    "namespace": "namespace", "cluster": "cluster", "workload": "workload",
    "sim": "sim", "shard": "sim", "shardcodec": "sim", "net": "net",
    "frame": "net", "server": "server", "core": "core",
    "filters": "filters", "runtime": "runtime",
}
LAYERS = ("namespace", "cluster", "workload", "sim", "net", "server",
          "core", "filters", "runtime")

#: spans kept verbatim (the per-name totals cover every call)
SPAN_CAP = 200_000


def _msg_qid(args: Sequence[Any]) -> Optional[int]:
    """Lookup id of the message argument of ``method(self, msg, ...)``."""
    if len(args) > 1:
        return getattr(args[1], "qid", None)
    return None


def _client_cqid(args: Sequence[Any]) -> Optional[int]:
    """``LiveService.handle_client(self, sid, msg, writer)`` -> cqid."""
    if len(args) > 2:
        return getattr(args[2], "cqid", None)
    return None


# (module, owner attribute or None for a module function, attribute,
#  span name, lookup-id extractor)
Target = Tuple[str, Optional[str], str, str, Optional[Callable]]

PEER_TARGETS: List[Target] = [
    ("repro.server.peer", "Peer", "_finish_service", "server.service", _msg_qid),
    ("repro.server.peer", "Peer", "deliver", "server.deliver", _msg_qid),
    ("repro.server.peer", "Peer", "inject", "server.inject", None),
    ("repro.server.peer", "Peer", "merge_map", "server.softstate", None),
    ("repro.server.softstate", "SoftStateAbsorber", "absorb_query",
     "server.softstate", _msg_qid),
    ("repro.server.softstate", "SoftStateAbsorber", "absorb_response",
     "server.softstate", _msg_qid),
    ("repro.server.softstate", "SoftStateAbsorber", "absorb_advert",
     "server.softstate", None),
    # peek/touch/remove are a dict probe each: a span would cost more
    # than the call, so their time stays with the caller
    ("repro.server.cache", "LRUCache", "get", "server.cache", None),
    ("repro.server.cache", "LRUCache", "put", "server.cache", None),
    ("repro.server.routing_core", "RoutingCore", "process", "core.process",
     _msg_qid),
    ("repro.server.routing_core", "RoutingCore", "on_response",
     "core.response", _msg_qid),
    ("repro.server.routing_core", None, "merge_maps", "core.maps", None),
    ("repro.core.routing", None, "decide", "core.decide", None),
    ("repro.core.routing", None, "digest_shortcut",
     "filters.digest_shortcut", None),
    ("repro.core.nsindex", "AncestorIndex", "closest", "core.nsindex", None),
    ("repro.filters.bloom", "BloomFilter", "_positions", "filters.bloom",
     None),
    ("repro.core.replication", "ReplicationManager", "maybe_trigger",
     "core.replication", None),
    ("repro.core.replication", "ReplicationManager", "on_probe",
     "core.replication", None),
    ("repro.core.replication", "ReplicationManager", "on_probe_reply",
     "core.replication", None),
    ("repro.core.replication", "ReplicationManager", "on_transfer",
     "core.replication", None),
    ("repro.core.replication", "ReplicationManager", "on_ack",
     "core.replication", None),
    ("repro.core.replication", "ReplicationManager", "_on_session_timeout",
     "core.replication", None),
]

SIM_TARGETS: List[Target] = PEER_TARGETS + [
    ("repro.sim.profile", "ProfiledEngine", "run", "sim.engine", None),
    ("repro.sim.profile", "ProfiledEngine", "run_window", "sim.engine", None),
    ("repro.sim.shard", "WindowedCoordinator", "run", "shard.coordinator",
     None),
    ("repro.sim.shard", "ShardRunner", "step_packed", "shard.step", None),
    ("repro.sim.shard", "ShardRunner", "finish", "shard.finish", None),
    ("repro.sim.shard", None, "encode_batch", "shardcodec.encode", None),
    ("repro.sim.shard", None, "decode_batch", "shardcodec.decode", None),
    ("repro.sim.shard", None, "replay_stats", "sim.stats_replay", None),
    ("repro.net.transport", "Transport", "_drain", "net.drain", None),
    ("repro.net.transport", "ShardTransport", "_drain", "net.drain", None),
    ("repro.net.transport", "Transport", "send", "net.send", None),
    ("repro.net.transport", "ShardTransport", "send", "net.send", None),
    ("repro.net.transport", "ShardTransport", "ingest", "net.ingest", None),
    ("repro.cluster.system", "System", "_tick_windows",
     "cluster.maintenance", None),
    ("repro.cluster.system", "System", "_tick_ranking",
     "cluster.maintenance", None),
    ("repro.cluster.system", "ShardSystem", "_tick_windows",
     "cluster.maintenance", None),
    ("repro.cluster.system", "ShardSystem", "_tick_ranking",
     "cluster.maintenance", None),
    ("repro.workload.arrivals", "WorkloadDriver", "_arrival",
     "workload.arrivals", None),
    ("repro.cluster.system", "ShardSystem", "_next_arrival",
     "workload.arrivals", None),
]

LIVE_TARGETS: List[Target] = PEER_TARGETS + [
    ("repro.runtime.async_service", "LiveService", "handle_client",
     "runtime.handle_client", _client_cqid),
    ("repro.runtime.async_service", "LiveSystem", "_tick_windows",
     "cluster.maintenance", None),
    ("repro.runtime.async_service", "LiveSystem", "_tick_ranking",
     "cluster.maintenance", None),
    ("repro.runtime.async_wire", "AsyncWire", "send", "runtime.wire_send",
     None),
    ("repro.runtime.async_wire", None, "encode_frame", "frame.encode", None),
    ("repro.runtime.async_wire", None, "decode_message", "frame.decode",
     None),
    ("repro.runtime.async_service", None, "encode_frame", "frame.encode",
     None),
]

#: engine handlers left unwrapped, attributed by qualified-name prefix
HANDLER_LAYER = (
    ("TimerWheel.", "sim"),
    ("ReplicationManager.", "core"),
    ("Peer.", "server"),
    ("Transport.", "net"),
    ("ShardTransport.", "net"),
    ("System.", "cluster"),
    ("ShardSystem.", "cluster"),
    ("WorkloadDriver.", "workload"),
)


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Tracer:
    """Install span wrappers, collect totals and spans, restore."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self.targets = list(targets)
        #: span name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (name, start, end, parent name, lookup id), first SPAN_CAP
        self.spans: List[Tuple[str, float, float, Optional[str], Any]] = []
        self.wrapped_qualnames: set = set()
        self._stack: List[List[Any]] = []  # open spans, innermost last
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              lid_of: Optional[Callable]) -> Callable:
        stack = self._stack
        spans = self.spans
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            lid = lid_of(args) if lid_of is not None else None
            parent = stack[-1] if stack else None
            if lid is None and parent is not None:
                lid = parent[2]
            frame = [name, 0.0, lid, clock()]  # name, child s, lid, start
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - frame[3]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((name, frame[3], t1,
                                  parent[0] if parent else None, lid))

        return span

    def install(self) -> "Tracer":
        for module, owner, attr, name, lid_of in self.targets:
            mod = importlib.import_module(module)
            holder = getattr(mod, owner) if owner else mod
            # class attributes only: a subclass inheriting the method
            # is covered by its base's wrapper
            if owner and attr not in vars(holder):
                continue
            orig = getattr(holder, attr)
            self._saved.append((holder, attr, orig))
            setattr(holder, attr, self._wrap(orig, name, lid_of))
            qual = getattr(orig, "__qualname__", None)
            if qual:
                self.wrapped_qualnames.add(qual)
        return self

    def restore(self) -> None:
        for holder, attr, orig in reversed(self._saved):
            setattr(holder, attr, orig)
        self._saved.clear()

    def reset(self) -> None:
        """Forget every span recorded so far (wrappers stay installed).

        Spans still open restart now, so time before the reset is
        charged to nobody.
        """
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0]
        self.spans.clear()
        now = time.perf_counter()
        for frame in self._stack:
            frame[1] = 0.0
            frame[3] = now

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def mean_us(self, name: str) -> float:
        n, total, _ = self.totals.get(name, (0, 0.0, 0.0))
        return 1e6 * total / n if n else 0.0

    def top(self, n: int) -> str:
        """The ``n`` span names with the most self time, as text."""
        rows = sorted(self.totals.items(), key=lambda kv: -kv[1][2])[:n]
        return "".join(
            f"\n    {name:<26} {int(c):>9} calls {s:8.3f} s self"
            for name, (c, _t, s) in rows
        )

    def engine_split(self, engines: Sequence[Any]) -> Dict[str, float]:
        """Split the ``sim.engine`` spans' self time into layers.

        Unwrapped handlers' dispatch time (from each ProfiledEngine's
        per-qualname table) goes to the handler's layer; what remains
        is the engine loop itself (``sim.loop``).
        """
        out: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        moved = 0.0
        for eng in engines:
            for qual, (_cnt, sec) in sorted(eng.profile.items()):
                if qual in self.wrapped_qualnames:
                    continue
                for prefix, layer in HANDLER_LAYER:
                    if qual.startswith(prefix):
                        out[layer] += sec
                        moved += sec
                        break
        out["sim.loop"] = self.self_s("sim.engine") - moved
        return out

    def layer_self(self, engines: Sequence[Any]) -> Dict[str, float]:
        """Self seconds per layer over every span plus engine dispatch."""
        split = self.engine_split(engines)
        out = {layer: split[layer] for layer in LAYERS}
        for name, (_n, _total, self_s) in sorted(self.totals.items()):
            if name == "sim.engine":
                continue
            out[layer_of(name)] += self_s
        out["sim"] += split["sim.loop"]
        return out

    def write_spans(self, path: str) -> int:
        with open(path, "w") as fh:
            for name, t0, t1, parent, lid in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": t0, "end": t1,
                     "parent": parent, "lookup": lid}
                ) + "\n")
        return len(self.spans)
