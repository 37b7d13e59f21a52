"""Measurement rules shared by every workload of the end-to-end benchmark.

Pure functions only (no imports from ``repro``), so the self-tests in
``test_harness.py`` exercise them without building a system:

* :func:`tail_percentile` -- the reporting rule for timings: the median
  plus the highest percentile that still has at least ten samples
  beyond it, with the sample count;
* :class:`LookupLedger` -- failure and generator-lateness accounting for
  an open-loop rung (a failed lookup counts as missing every latency
  limit);
* :func:`backlog_growing` / :func:`rung_verdict` -- when a rung is valid
  and when it meets the SLO;
* :func:`search_max_rate` -- the ladder's highest-passing-rate search;
* :func:`load_contract` / :func:`check_metrics` -- metric-name
  validation against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import resource
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: percentiles the tail rule may pick from, highest first
TAIL_LADDER: Tuple[float, ...] = (0.9999, 0.999, 0.99, 0.9)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10

#: live SLO: p99 latency limit and failure share
SLO_P99_S = 0.050
SLO_FAILED_FRAC = 0.01
#: a rung whose generator ran later than this (p99) is invalid: its
#: sends bunched up, so the offered load was not the stated Poisson rate
GEN_LATE_LIMIT_S = 0.005

INF = float("inf")


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

def quantile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (``q`` in (0, 1])."""
    n = len(sorted_vals)
    if n == 0:
        raise ValueError("quantile of no samples")
    return sorted_vals[_rank(q, n) - 1]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples
    (tolerant of float error: 0.999 * 10000 must be rank 9990)."""
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def tail_percentile(values: Iterable[float]) -> Dict[str, float]:
    """Median, the highest supported tail percentile, and the count.

    The tail is the highest percentile in :data:`TAIL_LADDER` with at
    least :data:`TAIL_MIN_BEYOND` samples strictly beyond its rank; with
    fewer than ten samples beyond even p90 there is no tail
    (``tail_q`` is 0).
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": float(n), "p50": quantile(vals, 0.5), "tail_q": 0.0,
           "tail": float("nan")}
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= TAIL_MIN_BEYOND:
            out["tail_q"] = q
            out["tail"] = quantile(vals, q)
            break
    return out


def p99(values: Iterable[float]) -> float:
    """p99 under the tail rule; raises when the sample cannot support it."""
    vals = sorted(values)
    t = tail_percentile(vals)
    if t["tail_q"] < 0.99:
        raise ValueError(
            f"{int(t['n'])} samples cannot support p99 "
            f"(need >= {TAIL_MIN_BEYOND} beyond it)"
        )
    return quantile(vals, 0.99)


def median(values: Sequence[float]) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


# ----------------------------------------------------------------------
# open-loop accounting
# ----------------------------------------------------------------------

class LookupLedger:
    """Per-rung outcome of an open-loop lookup stream.

    Every lookup is timed from its *scheduled* send time, so a
    generator stall is charged to the lookups it delayed.  A lookup
    that times out, comes back ``ok=False`` or names the wrong node or
    host map is a failure, and enters the latency sample as +inf: a
    failed request misses every latency limit.
    """

    __slots__ = ("latencies", "lateness", "n_sent", "n_ok", "n_failed",
                 "n_wrong", "backlog")

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.n_sent = 0
        self.n_ok = 0
        self.n_failed = 0
        #: failures that were answers naming the wrong node or hosts
        self.n_wrong = 0
        #: in-flight count sampled at a fixed period over the rung
        self.backlog: List[int] = []

    def sent(self, late_s: float) -> None:
        self.n_sent += 1
        self.lateness.append(late_s if late_s > 0.0 else 0.0)

    def ok(self, latency_s: float) -> None:
        self.n_ok += 1
        self.latencies.append(latency_s)

    def failed(self, wrong: bool = False) -> None:
        self.n_failed += 1
        self.n_wrong += wrong
        self.latencies.append(INF)

    @property
    def n_done(self) -> int:
        return self.n_ok + self.n_failed

    def failed_frac(self) -> float:
        return self.n_failed / self.n_sent if self.n_sent else 0.0

    def gen_late_p99(self) -> float:
        return quantile(sorted(self.lateness), 0.99) if self.lateness else 0.0


def backlog_growing(samples: Sequence[int], floor: int = 10) -> bool:
    """True when the in-flight count trends up across the rung.

    Compares the mean of the last quarter of the samples with the mean
    of the second quarter (the first is start-up transient).  Growth
    below ``floor`` lookups is noise at any rate this benchmark offers.
    """
    n = len(samples)
    if n < 8:
        return False
    q = n // 4
    early = sum(samples[q:2 * q]) / q
    late = sum(samples[n - q:]) / q
    return late > 2.0 * early + floor


def rung_verdict(ledger: LookupLedger) -> Dict[str, object]:
    """Validity and SLO outcome of one rung.

    ``valid`` is False when the generator itself ran late (p99 over
    :data:`GEN_LATE_LIMIT_S`) -- then neither the latency nor the SLO
    outcome describe the offered rate.  ``meets_slo`` requires p99 at
    or under the limit, failures at or under the limit, and no growing
    backlog.
    """
    valid = ledger.gen_late_p99() <= GEN_LATE_LIMIT_S
    growing = backlog_growing(ledger.backlog)
    lat = sorted(ledger.latencies)
    tail = tail_percentile(lat) if lat else {"tail_q": 0.0}
    supported = tail["tail_q"] >= 0.99
    lat_p99 = quantile(lat, 0.99) if supported else INF
    meets = (
        supported
        and lat_p99 <= SLO_P99_S
        and ledger.failed_frac() <= SLO_FAILED_FRAC
        and not growing
    )
    return {"valid": valid, "meets_slo": meets, "growing": growing,
            "p99_s": lat_p99, "supported": supported}


# ----------------------------------------------------------------------
# the ladder's max-rate search
# ----------------------------------------------------------------------

def next_probe(
    start: float,
    start_ok: bool,
    trail: Sequence[Tuple[float, bool]],
    grow: float = 1.5,
    floor: float = 50.0,
) -> Optional[float]:
    """The next rate to probe, given every probe made so far.

    ``start`` is a rate already measured (``start_ok`` its outcome).
    From a pass the search grows the rate geometrically until a probe
    fails, from a fail it shrinks it until one passes; then it bisects
    between the best pass and the lowest fail above it.  None when
    shrinking would go under ``floor``.
    """
    passes = [r for r, ok in trail if ok] + ([start] if start_ok else [])
    lo = max(passes) if passes else None
    fails = [r for r, ok in trail if not ok] + ([] if start_ok else [start])
    above = [r for r in fails if lo is None or r > lo]
    hi = min(above) if above else None
    if lo is not None and hi is not None:
        return 0.5 * (lo + hi)
    if lo is not None:
        return lo * grow
    assert hi is not None
    rate = hi / grow
    return rate if rate >= floor else None


def search_max_rate(
    probe: Callable[[float], bool],
    start: float,
    start_ok: bool,
    budget: Callable[[], bool],
) -> Tuple[float, List[Tuple[float, bool]]]:
    """Probe :func:`next_probe`'s rates while ``budget()`` allows.

    Returns the highest passing rate (``start`` counts when
    ``start_ok``; 0.0 when nothing passed) and every probe made, in
    order.
    """
    trail: List[Tuple[float, bool]] = []
    while budget():
        rate = next_probe(start, start_ok, trail)
        if rate is None:
            break
        trail.append((rate, probe(rate)))
    passes = [r for r, ok in trail if ok] + ([start] if start_ok else [])
    return (max(passes) if passes else 0.0), trail


# ----------------------------------------------------------------------
# routing decision mix
# ----------------------------------------------------------------------

DECISION_CLASSES = ("direct", "struct", "cache", "digest", "resolved", "fail")


def decision_mix(decisions: Dict[str, int]) -> Dict[str, float]:
    """Routing decisions as shares of all decisions, plus the cache's
    share of *forwarding* decisions.

    The LRU's own hit counter only sees ``get()``, which routing calls
    after a ``peek`` has already hit, so ``server.cache_hit_frac`` is
    the share of forwards (decisions that were neither resolved nor
    failed) that the cache won.
    """
    total = sum(decisions.values())
    forwards = total - decisions.get("resolved", 0) - decisions.get("fail", 0)
    out = {f"core.decisions.{k}": decisions.get(k, 0) / total if total else 0.0
           for k in DECISION_CLASSES}
    out["server.cache_hit_frac"] = (
        decisions.get("cache", 0) / forwards if forwards else 0.0)
    return out


# ----------------------------------------------------------------------
# BENCHMARK.json contract
# ----------------------------------------------------------------------

def load_contract(path: str) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def check_metrics(
    contract: Dict[str, object], metrics: Dict[str, Dict[str, object]],
    trace: bool,
) -> None:
    """Raise ValueError unless ``metrics`` is exactly the contract's set.

    Trace runs report the ``per_layer`` list, untraced runs the
    ``end_to_end`` list; names, units and finiteness must all match.
    """
    wanted = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}  # type: ignore[index]
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing={missing} "
                         f"extra={extra}")
    for name, m in metrics.items():
        if m["unit"] != units[name]:
            raise ValueError(f"{name}: unit {m['unit']!r}, contract "
                             f"says {units[name]!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name}: value {v!r} is not a finite number")
        if not trace and v == 0:
            raise ValueError(f"{name}: end-to-end metric reads 0")


def workload_names(contract: Dict[str, object]) -> List[str]:
    return [w["name"] for w in contract["workloads"]]  # type: ignore[index]


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------

def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak RSS (VmHWM) of a live process in MiB, from /proc."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM in {path}")


def children_max_rss_mb() -> float:
    """Largest peak RSS among this process's reaped children, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def out_dir(root: str) -> str:
    """The benchmark's scratch directory inside the checkout."""
    d = os.path.join(root, ".perfbench_out")
    os.makedirs(d, exist_ok=True)
    return d
