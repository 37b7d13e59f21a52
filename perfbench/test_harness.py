"""Self-tests for the benchmark's measurement rules.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_harness.py

They cover the percentile rule, failure and lateness accounting, the
ladder's max-rate search, metric-name validation against
``BENCHMARK.json``, and the span bookkeeping of :mod:`tracing`.  None of
them builds a system, so they take well under a second.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402

CONTRACT = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------

def test_tail_picks_highest_percentile_with_ten_beyond():
    # 1,000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1
    t = harness.tail_percentile(range(1, 1001))
    assert t["n"] == 1000
    assert t["tail_q"] == 0.99
    assert t["tail"] == 990
    assert t["p50"] == 500


def test_tail_falls_back_when_sample_is_short():
    # 999 samples: p99 would leave 9 beyond -> p90 (99 beyond)
    assert harness.tail_percentile(range(999))["tail_q"] == 0.9
    # 10,000 samples support p99.9
    assert harness.tail_percentile(range(10_000))["tail_q"] == 0.999
    # nine samples support no tail at all
    t = harness.tail_percentile(range(9))
    assert t["tail_q"] == 0.0 and math.isnan(t["tail"])


def test_p99_refuses_unsupported_sample():
    with pytest.raises(ValueError, match="cannot support p99"):
        harness.p99(range(500))
    assert harness.p99(range(1, 2001)) == 1980


def test_quantile_and_median():
    assert harness.quantile([1, 2, 3, 4], 0.5) == 2
    assert harness.quantile([5], 0.99) == 5
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        harness.quantile([], 0.5)


# ----------------------------------------------------------------------
# failure and lateness accounting
# ----------------------------------------------------------------------

def test_failed_lookup_misses_every_latency_limit():
    led = harness.LookupLedger()
    for _ in range(1000):
        led.sent(0.0)
        led.ok(0.002)
    for i in range(20):
        led.sent(0.0)
        led.failed(wrong=i < 5)
    assert led.n_done == 1020
    assert led.n_wrong == 5
    assert led.failed_frac() == pytest.approx(20 / 1020)
    v = harness.rung_verdict(led)
    # the 20 failures sit beyond p99 as +inf and push it over the SLO
    assert v["p99_s"] == math.inf
    assert not v["meets_slo"]
    assert v["valid"]


def test_lateness_makes_a_rung_invalid():
    led = harness.LookupLedger()
    for i in range(2000):
        # 2% of sends run 20 ms late: p99 lateness is over the limit
        led.sent(0.020 if i % 50 == 0 else -0.0001)
        led.ok(0.003)
    assert led.lateness[1] == 0.0  # early sends count as on time
    assert led.gen_late_p99() == pytest.approx(0.020)
    v = harness.rung_verdict(led)
    assert not v["valid"]
    assert v["meets_slo"]  # the SLO verdict itself is unaffected


def test_slo_pass_and_unsupported_tail():
    led = harness.LookupLedger()
    for _ in range(1500):
        led.sent(0.0001)
        led.ok(0.004)
    v = harness.rung_verdict(led)
    assert v["valid"] and v["meets_slo"] and v["p99_s"] == 0.004
    short = harness.LookupLedger()
    for _ in range(100):
        short.sent(0.0)
        short.ok(0.001)
    assert not harness.rung_verdict(short)["meets_slo"]


def test_growing_backlog():
    assert not harness.backlog_growing([5] * 40)
    assert harness.backlog_growing([5] * 20 + list(range(5, 205, 10)))
    # small wobble stays under the floor
    assert not harness.backlog_growing([2] * 20 + [9] * 20)
    assert not harness.backlog_growing([1, 100, 1000])  # too few samples
    led = harness.LookupLedger()
    for _ in range(1500):
        led.sent(0.0)
        led.ok(0.004)
    led.backlog = [5] * 20 + list(range(5, 405, 20))
    assert not harness.rung_verdict(led)["meets_slo"]


# ----------------------------------------------------------------------
# max-rate search
# ----------------------------------------------------------------------

def _steps(n):
    """A search budget of ``n`` probes."""
    left = [n]

    def budget():
        left[0] -= 1
        return left[0] >= 0

    return budget


def test_search_grows_then_bisects():
    knee = 1800.0
    best, trail = harness.search_max_rate(lambda r: r <= knee, 1000.0, True,
                                          _steps(8))
    rates = [r for r, _ in trail]
    assert rates[:2] == [1500.0, 2250.0]  # grow by 1.5 until a fail
    assert rates[2] == 1875.0  # then bisect [1500, 2250]
    assert best <= knee
    assert knee - best < 2250.0 / 2 ** 6  # bisection closes in
    assert all(ok == (r <= knee) for r, ok in trail)


def test_search_shrinks_from_a_failing_start():
    best, trail = harness.search_max_rate(lambda r: r <= 500.0, 1000.0,
                                          False, _steps(6))
    assert trail[0] == (1000.0 / 1.5, False)
    assert trail[1][0] == pytest.approx(1000.0 / 1.5 ** 2)
    assert trail[1][1]
    assert 444.0 < best <= 500.0


def test_search_floor_and_no_pass():
    best, trail = harness.search_max_rate(lambda r: False, 100.0, False,
                                          _steps(10))
    assert best == 0.0
    assert all(r >= 50.0 for r, _ in trail)
    assert harness.next_probe(60.0, False, []) is None


def test_next_probe_ignores_fails_below_best_pass():
    # a noisy fail below the best pass must not become the upper bracket
    trail = [(1500.0, True), (2250.0, False), (1875.0, False),
             (1400.0, False)]
    assert harness.next_probe(1000.0, True, trail) == 1687.5


# ----------------------------------------------------------------------
# metric-name validation against BENCHMARK.json
# ----------------------------------------------------------------------

def _metrics(spec, value=1.0):
    return {m["name"]: {"value": value, "unit": m["unit"]} for m in spec}


def test_contract_shape():
    c = harness.load_contract(CONTRACT)
    assert set(c) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert harness.workload_names(c) == [
        "sim-hotspot", "sim-paper-sharded", "live-lookup"]
    names = [m["name"] for m in c["end_to_end"] + c["per_layer"]]
    assert len(names) == len(set(names))
    e2e = {m["name"]: m for m in c["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(m["bound"] <= 0.25 for m in e2e.values())
    # every span name maps to a layer, every layer has a self-time metric
    for target in tracing.SIM_TARGETS + tracing.LIVE_TARGETS:
        tracing.layer_of(target[3])
    for layer in tracing.LAYERS:
        if layer != "namespace":
            assert f"self_s.{layer}" in names


def test_check_metrics_accepts_exact_set():
    c = harness.load_contract(CONTRACT)
    harness.check_metrics(c, _metrics(c["end_to_end"]), trace=False)
    harness.check_metrics(c, _metrics(c["per_layer"], 0.0), trace=True)


def test_check_metrics_rejects_mismatch():
    c = harness.load_contract(CONTRACT)
    good = _metrics(c["end_to_end"])
    missing = dict(good)
    missing.pop("setup_s")
    with pytest.raises(ValueError, match="missing=\\['setup_s'\\]"):
        harness.check_metrics(c, missing, trace=False)
    extra = copy.deepcopy(good)
    extra["bogus"] = {"value": 1.0, "unit": "s"}
    with pytest.raises(ValueError, match="extra=\\['bogus'\\]"):
        harness.check_metrics(c, extra, trace=False)
    unit = copy.deepcopy(good)
    unit["setup_s"]["unit"] = "ms"
    with pytest.raises(ValueError, match="unit"):
        harness.check_metrics(c, unit, trace=False)
    zero = copy.deepcopy(good)
    zero["lookups_per_s"]["value"] = 0.0
    with pytest.raises(ValueError, match="reads 0"):
        harness.check_metrics(c, zero, trace=False)
    nan = copy.deepcopy(good)
    nan["latency_p50_ms"]["value"] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        harness.check_metrics(c, nan, trace=False)


# ----------------------------------------------------------------------
# span bookkeeping
# ----------------------------------------------------------------------

class _Box:
    def outer(self, msg):
        return self.inner(msg) + 1

    def inner(self, msg):
        return msg.qid


class _Msg:
    qid = 7


def test_tracer_self_time_parent_and_lookup_id(tmp_path, monkeypatch):
    mod = type(sys)("fake_layer")
    mod.Box = _Box
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    targets = [("fake_layer", "Box", "outer", "server.outer",
                tracing._msg_qid),
               ("fake_layer", "Box", "inner", "core.inner", None)]
    orig_outer = _Box.outer
    with tracing.Tracer(targets) as tr:
        assert _Box().outer(_Msg()) == 8
    assert _Box.outer is orig_outer  # restored
    outer, inner = tr.totals["server.outer"], tr.totals["core.inner"]
    assert outer[0] == inner[0] == 1
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    names = [(s[0], s[3], s[4]) for s in tr.spans]
    # the child inherits the parent's lookup id
    assert names == [("core.inner", "server.outer", 7),
                     ("server.outer", None, 7)]
    path = tmp_path / "spans.jsonl"
    assert tr.write_spans(str(path)) == 2
    first = json.loads(path.read_text().splitlines()[0])
    assert first["name"] == "core.inner" and first["lookup"] == 7
    tr.reset()
    assert tr.totals["core.inner"] == [0, 0.0, 0.0] and not tr.spans


def test_decision_mix():
    mix = harness.decision_mix({"cache": 2, "struct": 2, "resolved": 4})
    assert mix["core.decisions.cache"] == 0.25
    assert mix["core.decisions.fail"] == 0.0
    assert mix["server.cache_hit_frac"] == 0.5  # 2 of 4 forwards
    assert harness.decision_mix({})["server.cache_hit_frac"] == 0.0
