"""Unit and property tests for the ancestor index.

The index must reproduce the linear-scan routing semantics *exactly*:
the winner is the first member in mirrored order at a strictly smaller
distance (``repro.core.routing.closest_hosted`` / ``scan_cache`` are
the reference implementations).  These tests pin the contract three
ways: direct unit tests, randomized cross-checks against an explicit
ordered-list scan (queried after every mutation, directly and through
a real ``LRUCache``), and end-of-workload equivalence on live peers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.core import nsindex
from repro.core.nsindex import NO_BOUND, AncestorIndex
from repro.core.routing import RouteAction, closest_hosted, decide, scan_cache
from repro.namespace.generators import balanced_tree, university_tree
from repro.server.cache import LRUCache
from repro.workload.arrivals import WorkloadDriver
from repro.workload.streams import cuzipf_stream


def ref_closest(ns, order, dest, best_d=NO_BOUND):
    """The scan the index must agree with: first member in ``order``
    at a strictly smaller distance."""
    best = -1
    for v in order:
        d = ns.distance(v, dest)
        if d < best_d:
            best, best_d = v, d
    return best, best_d


@pytest.fixture(scope="module")
def ns():
    return balanced_tree(levels=5)


class TestBasics:
    def test_empty(self, ns):
        idx = AncestorIndex(ns)
        assert len(idx) == 0
        assert 3 not in idx
        assert idx.closest(3) == (-1, NO_BOUND)

    def test_add_and_query(self, ns):
        idx = AncestorIndex(ns)
        idx.add(0)
        assert 0 in idx
        assert len(idx) == 1
        node, d = idx.closest(0)
        assert (node, d) == (0, 0)

    def test_duplicate_add_rejected(self, ns):
        idx = AncestorIndex(ns)
        idx.add(5)
        with pytest.raises(ValueError):
            idx.add(5)

    def test_remove_is_idempotent(self, ns):
        idx = AncestorIndex(ns)
        idx.add(5)
        idx.remove(5)
        assert 5 not in idx
        idx.remove(5)  # absent: no-op
        assert len(idx) == 0
        assert idx.closest(5) == (-1, NO_BOUND)

    def test_touch_absent_is_noop(self, ns):
        idx = AncestorIndex(ns)
        idx.touch(7)
        assert len(idx) == 0

    def test_seed_members_in_order(self, ns):
        idx = AncestorIndex(ns, [4, 2, 9])
        assert sorted(idx.nodes()) == [2, 4, 9]
        assert len(idx) == 3

    def test_clear_and_rebuild(self, ns):
        idx = AncestorIndex(ns, [1, 2, 3])
        idx.clear()
        assert len(idx) == 0
        idx.rebuild([7, 8])
        assert sorted(idx.nodes()) == [7, 8]

    def test_bound_prunes(self, ns):
        """A caller-supplied bound is a strict-improvement filter."""
        idx = AncestorIndex(ns)
        idx.add(0)  # the root: distance to any node == its depth
        dest = len(ns) - 1  # a leaf
        d = ns.depth[dest]
        assert idx.closest(dest, d + 1) == (0, d)
        assert idx.closest(dest, d) == (-1, d)  # not strictly closer


class TestOrderTieBreak:
    """Equal distance: the *earlier* member in mirrored order wins."""

    def sibling_pair(self, ns):
        """Two children of the root: equidistant from each other's
        subtrees' destinations when probed from outside."""
        kids = ns.children[0]
        assert len(kids) >= 2
        return kids[0], kids[1]

    def test_first_added_wins_tie(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        node, _ = idx.closest(0)
        assert node == a
        idx2 = AncestorIndex(ns, [b, a])
        node2, _ = idx2.closest(0)
        assert node2 == b

    def test_touch_moves_to_back(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        idx.touch(a)  # order is now [b, a]
        node, _ = idx.closest(0)
        assert node == b

    def test_touch_of_last_is_noop(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        idx.touch(b)  # already last: order unchanged
        node, _ = idx.closest(0)
        assert node == a

    def test_readd_after_remove_goes_to_back(self, ns):
        a, b = self.sibling_pair(ns)
        idx = AncestorIndex(ns, [a, b])
        idx.remove(a)
        idx.add(a)  # order is now [b, a]
        node, _ = idx.closest(0)
        assert node == b


class _OrderMirror:
    """An ordered list driven by the same op stream as the index."""

    def __init__(self):
        self.order = []

    def add(self, v):
        self.order.append(v)

    def touch(self, v):
        if v in self.order:
            self.order.remove(v)
            self.order.append(v)

    def remove(self, v):
        if v in self.order:
            self.order.remove(v)


def _apply(idx, ref, op, v):
    if op == "add":
        if v in idx:
            idx.touch(v)
            ref.touch(v)
        else:
            idx.add(v)
            ref.add(v)
    elif op == "touch":
        idx.touch(v)
        ref.touch(v)
    else:
        idx.remove(v)
        ref.remove(v)


def _assert_bounded(idx):
    """The young set and the indexed members partition the members,
    and compaction keeps stale bucket entries from outgrowing the live
    ones."""
    assert set(idx._young) <= set(idx._members)
    stale = idx._entries - idx._live
    assert stale <= max(idx._live, nsindex.COMPACT_MIN)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "touch", "remove"]),
                          st.integers(0, 62), st.integers(0, 62),
                          st.integers(0, 12)),
                max_size=150),
       st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_index_matches_reference_scan(steps, n_build, seed):
    """Randomized op sequences: every (dest, bound) query agrees with
    the explicit ordered-list scan.  The first ``n_build`` mutations
    run before any query (the build-time fill); after that a query
    follows every mutation, because the lazy state (young scan,
    flushes, stale heads) moves only on queries."""
    ns = balanced_tree(levels=5)  # 63 nodes
    idx = AncestorIndex(ns)
    ref = _OrderMirror()
    for i, (op, v, dest, bound) in enumerate(steps):
        _apply(idx, ref, op, v)
        if i < n_build:
            continue
        bound = bound if bound else NO_BOUND
        assert idx.closest(dest, bound) == ref_closest(
            ns, ref.order, dest, bound)
        _assert_bounded(idx)
    assert sorted(idx.nodes()) == sorted(ref.order)
    rng = random.Random(seed)
    for _ in range(20):
        dest = rng.randrange(len(ns))
        bound = rng.choice([NO_BOUND, rng.randrange(1, 12)])
        assert idx.closest(dest, bound) == ref_closest(
            ns, ref.order, dest, bound)


class _CachePeer:
    """What :func:`scan_cache` reads of a peer."""

    def __init__(self, ns, capacity):
        self.ns = ns
        self.cache = LRUCache(capacity, rmap=2, index=AncestorIndex(ns))


_CACHE_OPS = st.tuples(
    st.sampled_from(["put", "get", "touch", "replace", "drop", "remove",
                     "remove_server"]),
    st.integers(0, 62), st.integers(0, 3), st.integers(0, 62),
    st.integers(0, 12))


def _cache_step(cache, op, v, server):
    if op == "put":
        cache.put(v, [server, server + 4])
    elif op == "get":
        cache.get(v)
    elif op == "touch":
        cache.touch(v)
    elif op == "replace":
        cache.replace(v, [server + 1])
    elif op == "drop":
        cache.replace(v, [])
    elif op == "remove":
        cache.remove(v)
    else:
        cache.remove_server(v, server)


@settings(max_examples=60, deadline=None)
@given(st.lists(_CACHE_OPS, max_size=150), st.integers(1, 12))
def test_cache_index_matches_scan_after_every_step(steps, capacity):
    """The index driven through a real LRUCache (inserts, merges,
    touches, in-place replaces, evictions, removals) answers exactly
    what scan_cache answers over the OrderedDict, after every step."""
    ns = balanced_tree(levels=5)
    peer = _CachePeer(ns, capacity)
    cache = peer.cache
    for op, v, server, dest, bound in steps:
        _cache_step(cache, op, v, server)
        bound = bound if bound else NO_BOUND
        assert cache.index.closest(dest, bound) == scan_cache(
            peer, dest, bound)
        _assert_bounded(cache.index)
    assert list(sorted(cache.index.nodes())) == sorted(cache.nodes())


class TestLaziness:
    """Which members wait in the young set and when they are indexed
    (the answers are covered above; this pins the cost policy)."""

    def test_build_time_adds_are_indexed(self, ns):
        idx = AncestorIndex(ns)
        for v in (3, 9, 20):
            idx.add(v)
        assert not idx._young and idx._buckets

    def test_add_waits_young_until_flush_age(self, ns):
        idx = AncestorIndex(ns, [1])
        idx.closest(0)
        idx.add(40)
        assert 40 in idx._young
        for _ in range(nsindex.FLUSH_AGE - 1):
            idx.closest(5)
        assert 40 in idx._young
        idx.closest(5)
        assert 40 not in idx._young
        assert idx.closest(40) == (40, 0)

    def test_overflow_flushes_the_young_set(self):
        ns = balanced_tree(levels=7)
        idx = AncestorIndex(ns, [0])
        idx.closest(0)
        for v in range(1, nsindex.YOUNG_MAX + 1):
            idx.add(v)
        assert len(idx._young) == nsindex.YOUNG_MAX
        idx.add(nsindex.YOUNG_MAX + 1)
        assert not idx._young

    def test_touch_young_restamps_touch_indexed_reindexes(self, ns):
        idx = AncestorIndex(ns, [1, 2])
        idx.closest(0)
        idx.add(7)
        idx.add(8)
        idx.touch(7)
        assert list(idx._young) == [8, 7]
        live = idx._live
        idx.touch(1)
        assert 1 not in idx._young and idx._live == live

    def test_remove_leaves_stale_entries(self, ns):
        idx = AncestorIndex(ns, [30, 31])
        entries = idx._entries
        idx.remove(30)
        assert idx._entries == entries
        assert idx._live == entries - ns.depth[30] - 1
        assert idx.closest(30) == ref_closest(ns, [31], 30)


class TestLongChurn:
    """Long deterministic runs that force every lazy transition: aged
    and overflow flushes, stale heads dropped by queries, and
    compaction -- checked against the reference after every step."""

    def test_cache_churn(self):
        ns = balanced_tree(levels=7)  # 127 nodes
        rng = random.Random(5)
        peer = _CachePeer(ns, capacity=nsindex.YOUNG_MAX + 8)
        cache = peer.cache
        idx = cache.index
        seen = {"flushed": False, "compacted": False}
        for step in range(6000):
            # path-propagation shape: a few puts, then a query, with a
            # quiet phase in the middle that lets members age into the
            # buckets before churn retires them again
            quiet = 2000 <= step < 2600
            if not quiet:
                for _ in range(rng.randrange(1, 5)):
                    entries = idx._entries
                    v = rng.randrange(len(ns))
                    if rng.random() < 0.8:
                        cache.put(v, [rng.randrange(8)])
                    else:
                        cache.get(v)
                    if idx._entries < entries:
                        seen["compacted"] = True
            dest = rng.randrange(len(ns))
            bound = rng.choice([NO_BOUND, rng.randrange(1, 14)])
            assert idx.closest(dest, bound) == scan_cache(peer, dest, bound)
            seen["flushed"] |= bool(idx._buckets)
            _assert_bounded(idx)
        assert seen == {"flushed": True, "compacted": True}

    def test_hosted_list_churn(self):
        """The replica-store shape: a build-time fill, then replicas
        installed and evicted while most members live forever."""
        ns = balanced_tree(levels=7)
        rng = random.Random(9)
        owned = rng.sample(range(len(ns)), 24)
        idx = AncestorIndex(ns)
        ref = _OrderMirror()
        for v in owned:
            idx.add(v)  # before any query: indexed on arrival
            ref.add(v)
        assert not idx._young and idx._live
        compacted = False
        for step in range(4000):
            v = rng.randrange(len(ns))
            if v not in owned:
                entries = idx._entries
                _apply(idx, ref, "remove" if v in idx else "add", v)
                compacted |= idx._entries < entries
            dest = rng.randrange(len(ns))
            assert idx.closest(dest) == ref_closest(ns, ref.order, dest)
            _assert_bounded(idx)
        assert compacted


class TestLiveEquivalence:
    """After a real workload, the store and cache indexes answer
    exactly what the reference scans answer, on every peer."""

    def test_index_vs_scan_after_workload(self):
        ns = balanced_tree(levels=6)
        cfg = SystemConfig.replicated(n_servers=4, seed=11, cache_slots=8)
        system = build_system(ns, cfg)
        spec = cuzipf_stream(rate=200.0, alpha=1.0, warmup=1.0,
                             phase=1.0, n_phases=2, seed=11)
        WorkloadDriver(system, spec).start()
        system.run_until(spec.duration + 1.0)
        rng = random.Random(3)
        dests = [rng.randrange(len(ns)) for _ in range(200)]
        for peer in system.peers:
            assert sorted(peer.store.index.nodes()) == sorted(
                peer.hosted_list)
            assert sorted(peer.cache.index.nodes()) == sorted(
                peer.cache.nodes())
            for dest in dests:
                if not peer.hosts(dest):
                    # decide() only consults the index for non-hosted
                    # dests; closest_hosted's d==1 early-break makes the
                    # two legitimately differ when dest itself is hosted
                    assert peer.store.index.closest(dest) == (
                        closest_hosted(peer, dest))
                for bound in (NO_BOUND, 1, 2, 4):
                    assert peer.cache.index.closest(dest, bound) == (
                        scan_cache(peer, dest, bound))


def uni_system(**cfg_over):
    ns = university_tree()
    defaults = dict(n_servers=len(ns), seed=1, bootstrap_known_peers=0,
                    digests_enabled=False)
    defaults.update(cfg_over)
    cfg = SystemConfig.replicated(**defaults)
    owner = list(range(len(ns)))
    return ns, build_system(ns, cfg, owner=owner)


class TestDecideGolden:
    """Tie-break precedence of decide(): struct vs cache vs LRU order."""

    def test_cache_needs_strict_improvement(self):
        """A cached node at the same distance as the structural
        candidate does NOT win: cache requires strictly closer."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        peer = system.peers[src]
        base = decide(peer, dst)
        assert base.source == "struct"
        # cache a node at exactly the structural candidate's distance
        same_d = ns.id_of("/university/public/people")
        assert ns.distance(same_d, dst) == base.distance
        peer.cache.put(same_d, [system.owner[same_d]])
        d = decide(peer, dst)
        assert (d.source, d.via) == ("struct", base.via)

    def test_cache_wins_when_strictly_closer(self):
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        peer = system.peers[src]
        closer = ns.id_of("/university")
        peer.cache.put(closer, [system.owner[closer]])
        d = decide(peer, dst)
        assert (d.source, d.via) == ("cache", closer)

    def test_lru_order_breaks_cache_ties(self):
        """Two equidistant cache entries: LRU iteration order decides,
        and a touch (cache hit) flips it."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private/people/staff/Ann")
        peer = system.peers[src]
        a = ns.id_of("/university/private/people")
        b = ns.id_of("/university/private/people/staff/Mary")
        assert ns.distance(a, dst) == ns.distance(b, dst)
        peer.cache.put(a, [system.owner[a]])
        peer.cache.put(b, [system.owner[b]])
        assert decide(peer, dst).via == a  # a is earlier in LRU order
        peer.cache.get(a)  # LRU touch: order becomes [b, a]
        assert decide(peer, dst).via == b

    def test_dead_cache_entry_falls_back_to_struct(self):
        """A winning cache entry whose map dead-ends is dropped and the
        structural candidate is re-used."""
        ns, system = uni_system()
        src = ns.id_of("/university/public/people/students")
        dst = ns.id_of("/university/private")
        peer = system.peers[src]
        closer = ns.id_of("/university")
        peer.cache.put(closer, [peer.sid])  # only ourselves: dead
        d = decide(peer, dst)
        assert d.action is RouteAction.FORWARD
        assert d.source == "struct"
        assert closer not in list(peer.cache.nodes())  # entry dropped
