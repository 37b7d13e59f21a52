"""Namespace ancestor index: O(depth) closest-member queries.

The per-hop routing decision asks one question of a peer's local state
twice (once for hosted nodes, once for the LRU cache): *which member is
closest to the destination, breaking ties by iteration order?*  The
scan implementations (:func:`repro.core.routing.closest_hosted`,
:func:`repro.core.routing.scan_cache`) answer it in
O(|members| * depth) per hop, which caps large-namespace runs.

:class:`AncestorIndex` answers it in O(depth(dest)) dict probes by
bucketing members under every node of their ancestor chain.  For a
member ``v`` and destination ``t``, the namespace distance is

    d(v, t) = depth(v) + depth(t) - 2 * lca_depth(v, t)

and ``lca(v, t)`` is always on ``t``'s (precomputed) ancestor chain.
Walking that chain deepest-first, the bucket at ancestor ``a`` (depth
``da``) contains exactly the members with ``lca_depth(v, t) >= da``,
and its best contribution is its minimum-depth member.  So the closest
member overall is found by probing ``depth(t) + 1`` buckets -- the
state size never appears in the per-hop cost.

**Determinism contract.**  The scans break ties by "first member in
iteration order at a strictly smaller distance": hosted-list position
for the replica store, ``OrderedDict`` order (insertion order, updated
by ``move_to_end``) for the cache.  The winner is therefore the member
minimising the pair ``(distance, position)`` lexicographically.  The
index reproduces this exactly by stamping every member with a
monotonically increasing *sequence number* -- re-stamped on
:meth:`touch`, which is precisely what ``move_to_end`` does to an
``OrderedDict`` position -- and keeping each bucket as a lazy min-heap
ordered by ``(depth, seq)``.  Why per-bucket ``(depth, seq)`` minima
suffice:

* within one bucket, only minimum-depth members can attain the
  bucket's best distance (deeper members are strictly farther *at this
  lca level*), and among those the smallest seq wins;
* across levels, a member appears in every bucket above its true LCA
  with an *overestimated* distance there, but the overestimate exceeds
  its true distance by at least 2, and the deepest-first walk has
  already absorbed the true value into the running best -- so
  overestimates can neither win nor tie;
* pruning is exact: a bucket at depth ``da`` can only contain members
  at distance >= ``depth(t) - da``, so levels with
  ``depth(t) - da > best`` can neither improve nor tie and the walk
  stops at ``da = depth(t) - best``.

**Laziness.**  Path propagation (paper section 2.4) makes a cache churn:
at paper scale every query a peer processes inserts about four entries
and evicts as many, and most of them leave again before any query
could use a bucket.  Bucket maintenance is therefore paid only for
members that queries keep seeing:

* :meth:`add` stamps the member and appends it to a small
  insertion-ordered *young* set -- no bucket walk; :meth:`touch` of a
  young member only re-stamps it there;
* :meth:`remove` is O(1): the member's bucket entries (if it has any)
  go stale and are skipped lazily by comparing their stamp with the
  member table;
* :meth:`closest` scans the young set with an arena prefix compare,
  then walks the buckets, and combines both under the same
  ``(distance, seq)`` rule;
* a young member is *flushed* into the buckets once it has sat
  through :data:`FLUSH_AGE` queries (ski rental: by then scanning it
  again costs more than indexing it once), and the whole young set is
  flushed when it outgrows :data:`YOUNG_MAX`, so bulk fills are
  indexed promptly.  Members that are already long-lived skip the
  young set: adds before the index's first query (the system build)
  and touches of indexed members are indexed at once;
* when stale bucket entries outnumber live ones the buckets are
  rebuilt from the stamps, so memory and query cost stay bounded.

None of this changes an answer: the young set and the buckets
partition the members, and both halves apply the same tie-break.

**Memory.**  Deep in the tree most ancestors index exactly one member
(a member's near-ancestors are rarely shared), so single-member
buckets are stored as the bare entry tuple ``(depth, seq, node)``
instead of a heap list.  Like heap entries, a tuple bucket may be
stale; the query drops it on sight.  At the million-node scale this
representation carries the bulk of the index's buckets (DESIGN.md
section 11).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Tuple

if TYPE_CHECKING:
    from repro.namespace.tree import Namespace

#: "no bound" initial distance, matching the scan implementations.
NO_BOUND = 1 << 30

#: queries a young member sits through before it is indexed (the
#: ski-rental break-even of a young scan against a bucket walk; see
#: DESIGN.md section 10.3 for the measurements behind it)
FLUSH_AGE = 16
#: young-set size past which every young member is indexed at once
YOUNG_MAX = 32
#: stale bucket entries tolerated before they must also outnumber the
#: live ones to trigger a rebuild (keeps tiny indexes from rebuilding
#: on every removal)
COMPACT_MIN = 64

# bucket layout, two representations keyed by type, both possibly stale
# (an entry is stale once its stamp is not the member's current one):
#   tuple   -- a single entry (depth, seq, node)
#   list    -- a min-heap of entry tuples


class AncestorIndex:
    """Incrementally maintained ancestor -> candidate-bucket map.

    Mirrors an ordered member collection (the hosted list or the LRU
    cache): :meth:`add` appends at the back, :meth:`touch` moves a
    member to the back, :meth:`remove` deletes.  :meth:`closest`
    answers closest-member queries in O(depth(dest) + young).
    """

    __slots__ = ("_arena", "_off", "_depth", "_buckets", "_members",
                 "_young", "_seq", "_queries", "_due", "_entries", "_live")

    def __init__(self, ns: "Namespace", members: Iterable[int] = ()) -> None:
        # ancestor chains are read straight out of the namespace's flat
        # arena (chain v = _arena[_off[v]:_off[v + 1]]): no per-chain
        # slice objects on the per-hop path
        self._arena = ns.anc_arena
        self._off = ns.anc_off
        self._depth = ns.depth
        # namespace node id -> bucket (entry tuple or entry heap)
        self._buckets: Dict[int, Any] = {}
        # member node id -> current (valid) sequence stamp
        self._members: Dict[int, int] = {}
        # members not indexed at their current stamp, in stamp order ->
        # the query count when they were stamped
        self._young: Dict[int, int] = {}
        self._seq = 0
        # closest() calls that searched a non-empty index (young members
        # age in these); zero until the first one, i.e. during the build
        self._queries = 0
        # no young member is due for indexing before this query count
        self._due = 0
        # bucket entries held (stale included) / entries of live stamps
        self._entries = 0
        self._live = 0
        self.rebuild(members)

    # ------------------------------------------------------------------
    # membership mirror
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def nodes(self) -> Iterator[int]:
        """Live members, in no particular order."""
        return iter(self._members)

    def add(self, node: int) -> None:
        """Append ``node`` at the back of the mirrored order."""
        if node in self._members:
            raise ValueError(f"node {node} already indexed")
        self._seq += 1
        self._members[node] = self._seq
        if not self._queries:
            # a fill before the first query (system build): the member
            # faces every query to come, so index it right away
            self._index([node])
            return
        young = self._young
        young[node] = self._queries
        if len(young) > YOUNG_MAX:
            self._flush_all()

    def touch(self, node: int) -> None:
        """Move ``node`` to the back of the mirrored order (LRU touch)."""
        members = self._members
        cur = members.get(node)
        if cur is None or cur == self._seq:
            # absent, or already the most recently stamped member:
            # re-stamping cannot change relative order (the common case
            # under skewed workloads -- repeated hits on the hottest
            # entry)
            return
        self._seq += 1
        members[node] = self._seq
        young = self._young
        if young.pop(node, None) is not None:
            young[node] = self._queries
        else:
            # an indexed member has already outlived the young window
            # once: index its new stamp now, the old entries go stale
            self._index([node])
            self._retire(node)

    def remove(self, node: int) -> None:
        """Drop ``node`` from the index (no-op if absent)."""
        if self._members.pop(node, None) is None:
            return
        if self._young.pop(node, None) is None:
            self._retire(node)

    def clear(self) -> None:
        self._buckets.clear()
        self._members.clear()
        self._young.clear()
        self._entries = 0
        self._live = 0

    def rebuild(self, ordered_members: Iterable[int]) -> None:
        """Reset to exactly ``ordered_members`` in iteration order.

        A bulk fill: the members are indexed right away.
        """
        self.clear()
        for v in ordered_members:
            self.add(v)
        self._flush_all()

    # ------------------------------------------------------------------
    # bucket maintenance
    # ------------------------------------------------------------------

    def _retire(self, node: int) -> None:
        """Account for ``node``'s bucket entries having gone stale, and
        rebuild the buckets from the stamps once stale entries outnumber
        live ones (amortised O(1) per stale entry)."""
        live = self._live = self._live - (self._off[node + 1]
                                          - self._off[node])
        if self._entries - live > (live if live > COMPACT_MIN
                                   else COMPACT_MIN):
            young = self._young
            self._buckets.clear()
            self._entries = 0
            self._live = 0
            self._index([v for v in self._members if v not in young])

    def _flush_all(self) -> None:
        batch = list(self._young)
        self._young.clear()
        self._index(batch)

    def _flush_aged(self, q: int) -> None:
        """Ski rental: index the young members that have sat through
        FLUSH_AGE queries (a prefix, since young is in stamp order)."""
        young = self._young
        limit = q - FLUSH_AGE
        batch: List[int] = []
        for v, q_in in young.items():
            if q_in > limit:
                # nothing else is due before this member's age runs out
                self._due = q_in + FLUSH_AGE
                break
            batch.append(v)
        for v in batch:
            del young[v]
        self._index(batch)

    def _index(self, nodes: List[int]) -> None:
        """Push each node's current entry into every bucket on its chain."""
        members = self._members
        buckets = self._buckets
        arena = self._arena
        off = self._off
        depth = self._depth
        added = 0
        live = 0
        for v in nodes:
            entry = (depth[v], members[v], v)
            lo = off[v]
            hi = off[v + 1]
            live += hi - lo
            for i in range(lo, hi):
                a = arena[i]
                b = buckets.get(a)
                if b is None:
                    buckets[a] = entry
                    added += 1
                elif type(b) is tuple:
                    if members.get(b[2]) != b[1]:
                        # overwrite a stale single entry in place
                        buckets[a] = entry
                    else:
                        buckets[a] = [b, entry] if b < entry else [entry, b]
                        added += 1
                else:
                    heappush(b, entry)
                    added += 1
        self._entries += added
        self._live += live

    # ------------------------------------------------------------------
    # the query
    # ------------------------------------------------------------------

    def closest(self, dest: int, best_d: int = NO_BOUND) -> Tuple[int, int]:
        """The member strictly closer to ``dest`` than ``best_d`` that a
        linear scan in mirrored order would pick, or ``(-1, best_d)``.

        Matches the scans bit-for-bit: minimum distance first, then
        earliest iteration-order position (see the module docstring).
        """
        members = self._members
        if not members:
            return -1, best_d
        arena = self._arena
        off = self._off
        o_dest = off[dest]
        n_dest = off[dest + 1] - o_dest
        d_dest = n_dest - 1
        best = -1
        best_seq = 0
        q = self._queries = self._queries + 1
        young = self._young
        if young:
            if q >= self._due:
                self._flush_aged(q)
            # young scan, in stamp order: first strictly closer wins.
            # A member beats best_d only if its chain shares a prefix of
            # at least k = (n + d_dest + 3 - best_d) // 2 nodes with
            # dest's; chains are prefix-closed, so one compare at index
            # k - 1 rules most members out
            lim = d_dest + 3 - best_d
            for v in young:
                o_v = off[v]
                n = off[v + 1] - o_v
                m = n if n < n_dest else n_dest
                k = (n + lim) >> 1
                if k > 1:
                    if k > m or arena[o_v + k - 1] != arena[o_dest + k - 1]:
                        continue
                    i = k
                else:
                    # the root always matches
                    i = 1
                while i < m and arena[o_v + i] == arena[o_dest + i]:
                    i += 1
                # a shared prefix of k or more means strictly closer
                best_d = n + d_dest + 1 - 2 * i
                best = v
                lim = d_dest + 3 - best_d
            if best >= 0:
                best_seq = members[best]
        buckets = self._buckets
        if not buckets:
            return best, best_d
        da = d_dest
        floor = d_dest - best_d
        if floor < 0:
            floor = 0
        while da >= floor:
            a = arena[o_dest + da]
            b = buckets.get(a)
            if b is not None:
                if type(b) is tuple:
                    depth_v, seq, v = b
                else:
                    depth_v, seq, v = b[0]
                d = depth_v + d_dest - 2 * da
                # the head is the bucket's (depth, seq) minimum, stale
                # entries included: if it cannot win, no live entry can,
                # so staleness is only checked for a would-be winner
                if d < best_d or (d == best_d and best >= 0
                                  and seq < best_seq):
                    if members.get(v) != seq:
                        # stale head: drop it, probe this level again
                        if type(b) is tuple:
                            del buckets[a]
                        else:
                            heappop(b)
                            if not b:
                                del buckets[a]
                        self._entries -= 1
                        continue
                    best = v
                    best_seq = seq
                    if d < best_d:
                        best_d = d
                        floor = d_dest - best_d
                        if floor < 0:
                            floor = 0
            da -= 1
        return best, best_d

    def __repr__(self) -> str:
        return (
            f"AncestorIndex(members={len(self._members)}, "
            f"young={len(self._young)}, buckets={len(self._buckets)})"
        )
