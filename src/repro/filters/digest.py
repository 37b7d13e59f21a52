"""Inverse-mapping digests (paper section 3.6).

A *digest* approximates the inverse of the name-to-host mapping: given
a server, which nodes does it host?  Each server maintains a Bloom
filter over the ids of the nodes it hosts (owned + replicated) and
piggybacks versioned snapshots of it on outgoing messages.  Remote
servers keep the most recent snapshot per peer in a
:class:`DigestDirectory` and use it to

* discover routing shortcuts (test the destination and its ancestors
  against known digests -- section 3.6.1), and
* prune stale entries from node maps (section 3.6.2).

Snapshots are ``(version, bits)`` pairs; ``bits`` is the Bloom filter's
integer bit vector, so snapshotting never copies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.filters.bloom import BloomFilter, Snapshot


class Digest:
    """A server's own digest of the node ids it currently hosts.

    Bloom filters cannot delete, so un-hosting a node triggers a rebuild
    from the live host set; the version number increments on every
    mutation so remote snapshots can be ordered.
    """

    __slots__ = ("_bloom", "version", "owner_server", "_snap")

    def __init__(
        self,
        capacity: int,
        fp_rate: float = 0.01,
        owner_server: int = -1,
        salt: int = 0x7E44AD12,
    ) -> None:
        self._bloom = BloomFilter.with_capacity(capacity, fp_rate, salt=salt)
        self.version = 0
        self.owner_server = owner_server
        # the last snapshot handed out, reused until the version moves
        self._snap: Optional[Tuple[int, Snapshot]] = None

    @property
    def bloom(self) -> BloomFilter:
        """The underlying filter (exposed for geometry/cache sharing)."""
        return self._bloom

    def add(self, node: int) -> None:
        """Record that this server now hosts ``node``."""
        self._bloom.add(node)
        self.version += 1

    def rebuild(self, hosted: Iterable[int]) -> None:
        """Rebuild after un-hosting (replica eviction)."""
        self._bloom.clear()
        for v in hosted:
            self._bloom.add(v)
        self.version += 1

    def __contains__(self, node: int) -> bool:
        return node in self._bloom

    def snapshot(self) -> Tuple[int, Snapshot]:
        """A ``(version, bits)`` pair cheap enough to piggyback anywhere.

        Every forward and response carries one, so the pair is built
        once per version and shared (it is immutable) until the next
        mutation bumps the version.
        """
        snap = self._snap
        if snap is None or snap[0] != self.version:
            snap = self._snap = (self.version, self._bloom.snapshot())
        return snap

    def test_snapshot(self, snap: Tuple[int, int], node: int) -> bool:
        """Test ``node`` against a snapshot taken from a same-geometry digest."""
        return self._bloom.test_snapshot(snap[1], node)


class DigestDirectory:
    """Per-server store of the freshest known digest snapshot per peer.

    All digests in one simulated system share Bloom geometry, so any
    :class:`Digest` instance can evaluate any snapshot; the directory
    keeps a reference digest for that purpose.

    The directory is read once per routing decision but mutates only
    when piggybacked snapshots arrive, so the eligible-snapshot list
    the digest shortcut probes is cached and invalidated by a directory
    version counter (bumped on every stored/forgotten snapshot).
    """

    __slots__ = ("_ref", "_snaps", "max_peers", "version",
                 "_snaps_cache_key", "_snaps_cache")

    def __init__(self, reference: Digest, max_peers: int = 0) -> None:
        self._ref = reference
        self._snaps: Dict[int, Tuple[int, int]] = {}
        self.max_peers = max_peers  # 0 = unbounded
        #: bumped on every mutation; keys the eligible-snapshot cache
        self.version = 0
        self._snaps_cache_key: Optional[Tuple[int, int, int]] = None
        self._snaps_cache: List[Tuple[int, Snapshot]] = []

    def __len__(self) -> int:
        return len(self._snaps)

    @property
    def reference(self) -> Digest:
        """The digest used to evaluate snapshots (shared Bloom geometry)."""
        return self._ref

    def observe(self, server: int, snap: Tuple[int, int]) -> bool:
        """Record a snapshot for ``server`` if newer; return True if stored."""
        cur = self._snaps.get(server)
        if cur is not None and cur[0] >= snap[0]:
            return False
        if (
            cur is None
            and self.max_peers
            and len(self._snaps) >= self.max_peers
        ):
            # evict the stalest snapshot (lowest version) to make room
            victim = min(self._snaps, key=lambda s: self._snaps[s][0])
            del self._snaps[victim]
        self._snaps[server] = snap
        self.version += 1
        return True

    def forget(self, server: int) -> None:
        if self._snaps.pop(server, None) is not None:
            self.version += 1

    def eligible_snaps(
        self, exclude: int, limit: int = 0
    ) -> List[Tuple[int, Snapshot]]:
        """The ``(server, words)`` list the digest shortcut probes.

        Directory iteration order, skipping ``exclude``, truncated to
        the first ``limit`` entries (0 = unbounded) -- identical to the
        inline loop it replaces.  The list is cached until the
        directory's :attr:`version` moves (or the probe parameters
        change), so steady-state routing decisions reuse one list
        instead of re-materialising it per hop.
        """
        key = (self.version, exclude, limit)
        if key == self._snaps_cache_key:
            return self._snaps_cache
        out: List[Tuple[int, Snapshot]] = []
        for server, snap in self._snaps.items():
            if server == exclude:
                continue
            out.append((server, snap[1]))
            if limit and len(out) >= limit:
                break
        self._snaps_cache_key = key
        self._snaps_cache = out
        return out

    def get(self, server: int) -> Optional[Tuple[int, int]]:
        return self._snaps.get(server)

    def test(self, server: int, node: int) -> Optional[bool]:
        """Does ``server`` (by its last known digest) host ``node``?

        Returns None when no snapshot is known for ``server``.
        """
        snap = self._snaps.get(server)
        if snap is None:
            return None
        return self._ref.test_snapshot(snap, node)

    def servers(self) -> Iterable[int]:
        return self._snaps.keys()

    def known_hosts_of(self, node: int) -> Iterable[int]:
        """Servers whose last known digest claims to host ``node``."""
        ref = self._ref
        return [
            s for s, snap in self._snaps.items() if ref.test_snapshot(snap, node)
        ]
