"""Unit tests for inverse-mapping digests and the digest directory."""

import pytest

from repro.filters.digest import Digest, DigestDirectory


@pytest.fixture
def digests():
    ref = Digest(capacity=64, owner_server=0)
    d1 = Digest(capacity=64, owner_server=1)
    d2 = Digest(capacity=64, owner_server=2)
    return ref, d1, d2


class TestDigest:
    def test_add_and_test(self, digests):
        ref, d1, _ = digests
        d1.add(5)
        assert 5 in d1
        assert 6 not in d1

    def test_version_increments(self, digests):
        _, d1, _ = digests
        v0 = d1.version
        d1.add(5)
        assert d1.version == v0 + 1

    def test_rebuild_removes(self, digests):
        _, d1, _ = digests
        d1.add(5)
        d1.add(6)
        d1.rebuild([6])
        assert 6 in d1
        assert 5 not in d1

    def test_snapshot_is_point_in_time(self, digests):
        ref, d1, _ = digests
        d1.add(5)
        snap = d1.snapshot()
        d1.add(7)
        assert ref.test_snapshot(snap, 5)
        assert not ref.test_snapshot(snap, 7)

    def test_snapshot_versioned(self, digests):
        _, d1, _ = digests
        v, _bits = d1.snapshot()
        d1.add(1)
        v2, _ = d1.snapshot()
        assert v2 > v

    def test_snapshot_reused_until_version_moves(self, digests):
        _, d1, _ = digests
        d1.add(3)
        snap = d1.snapshot()
        assert d1.snapshot() is snap
        assert snap == (d1.version, tuple(d1.bloom.words))
        d1.rebuild([4])
        fresh = d1.snapshot()
        assert fresh is not snap
        assert fresh == (d1.version, tuple(d1.bloom.words))


class TestDirectory:
    def test_observe_and_test(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(9)
        ddir.observe(1, d1.snapshot())
        assert ddir.test(1, 9) is True
        assert ddir.test(1, 10) is False
        assert ddir.test(99, 9) is None  # unknown server

    def test_observe_keeps_newest(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        new = d1.snapshot()
        d1_old_version = (0, new[1])
        assert ddir.observe(1, new)
        assert not ddir.observe(1, d1_old_version)  # older version rejected

    def test_bounded_evicts_stalest(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref, max_peers=1)
        d1.add(1)
        d2.add(2)
        d2.add(3)  # version 2 > version 1
        ddir.observe(1, d1.snapshot())
        ddir.observe(2, d2.snapshot())
        assert ddir.get(1) is None
        assert ddir.get(2) is not None
        assert len(ddir) == 1

    def test_forget(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        ddir.observe(1, d1.snapshot())
        ddir.forget(1)
        assert ddir.get(1) is None

    def test_known_hosts_of(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref)
        d1.add(5)
        d2.add(5)
        d2.add(6)
        ddir.observe(1, d1.snapshot())
        ddir.observe(2, d2.snapshot())
        assert set(ddir.known_hosts_of(5)) == {1, 2}
        assert set(ddir.known_hosts_of(6)) == {2}

    def test_stale_snapshot_is_soft_state(self, digests):
        """A remote snapshot does not track later evictions -- exactly
        the soft-state staleness the protocol tolerates."""
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(5)
        ddir.observe(1, d1.snapshot())
        d1.rebuild([])  # server 1 evicted node 5
        assert 5 not in d1
        assert ddir.test(1, 5) is True  # directory is (acceptably) stale
        ddir.observe(1, d1.snapshot())  # fresh snapshot corrects it
        assert ddir.test(1, 5) is False


class TestEligibleSnaps:
    def test_matches_directory_iteration(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        d2.add(2)
        ddir.observe(1, d1.snapshot())
        ddir.observe(2, d2.snapshot())
        snaps = ddir.eligible_snaps(exclude=99)
        assert [s for s, _ in snaps] == [1, 2]
        assert snaps[0][1] == ddir.get(1)[1]

    def test_excludes_and_limits(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref)
        ddir.observe(1, d1.snapshot())
        ddir.observe(2, d2.snapshot())
        assert [s for s, _ in ddir.eligible_snaps(exclude=1)] == [2]
        assert [s for s, _ in ddir.eligible_snaps(99, limit=1)] == [1]

    def test_cached_until_version_moves(self, digests):
        ref, d1, d2 = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        ddir.observe(1, d1.snapshot())
        first = ddir.eligible_snaps(99)
        assert ddir.eligible_snaps(99) is first  # cache hit
        d2.add(2)
        ddir.observe(2, d2.snapshot())  # mutation bumps version
        second = ddir.eligible_snaps(99)
        assert second is not first
        assert [s for s, _ in second] == [1, 2]

    def test_cache_keyed_on_parameters(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        ddir.observe(1, d1.snapshot())
        assert ddir.eligible_snaps(1) == []
        assert [s for s, _ in ddir.eligible_snaps(0)] == [1]

    def test_rejected_observation_keeps_cache(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        d1.add(1)
        new = d1.snapshot()
        ddir.observe(1, new)
        first = ddir.eligible_snaps(99)
        assert not ddir.observe(1, (0, new[1]))  # stale: rejected
        assert ddir.eligible_snaps(99) is first  # version unmoved

    def test_forget_invalidates(self, digests):
        ref, d1, _ = digests
        ddir = DigestDirectory(ref)
        ddir.observe(1, d1.snapshot())
        first = ddir.eligible_snaps(99)
        ddir.forget(1)
        assert ddir.eligible_snaps(99) == []
        ddir.forget(1)  # absent: version must not move spuriously
        assert first == [(1, d1.snapshot()[1])]
