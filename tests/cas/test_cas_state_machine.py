"""Stateful property test: the CAS and the build cache against a dict model.

A Hypothesis ``RuleBasedStateMachine`` drives one bounded
:class:`ContentStore` and a :class:`BuildCache` sharing it through puts,
gets, pins and unpins, references and releases, puts large enough to
force LRU eviction, store GC, and the cache's store, lookup, tag and GC.
The model is a dict of resident bytes in least-recently-used order plus
the reference counts, pins and cache records the rules asked for.

Invariants, checked after every rule:

* a pinned or referenced blob is never evicted or collected;
* the size ledger equals the resident bytes, and the residents, their
  LRU order, refcounts, pins and eviction counters equal the model's;
* every hit — a store get or a cache lookup — returns bytes that hash
  to the digest asked for, and a cache record whose blob was evicted
  heals into a miss.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.archive import TarArchive, TarMember
from repro.cas import BuildCache, CasError, ContentStore, blob_digest
from repro.kernel import FileType

BOUND = 2400
#: raw blobs: small ones, and ones big enough that two fill the bound
BLOBS = [bytes([i]) * (120 + 150 * i) for i in range(6)] \
    + [bytes([200 + i]) * 1300 for i in range(2)]
DIFFS = [b"a" * 40, b"b" * 300, b"c" * 600]
#: the cache's chain keys: (base, path of instruction texts)
CHAINS = [("base0", ()), ("base0", ("a",)), ("base0", ("a", "b")),
          ("base0", ("c",)), ("base1", ()), ("base1", ("a",))]


class StoreModel:
    """What the store must hold: bytes by digest in LRU order, and the
    protections the rules placed."""

    def __init__(self, bound):
        self.bound = bound
        self.data: dict[str, bytes] = {}       # insertion order = LRU
        self.refs: dict[str, int] = {}
        self.pins: set[str] = set()
        self.evictions = 0

    def protected(self, digest):
        return self.refs.get(digest, 0) > 0 or digest in self.pins

    def size(self):
        return sum(map(len, self.data.values()))

    def touch(self, digest):
        self.data[digest] = self.data.pop(digest)

    def put(self, data):
        """The digests a put of *data* must evict, oldest first."""
        digest = blob_digest(data)
        if digest in self.data:
            self.touch(digest)
            return []
        evicted, size = [], self.size()
        for old in list(self.data):
            if size + len(data) <= self.bound:
                break
            if not self.protected(old):
                size -= len(self.data.pop(old))
                evicted.append(old)
        self.evictions += len(evicted)
        self.data[digest] = data
        return evicted

    def collect(self, digests):
        for digest in digests:
            del self.data[digest]


def diff_archive(payload: bytes) -> TarArchive:
    return TarArchive([TarMember("f", FileType.REG, 0o644, 0, 0,
                                 data=payload)])


class CasVersusModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = ContentStore(max_bytes=BOUND)
        self.cache = BuildCache(store=self.store)
        self.model = StoreModel(BOUND)
        self.known: dict[str, bytes] = {}      # every digest ever put
        self.records: dict[str, str] = {}      # chain key -> diff digest
        self.tagged: dict[str, int] = {}       # tag -> chain index
        self.evicted_bytes = 0

    # -- helpers -----------------------------------------------------------

    def derive(self, chain: int) -> str:
        """Re-derive one chain's key the way a build does."""
        base, texts = CHAINS[chain]
        key = self.cache.begin(f"sha256:{base}")
        for text in texts:
            key = self.cache.extend(key, "RUN", text)
        return key

    def ancestors(self, chain: int) -> set[str]:
        base, texts = CHAINS[chain]
        return {self.derive(CHAINS.index((base, texts[:n])))
                for n in range(len(texts) + 1)}

    def put(self, data: bytes) -> str:
        expected = self.model.put(data)
        before = set(self.store.digests())
        digest = self.store.put(data)
        assert digest == blob_digest(data)
        self.known[digest] = data
        gone = sorted(before - set(self.store.digests()))
        assert gone == sorted(expected)
        for old in gone:
            assert not self.model.protected(old), "evicted a protected blob"
            self.evicted_bytes += len(self.known[old])
        if digest not in before and self.store.size_bytes > BOUND:
            # a new blob overflows only when every older one is protected
            assert all(self.model.protected(d)
                       for d in self.store.digests() if d != digest)
        return digest

    # -- store rules -------------------------------------------------------

    @rule(i=st.integers(0, len(BLOBS) - 1))
    def put_blob(self, i):
        self.put(BLOBS[i])

    @rule(i=st.integers(0, 1))
    def bounded_eviction(self, i):
        """A blob over half the bound: everything unprotected older
        than it may have to go."""
        self.put(BLOBS[-2 + i] + b"!" * (BOUND // 2))

    @precondition(lambda self: self.known)
    @rule(data=st.data())
    def get(self, data):
        digest = data.draw(st.sampled_from(sorted(self.known)))
        if digest in self.model.data:
            blob = self.store.get(digest)
            assert blob_digest(blob) == digest
            self.model.touch(digest)
        else:
            with pytest.raises(CasError):
                self.store.get(digest)

    @precondition(lambda self: self.known)
    @rule(data=st.data())
    def pin(self, data):
        digest = data.draw(st.sampled_from(sorted(self.known)))
        if digest in self.model.data:
            self.store.pin(digest)
            self.model.pins.add(digest)
        else:
            with pytest.raises(CasError):
                self.store.pin(digest)

    @precondition(lambda self: self.model.pins)
    @rule(data=st.data())
    def unpin(self, data):
        digest = data.draw(st.sampled_from(sorted(self.model.pins)))
        self.store.unpin(digest)
        self.model.pins.discard(digest)

    @precondition(lambda self: self.known)
    @rule(data=st.data())
    def incref(self, data):
        digest = data.draw(st.sampled_from(sorted(self.known)))
        if digest in self.model.data:
            self.store.incref(digest)
            self.model.refs[digest] = self.model.refs.get(digest, 0) + 1
        else:
            with pytest.raises(CasError):
                self.store.incref(digest)

    @precondition(lambda self: self.known)
    @rule(data=st.data())
    def decref(self, data):
        digest = data.draw(st.sampled_from(sorted(self.known)))
        n = self.model.refs.get(digest, 0)
        if n == 0:
            with pytest.raises(CasError):
                self.store.decref(digest)
            return
        self.store.decref(digest)
        if n == 1:
            del self.model.refs[digest]
        else:
            self.model.refs[digest] = n - 1

    @rule(data=st.data())
    def gc(self, data):
        keep = data.draw(st.sets(st.sampled_from(sorted(self.known)))
                         if self.known else st.just(set()))
        expected = [d for d in self.model.data
                    if not self.model.protected(d) and d not in keep]
        assert self.store.gc(keep) == expected
        self.model.collect(expected)

    # -- build-cache rules -------------------------------------------------

    @rule(chain=st.integers(0, len(CHAINS) - 1),
          payload=st.sampled_from(DIFFS))
    def cache_store(self, chain, payload):
        diff = diff_archive(payload)
        key = self.derive(chain)
        expected = self.model.put(diff.serialize())
        rec = self.cache.store_diff(key, "RUN", CHAINS[chain][0], diff)
        digest = rec.diff_digest
        self.known[digest] = diff.serialize()
        assert not set(expected) & set(self.store.digests())
        self.evicted_bytes += sum(len(self.known[d]) for d in expected)
        self.records[key] = digest

    @rule(chain=st.integers(0, len(CHAINS) - 1))
    def cache_lookup(self, chain):
        key = self.derive(chain)
        digest = self.records.get(key)
        hit = self.cache.lookup(key)
        if digest is not None and digest in self.model.data:
            assert hit is not None
            assert blob_digest(hit.serialize()) == digest
            self.model.touch(digest)
        else:
            assert hit is None
            self.records.pop(key, None)      # an evicted record heals

    @rule(tag=st.sampled_from(["t0", "t1"]),
          chain=st.one_of(st.none(), st.integers(0, len(CHAINS) - 1)))
    def cache_tag(self, tag, chain):
        if chain is None:
            self.cache.untag(tag)
            self.tagged.pop(tag, None)
        else:
            self.cache.tag(tag, self.derive(chain))
            self.tagged[tag] = chain

    @rule()
    def cache_gc(self):
        reachable = set()
        for chain in self.tagged.values():
            reachable |= self.ancestors(chain)
        dropped = {k for k in self.records if k not in reachable}
        survivors = {self.records[k] for k in self.records
                     if k in reachable}
        freed = sorted({self.records[k] for k in dropped} - survivors)
        collected = [d for d in freed if d in self.model.data
                     and not self.model.protected(d)]
        result = self.cache.gc()
        assert result["records_dropped"] == len(dropped)
        assert result["blobs_reclaimed"] == len(collected)
        for k in dropped:
            del self.records[k]
        self.model.collect(collected)

    # -- invariants --------------------------------------------------------

    @invariant()
    def protected_blobs_stay_resident(self):
        for digest in set(self.model.refs) | self.model.pins:
            assert digest in self.store, f"lost protected {digest[:19]}"

    @invariant()
    def store_matches_the_model(self):
        store, model = self.store, self.model
        assert store.digests() == list(model.data)
        assert store.size_bytes == model.size() \
            == sum(store.size_of(d) for d in store.digests())
        for digest in self.known:
            assert store.refcount(digest) == model.refs.get(digest, 0)
            assert store.pinned(digest) == (digest in model.pins)
            assert (digest in store) == (digest in model.data)
        stats = store.stats.as_dict()
        assert stats["evictions"] == model.evictions
        assert stats["bytes_evicted"] == self.evicted_bytes

    @invariant()
    def cache_records_match_the_model(self):
        assert {k: r.diff_digest for k, r in self.cache.records.items()} \
            == self.records


CasVersusModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestCasVersusModel = CasVersusModel.TestCase
