"""The content-addressed blob store (CAS).

One sha256-keyed byte store shared by everything that keeps blobs: the
registry's layer storage, the storage drivers' committed diffs, and the
ch-image build cache.  Content addressing is what makes the paper's §4.2
registry economics work ("persistence ... portability, debugging with old
versions, or general future reproducibility"): identical bytes are stored
once no matter how many images, repositories, or builders reference them.

Lifetime model — three independent protections, weakest to strongest:

* **LRU residency**: unprotected blobs live in least-recently-used order
  and are evicted when a ``max_bytes`` bound would be exceeded.  Build-
  cache entries rely on this: losing one is just a future cache miss.
* **refcounts** (:meth:`ContentStore.incref`): durable references held by
  owners with persistence semantics (a registry that accepted a push, a
  storage driver that committed a layer).  Referenced blobs are never
  evicted and never garbage-collected.
* **pins** (:meth:`ContentStore.pin`): temporary holds during multi-step
  operations (e.g. a cache import in flight), immune like refcounts.

:meth:`ContentStore.gc` additionally takes a ``keep`` set so callers with
their own reachability notion (the build cache's Merkle chains) can
protect exactly the blobs their live records still name.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import ReproError
from ..sim import opts as _opts

__all__ = ["CasError", "CasStats", "ContentStore", "blob_digest"]


class CasError(ReproError):
    """Missing blob or inconsistent reference bookkeeping."""


def blob_digest(data: bytes) -> str:
    """The content address of *data* (``sha256:<hex>``)."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass
class CasStats:
    """Hit/miss/evict accounting for one store."""

    puts: int = 0            # put() calls
    dedup_hits: int = 0      # put() of already-present bytes
    hits: int = 0            # get() served
    misses: int = 0          # get() of an absent digest
    evictions: int = 0       # blobs dropped by the LRU bound
    bytes_in: int = 0        # bytes offered to put()
    bytes_stored: int = 0    # bytes physically added (post-dedup)
    bytes_evicted: int = 0
    gc_runs: int = 0
    gc_reclaimed: int = 0
    gc_bytes_reclaimed: int = 0

    @property
    def bytes_deduped(self) -> int:
        """Bytes put() accepted without storing (the dedup savings)."""
        return self.bytes_in - self.bytes_stored

    def as_dict(self) -> dict:
        return {
            "puts": self.puts,
            "dedup_hits": self.dedup_hits,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes_in": self.bytes_in,
            "bytes_stored": self.bytes_stored,
            "bytes_deduped": self.bytes_deduped,
            "bytes_evicted": self.bytes_evicted,
            "gc_runs": self.gc_runs,
            "gc_reclaimed": self.gc_reclaimed,
            "gc_bytes_reclaimed": self.gc_bytes_reclaimed,
        }


class ContentStore:
    """A refcounted sha256 blob store with size-bounded LRU residency.

    ``max_bytes=None`` (the default) disables eviction entirely — the
    right mode for a registry, which must never silently lose a pushed
    layer.  With a bound, :meth:`put` evicts least-recently-used
    *unprotected* blobs until the new blob fits; if everything resident is
    protected the bound is allowed to overflow rather than lose data.
    """

    def __init__(self, *, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise CasError(f"max_bytes must be positive: {max_bytes}")
        self.max_bytes = max_bytes
        self.stats = CasStats()
        self._blobs: OrderedDict[str, bytes] = OrderedDict()
        self._refs: dict[str, int] = {}
        self._pins: set[str] = set()
        self._size = 0

    # -- introspection -----------------------------------------------------------

    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs

    def has(self, digest: str) -> bool:
        return digest in self._blobs

    @property
    def size_bytes(self) -> int:
        return self._size

    @property
    def blob_count(self) -> int:
        return len(self._blobs)

    def digests(self) -> list[str]:
        """Resident digests, least-recently-used first."""
        return list(self._blobs)

    def size_of(self, digest: str) -> int:
        """Size of a resident blob without touching LRU order or stats."""
        try:
            return len(self._blobs[digest])
        except KeyError:
            raise CasError(f"no blob {digest[:19]}... in store")

    def refcount(self, digest: str) -> int:
        return self._refs.get(digest, 0)

    def pinned(self, digest: str) -> bool:
        return digest in self._pins

    def protected(self, digest: str) -> bool:
        """True if *digest* may be neither evicted nor garbage-collected."""
        return self._refs.get(digest, 0) > 0 or digest in self._pins

    # -- data plane --------------------------------------------------------------

    def put(self, data: bytes, digest: Optional[str] = None) -> str:
        """Store *data*; returns its digest.  Never fails: identical bytes
        dedup to the existing blob, and eviction makes room if bounded.

        A caller that already verified *data* against its content address
        passes it as *digest* and the bytes are not hashed again.  The
        reference engine (:func:`repro.sim.reference_engine`) re-hashes
        anyway and raises :class:`CasError` if the two disagree."""
        if digest is None or not _opts.ENABLED:
            computed = blob_digest(data)
            if digest is not None and digest != computed:
                raise CasError(f"put: bytes hash to {computed[:19]}..., "
                               f"not {digest[:19]}...")
            digest = computed
        self.stats.puts += 1
        self.stats.bytes_in += len(data)
        if digest in self._blobs:
            self.stats.dedup_hits += 1
            self._blobs.move_to_end(digest)
            return digest
        self._evict_for(len(data))
        self._blobs[digest] = data
        self._size += len(data)
        self.stats.bytes_stored += len(data)
        return digest

    def get(self, digest: str) -> bytes:
        """Fetch a blob (LRU-touching); raises :class:`CasError` on miss."""
        try:
            data = self._blobs[digest]
        except KeyError:
            self.stats.misses += 1
            raise CasError(f"no blob {digest[:19]}... in store")
        self._blobs.move_to_end(digest)
        self.stats.hits += 1
        return data

    # -- reference plane ----------------------------------------------------------

    def incref(self, digest: str) -> None:
        if digest not in self._blobs:
            raise CasError(f"cannot reference absent blob {digest[:19]}...")
        self._refs[digest] = self._refs.get(digest, 0) + 1

    def decref(self, digest: str) -> None:
        n = self._refs.get(digest, 0)
        if n <= 0:
            raise CasError(f"refcount underflow on {digest[:19]}...")
        if n == 1:
            del self._refs[digest]
        else:
            self._refs[digest] = n - 1

    def pin(self, digest: str) -> None:
        if digest not in self._blobs:
            raise CasError(f"cannot pin absent blob {digest[:19]}...")
        self._pins.add(digest)

    def unpin(self, digest: str) -> None:
        self._pins.discard(digest)

    # -- reclamation --------------------------------------------------------------

    def _evict_for(self, incoming: int) -> None:
        if self.max_bytes is None:
            return
        for digest in list(self._blobs):  # oldest (LRU) first
            if self._size + incoming <= self.max_bytes:
                break
            if self.protected(digest):
                continue
            data = self._blobs.pop(digest)
            self._size -= len(data)
            self.stats.evictions += 1
            self.stats.bytes_evicted += len(data)

    def discard(self, digest: str) -> bool:
        """Drop one specific blob if present and unprotected; returns
        whether it was removed.  The precise tool for owners reclaiming
        their own blobs on a shared store (the build cache's GC)."""
        if digest not in self._blobs or self.protected(digest):
            return False
        data = self._blobs.pop(digest)
        self._size -= len(data)
        self.stats.gc_reclaimed += 1
        self.stats.gc_bytes_reclaimed += len(data)
        return True

    def gc(self, keep: Iterable[str] = ()) -> list[str]:
        """Reclaim every blob that is unreferenced, unpinned, and not in
        *keep*; returns the reclaimed digests (LRU order)."""
        keep = set(keep)
        reclaimed: list[str] = []
        self.stats.gc_runs += 1
        for digest in list(self._blobs):
            if self.protected(digest) or digest in keep:
                continue
            data = self._blobs.pop(digest)
            self._size -= len(data)
            reclaimed.append(digest)
            self.stats.gc_reclaimed += 1
            self.stats.gc_bytes_reclaimed += len(data)
        return reclaimed
