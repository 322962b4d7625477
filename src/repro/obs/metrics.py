"""Counters and bounded buffers backing the tracer.

Kept free of any kernel imports so the observability layer sits *below*
:mod:`repro.kernel` in the import graph (the kernel imports us, never the
other way around).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Generic, Iterator, TypeVar

__all__ = ["RingBuffer", "TraceMetrics"]

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """A bounded event buffer: old events are evicted, but we remember how
    many were dropped so exports can say the record is partial."""

    def __init__(self, maxlen: int):
        if maxlen <= 0:
            raise ValueError(f"ring size must be positive: {maxlen}")
        self.maxlen = maxlen
        self._items: deque[T] = deque(maxlen=maxlen)
        self.dropped = 0

    def append(self, item: T) -> None:
        if len(self._items) == self.maxlen:
            self.dropped += 1
        self._items.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def clear(self) -> None:
        self._items.clear()
        self.dropped = 0

    @property
    def total_seen(self) -> int:
        """Events ever appended (kept + dropped)."""
        return len(self._items) + self.dropped


class TraceMetrics:
    """Aggregate counters, never evicted (unlike the event ring).

    * ``syscalls``: per-syscall call counts, **top-level calls only** (what
      the process issued, not what a wrapper issued internally).
    * ``errnos``: per-errno failure counts at **any** depth — an EPERM that a
      fakeroot wrapper absorbed still fired in the kernel and still counts
      (that is exactly the §5.1 "absorbed" signal, and what the errno-
      coverage test walks).
    * ``errnos_by_syscall``: ``(syscall, errno)`` pair counts, any depth.
    * ``cache``: build-cache events (``hit`` / ``miss`` / ``store``) —
      what the CI cache-smoke job compares cold vs. warm.
    * ``net``: deploy-time distribution counters (registry egress bytes,
      peer-broadcast bytes, makespan in µs, dedup skips) — what the
      deploy-scaling smoke job compares across strategies.
    * ``build``: parallel-build scheduling counters (tasks run, queue
      wait in µs, in-flight dedup hits, makespan in µs) — what the
      build-scaling smoke job compares across parallelism levels.
    * ``matrix``: build-matrix orchestration counters (cells expanded,
      unique cell builds, total/unique stage builds, amplification
      ×100, images pushed) — what the matrix-smoke job gates on.
    * ``snapshots``: instruction-boundary snapshot work (``walk_full`` /
      ``walk_dirty`` walks, ``memo_hit`` / ``memo_miss`` member digests)
      — what the coldbuild-smoke job compares against the reference
      full-walk oracle.
    * ``supply``: supply-chain events (``signed`` / ``unsigned_pull`` /
      ``verify_ok`` / ``verify_fail`` / ``gate_pass`` / ``gate_reject``
      / ``attested``) — what the policy-smoke job gates on.
    """

    def __init__(self):
        self.syscalls: Counter[str] = Counter()
        self.errnos: Counter[str] = Counter()
        self.errnos_by_syscall: Counter[tuple[str, str]] = Counter()
        self.cache: Counter[str] = Counter()
        self.net: Counter[str] = Counter()
        self.build: Counter[str] = Counter()
        self.matrix: Counter[str] = Counter()
        self.snapshots: Counter[str] = Counter()
        self.supply: Counter[str] = Counter()

    def count_errno(self, name: str, errno_name: str) -> None:
        self.errnos[errno_name] += 1
        self.errnos_by_syscall[(name, errno_name)] += 1

    def count_cache(self, event: str) -> None:
        self.cache[event] += 1

    def count_net(self, event: str, n: int = 1) -> None:
        self.net[event] += n

    def count_build(self, event: str, n: int = 1) -> None:
        self.build[event] += n

    def count_matrix(self, event: str, n: int = 1) -> None:
        self.matrix[event] += n

    def count_snapshot(self, event: str, n: int = 1) -> None:
        self.snapshots[event] += n

    def count_supply(self, event: str, n: int = 1) -> None:
        self.supply[event] += n

    def clear(self) -> None:
        self.syscalls.clear()
        self.errnos.clear()
        self.errnos_by_syscall.clear()
        self.cache.clear()
        self.net.clear()
        self.build.clear()
        self.matrix.clear()
        self.snapshots.clear()
        self.supply.clear()

    def snapshot(self) -> dict:
        """A JSON-friendly copy (sorted keys for deterministic exports)."""
        return {
            "syscalls": dict(sorted(self.syscalls.items())),
            "errnos": dict(sorted(self.errnos.items())),
            "errnos_by_syscall": {
                f"{sc}:{en}": n
                for (sc, en), n in sorted(self.errnos_by_syscall.items())
            },
            "cache": dict(sorted(self.cache.items())),
            "net": dict(sorted(self.net.items())),
            "build": dict(sorted(self.build.items())),
            "matrix": dict(sorted(self.matrix.items())),
            "snapshot": dict(sorted(self.snapshots.items())),
            "supply": dict(sorted(self.supply.items())),
        }
