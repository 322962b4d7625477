"""UID/GID maps for user namespaces (paper §2.1.1).

A map is a set of one-to-one range correspondences between *inside*
(namespace) IDs and *outside* (host/parent) IDs, exactly like the kernel's
``/proc/<pid>/uid_map``.  Because each entry maps a contiguous range
one-to-one, there is never squashing of multiple IDs onto one (§2.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..errors import Errno, KernelError
from .types import ID_MAX, check_id

__all__ = ["IdMapEntry", "IdMap", "IDENTITY_MAP"]


@dataclass(frozen=True)
class IdMapEntry:
    """One line of a uid_map/gid_map file: ``inside outside count``."""

    inside_start: int
    outside_start: int
    count: int

    def __post_init__(self) -> None:
        check_id(self.inside_start, "inside_start")
        check_id(self.outside_start, "outside_start")
        if not isinstance(self.count, int) or self.count <= 0:
            raise ValueError(f"count must be a positive int: {self.count!r}")
        if self.inside_start + self.count - 1 > ID_MAX:
            raise ValueError("inside range exceeds 32-bit ID space")
        if self.outside_start + self.count - 1 > ID_MAX:
            raise ValueError("outside range exceeds 32-bit ID space")

    @property
    def inside_end(self) -> int:
        """Last inside ID covered (inclusive)."""
        return self.inside_start + self.count - 1

    @property
    def outside_end(self) -> int:
        """Last outside ID covered (inclusive)."""
        return self.outside_start + self.count - 1

    def contains_inside(self, ns_id: int) -> bool:
        return self.inside_start <= ns_id <= self.inside_end

    def contains_outside(self, host_id: int) -> bool:
        return self.outside_start <= host_id <= self.outside_end

    def format(self) -> str:
        """Render in ``/proc/self/uid_map`` column format."""
        return f"{self.inside_start:>10} {self.outside_start:>10} {self.count:>10}"


class IdMap:
    """An ordered, validated collection of :class:`IdMapEntry`.

    Raises :class:`KernelError` with ``EINVAL`` for ill-formed maps, matching
    what a write to ``/proc/<pid>/uid_map`` would return.
    """

    MAX_ENTRIES = 340  # kernel limit since Linux 4.15 (5 before that)

    def __init__(self, entries: Iterable[IdMapEntry]):
        ents = list(entries)
        if not ents:
            raise KernelError(Errno.EINVAL, "empty ID map")
        if len(ents) > self.MAX_ENTRIES:
            raise KernelError(
                Errno.EINVAL, f"too many map entries ({len(ents)} > {self.MAX_ENTRIES})"
            )
        # Ranges may not overlap on either side; this is what guarantees the
        # map is one-to-one in both directions.
        for i, a in enumerate(ents):
            for b in ents[i + 1 :]:
                if a.inside_start <= b.inside_end and b.inside_start <= a.inside_end:
                    raise KernelError(Errno.EINVAL, "overlapping inside ID ranges")
                if (
                    a.outside_start <= b.outside_end
                    and b.outside_start <= a.outside_end
                ):
                    raise KernelError(Errno.EINVAL, "overlapping outside ID ranges")
        self._entries: tuple[IdMapEntry, ...] = tuple(ents)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls) -> "IdMap":
        """The initial namespace's map: every ID maps to itself."""
        return cls([IdMapEntry(0, 0, ID_MAX + 1)])

    @classmethod
    def single(cls, inside: int, outside: int) -> "IdMap":
        """An unprivileged map: exactly one ID (paper §2.1.3)."""
        return cls([IdMapEntry(inside, outside, 1)])

    @classmethod
    def parse(cls, text: str) -> "IdMap":
        """Parse uid_map file syntax: one ``inside outside count`` per line."""
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise KernelError(Errno.EINVAL, f"bad map line: {line!r}")
            try:
                entries.append(IdMapEntry(int(parts[0]), int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise KernelError(Errno.EINVAL, str(exc)) from exc
        return cls(entries)

    # -- queries ---------------------------------------------------------------

    @property
    def entries(self) -> tuple[IdMapEntry, ...]:
        return self._entries

    def __iter__(self) -> Iterator[IdMapEntry]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdMap):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{e.inside_start}->{e.outside_start}x{e.count}" for e in self._entries
        )
        return f"IdMap({inner})"

    def to_outside(self, ns_id: int) -> Optional[int]:
        """Translate a namespace ID to the host ID, or None if unmapped."""
        for e in self._entries:
            if e.contains_inside(ns_id):
                return e.outside_start + (ns_id - e.inside_start)
        return None

    def to_inside(self, host_id: int) -> Optional[int]:
        """Translate a host ID into the namespace, or None if unmapped."""
        for e in self._entries:
            if e.contains_outside(host_id):
                return e.inside_start + (host_id - e.outside_start)
        return None

    def mapped_count(self) -> int:
        """Total number of IDs covered by the map."""
        return sum(e.count for e in self._entries)

    def is_single(self) -> bool:
        """True for the one-ID maps unprivileged processes may create."""
        return len(self._entries) == 1 and self._entries[0].count == 1

    def format(self) -> str:
        """Render the whole map in ``/proc/self/uid_map`` format."""
        return "\n".join(e.format() for e in self._entries) + "\n"


#: Shared identity map used by the initial user namespace.
IDENTITY_MAP = IdMap.identity()
