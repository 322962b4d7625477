"""/etc/subuid and /etc/subgid: subordinate ID range configuration.

Each line is ``name_or_id:start:count`` (subuid(5)).  Sysadmins (or
``useradd``/``usermod --add-subuids``) maintain these files; the privileged
helpers consult them to decide which maps an unprivileged user may install
(paper §2.1.2, §4.1, Figures 1 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import ReproError
from ..kernel.types import ID_MAX, check_id

__all__ = ["SubidEntry", "SubidFile", "SubidError",
           "SUB_ID_MIN", "SUB_ID_COUNT"]

#: Default first subordinate ID useradd hands out (login.defs SUB_UID_MIN).
SUB_ID_MIN = 100000

#: Default range size per user (login.defs SUB_UID_COUNT).
SUB_ID_COUNT = 65536


class SubidError(ReproError):
    """Malformed subid configuration or allocation failure."""


@dataclass(frozen=True)
class SubidEntry:
    """One subordinate range grant."""

    owner: str  # username or decimal UID string
    start: int
    count: int

    def __post_init__(self) -> None:
        check_id(self.start, "start")
        if self.count <= 0:
            raise SubidError(f"count must be positive: {self.count}")
        if self.start + self.count - 1 > ID_MAX:
            raise SubidError("range exceeds 32-bit ID space")

    @property
    def end(self) -> int:
        """Last subordinate ID (inclusive)."""
        return self.start + self.count - 1

    def contains_range(self, start: int, count: int) -> bool:
        return self.start <= start and start + count - 1 <= self.end

    def overlaps(self, other: "SubidEntry") -> bool:
        return self.start <= other.end and other.start <= self.end

    def format(self) -> str:
        return f"{self.owner}:{self.start}:{self.count}"


class SubidFile:
    """Parsed view of an /etc/subuid or /etc/subgid file."""

    def __init__(self, entries: Iterable[SubidEntry] = ()):
        self._entries: list[SubidEntry] = list(entries)

    @classmethod
    def parse(cls, text: str) -> "SubidFile":
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) != 3:
                raise SubidError(f"line {lineno}: expected name:start:count")
            try:
                entries.append(SubidEntry(parts[0], int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise SubidError(f"line {lineno}: {exc}") from exc
        return cls(entries)

    def format(self) -> str:
        return "".join(e.format() + "\n" for e in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def entries_for(self, username: str, uid: Optional[int] = None
                    ) -> list[SubidEntry]:
        """Grants applying to a user, matched by name or decimal UID
        (subuid(5) allows both forms)."""
        keys = {username}
        if uid is not None:
            keys.add(str(uid))
        return [e for e in self._entries if e.owner in keys]

    def authorizes(self, username: str, uid: Optional[int],
                   start: int, count: int) -> bool:
        """Is host range [start, start+count) within one of the user's grants?"""
        return any(
            e.contains_range(start, count)
            for e in self.entries_for(username, uid)
        )

    def add(self, entry: SubidEntry) -> None:
        for existing in self._entries:
            if existing.overlaps(entry):
                raise SubidError(
                    f"range {entry.start}:{entry.count} overlaps grant for "
                    f"{existing.owner} ({existing.start}:{existing.count})"
                )
        self._entries.append(entry)

    def allocate(self, username: str, count: int = SUB_ID_COUNT) -> SubidEntry:
        """useradd-style automatic allocation: first gap >= count above
        SUB_ID_MIN, non-overlapping with every existing grant."""
        taken = sorted((e.start, e.end) for e in self._entries)
        candidate = SUB_ID_MIN
        for start, end in taken:
            if candidate + count - 1 < start:
                break
            candidate = max(candidate, end + 1)
        if candidate + count - 1 > ID_MAX:
            raise SubidError("subordinate ID space exhausted")
        entry = SubidEntry(username, candidate, count)
        self._entries.append(entry)
        return entry
