"""The fakeroot lie database.

fakeroot(1) "remembers which lies it told, to make later intercepted system
calls return consistent results" (paper §5.1).  The database is keyed by
(device, inode) — like the real implementations — so hard links share lies
and rename is free.

Serialization supports both persistence styles of Table 1: explicit
save/restore to a file (fakeroot, fakeroot-ng) and an always-on database
(pseudo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import ReproError
from ..kernel import FileType

__all__ = ["Lie", "LieDatabase", "LieFormatError"]


class LieFormatError(ReproError):
    """Corrupt serialized lie database."""


@dataclass(frozen=True)
class Lie:
    """Faked metadata for one inode.  ``None`` fields are not faked."""

    uid: Optional[int] = None
    gid: Optional[int] = None
    mode: Optional[int] = None
    ftype: Optional[FileType] = None
    rdev: Optional[tuple[int, int]] = None
    xattrs: tuple[tuple[str, bytes], ...] = ()

    def merged_with(self, other: "Lie") -> "Lie":
        """Later lies override earlier ones field-wise."""
        xattrs = dict(self.xattrs)
        xattrs.update(dict(other.xattrs))
        return Lie(
            uid=other.uid if other.uid is not None else self.uid,
            gid=other.gid if other.gid is not None else self.gid,
            mode=other.mode if other.mode is not None else self.mode,
            ftype=other.ftype if other.ftype is not None else self.ftype,
            rdev=other.rdev if other.rdev is not None else self.rdev,
            xattrs=tuple(sorted(xattrs.items())),
        )


_FTYPE_CODE = {
    FileType.REG: "f", FileType.DIR: "d", FileType.SYMLINK: "l",
    FileType.CHR: "c", FileType.BLK: "b", FileType.FIFO: "p",
    FileType.SOCK: "s",
}
_CODE_FTYPE = {v: k for k, v in _FTYPE_CODE.items()}
_NONE = "-"


class LieDatabase:
    """All lies currently in force, keyed by (device_id, inode number)."""

    def __init__(self):
        self._lies: dict[tuple[int, int], Lie] = {}

    def __len__(self) -> int:
        return len(self._lies)

    def __iter__(self) -> Iterator[tuple[tuple[int, int], Lie]]:
        return iter(sorted(self._lies.items()))

    def get(self, dev: int, ino: int) -> Optional[Lie]:
        return self._lies.get((dev, ino))

    def record(self, dev: int, ino: int, lie: Lie) -> None:
        """Merge *lie* into the entry for (dev, ino)."""
        key = (dev, ino)
        existing = self._lies.get(key)
        self._lies[key] = existing.merged_with(lie) if existing else lie

    def forget(self, dev: int, ino: int) -> None:
        self._lies.pop((dev, ino), None)

    # -- serialization -------------------------------------------------------------

    def dump(self) -> bytes:
        """Serialize: one line per inode,
        ``dev ino uid gid mode ftype major minor [name=hex ...]``."""
        lines = []
        for (dev, ino), lie in sorted(self._lies.items()):
            fields = [
                str(dev), str(ino),
                _NONE if lie.uid is None else str(lie.uid),
                _NONE if lie.gid is None else str(lie.gid),
                _NONE if lie.mode is None else oct(lie.mode),
                _NONE if lie.ftype is None else _FTYPE_CODE[lie.ftype],
                _NONE if lie.rdev is None else f"{lie.rdev[0]},{lie.rdev[1]}",
            ]
            for name, value in lie.xattrs:
                fields.append(f"{name}={value.hex()}")
            lines.append(" ".join(fields))
        return ("\n".join(lines) + "\n" if lines else "").encode()

    @classmethod
    def load(cls, data: bytes) -> "LieDatabase":
        db = cls()
        for lineno, line in enumerate(data.decode().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 7:
                raise LieFormatError(f"line {lineno}: too few fields")
            try:
                dev, ino = int(parts[0]), int(parts[1])
                uid = None if parts[2] == _NONE else int(parts[2])
                gid = None if parts[3] == _NONE else int(parts[3])
                mode = None if parts[4] == _NONE else int(parts[4], 8)
                ftype = None if parts[5] == _NONE else _CODE_FTYPE[parts[5]]
                if parts[6] == _NONE:
                    rdev = None
                else:
                    a, b = parts[6].split(",")
                    rdev = (int(a), int(b))
                xattrs = []
                for extra in parts[7:]:
                    name, _, hexval = extra.partition("=")
                    xattrs.append((name, bytes.fromhex(hexval)))
            except (ValueError, KeyError) as exc:
                raise LieFormatError(f"line {lineno}: {exc}") from exc
            db._lies[(dev, ino)] = Lie(uid, gid, mode, ftype, rdev,
                                       tuple(xattrs))
        return db
