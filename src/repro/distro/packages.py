"""Distribution package model.

A package is payload files (with *named* owners, resolved against the
image's /etc/passwd at install time, like rpm/dpkg do) plus maintainer
scripts.  The privileged operations packages perform during install —
chown(2) to package users, setuid bits, device nodes, file capabilities —
are exactly what makes unprivileged container build hard (paper §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import KernelError, PackageError
from ..kernel import Syscalls

__all__ = ["PackageFile", "Package", "PackageDb"]


@dataclass(frozen=True)
class PackageFile:
    """One payload entry.

    ``owner``/``group`` are names (resolved in-image).  ``caps`` models file
    capabilities (applied via the ``security.capability`` xattr).  ``exe_*``
    wire executables to registered userland impls; ``exe_static`` marks
    statically linked binaries (the LD_PRELOAD blind spot, §5.1).
    """

    path: str  # absolute in-image path
    ftype: str = "f"  # f, d, l
    mode: int = 0o644
    owner: str = "root"
    group: str = "root"
    content: bytes = b""
    target: str = ""  # symlink target
    exe_impl: Optional[str] = None
    exe_arch: str = "noarch"
    exe_static: bool = False
    caps: Optional[str] = None


#: Characters that would corrupt the ``name|version`` line format of
#: :class:`PackageDb` — ``|`` splits the fields, newlines split records.
_DB_UNSAFE = ("|", "\n", "\r")


@dataclass(frozen=True)
class Package:
    """One installable package."""

    name: str
    version: str
    release: str = "1"
    arch: str = "x86_64"
    summary: str = ""
    files: tuple[PackageFile, ...] = ()
    requires: tuple[str, ...] = ()
    pre_script: Optional[str] = None  # %pre / preinst
    post_script: Optional[str] = None  # %post / postinst

    def __post_init__(self):
        # the database is line-oriented ``name|version`` — a name or
        # version carrying the delimiters would round-trip as a
        # *different* installed set (and poison any SBOM built from it),
        # so reject at construction instead of corrupting silently
        for label in ("name", "version"):
            value = getattr(self, label)
            if not value:
                raise PackageError(f"package {label} must be non-empty")
            bad = [c for c in _DB_UNSAFE if c in value]
            if bad:
                raise PackageError(
                    f"package {label} {value!r} contains characters "
                    f"unrepresentable in the package database: {bad!r}")

    @property
    def nevra(self) -> str:
        """name-version-release.arch, the rpm transcript form."""
        return f"{self.name}-{self.version}-{self.release}.{self.arch}"



class PackageDb:
    """The installed-packages database of one image tree.

    One simple line-oriented file serves for both rpmdb
    (/var/lib/rpm/packages) and dpkg status (/var/lib/dpkg/status).
    """

    def __init__(self, sys: Syscalls, path: str):
        self.sys = sys
        self.path = path

    def _read(self) -> dict[str, str]:
        try:
            raw = self.sys.read_file(self.path).decode()
        except KernelError:
            return {}
        out = {}
        for line in raw.splitlines():
            if not line.strip():
                continue
            name, _, version = line.partition("|")
            out[name] = version
        return out

    def installed(self) -> dict[str, str]:
        """name -> version of everything installed."""
        return self._read()

    def is_installed(self, name: str) -> bool:
        return name in self._read()

    def add(self, pkg: Package) -> None:
        entries = self._read()
        entries[pkg.name] = pkg.version
        self._store(entries)

    def remove(self, name: str) -> None:
        entries = self._read()
        entries.pop(name, None)
        self._store(entries)

    def _store(self, entries: dict[str, str]) -> None:
        parent = self.path.rsplit("/", 1)[0]
        self.sys.mkdir_p(parent)
        body = "".join(f"{n}|{v}\n" for n, v in sorted(entries.items()))
        self.sys.write_file(self.path, body.encode())


def resolve_dependencies(
    wanted: list[str],
    available: dict[str, Package],
    installed: dict[str, str],
) -> list[Package]:
    """Topologically ordered install transaction (dependencies first).

    Raises :class:`PackageError` for unknown packages or dependency cycles.
    """
    order: list[Package] = []
    seen: set[str] = set(installed)
    visiting: set[str] = set()

    def visit(name: str) -> None:
        if name in seen:
            return
        if name in visiting:
            raise PackageError(f"dependency cycle involving {name!r}")
        if name not in available:
            raise PackageError(f"no package {name!r} available")
        visiting.add(name)
        for dep in available[name].requires:
            visit(dep)
        visiting.discard(name)
        seen.add(name)
        order.append(available[name])

    for name in wanted:
        visit(name)
    return order
