"""A tar-like archive format for the simulated filesystem.

Used for package payloads (rpm's cpio, deb's data.tar), image layers, and
registry blobs.  Members carry full ownership/mode metadata, so the paper's
ownership-flattening discussion (§6.1 item 2: Charliecloud pushes root:root
with setuid/setgid cleared) is observable in the archives themselves.

Packing goes through a :class:`~repro.kernel.Syscalls` interface — so when
packed under a fakeroot wrapper, the *lies* are what gets archived.  That is
precisely fakeroot's historical purpose: "users to create archives with
files in them with root permissions/ownership" (§5.1), and the §6.2.2
"preserve file ownership" recommendation falls out for free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import KernelError, ReproError
from .kernel import FileType, Syscalls

__all__ = ["TarMember", "TarArchive", "ArchiveError", "member_of"]


class ArchiveError(ReproError):
    """Malformed archive or failed pack/extract."""


_FTYPE_CODE = {
    FileType.REG: "f", FileType.DIR: "d", FileType.SYMLINK: "l",
    FileType.CHR: "c", FileType.BLK: "b", FileType.FIFO: "p",
    FileType.SOCK: "s",
}
_CODE_FTYPE = {v: k for k, v in _FTYPE_CODE.items()}


@dataclass(frozen=True)
class TarMember:
    """One archive entry.  ``uid``/``gid`` are numeric as in real tar."""

    path: str  # relative, no leading slash
    ftype: FileType
    mode: int
    uid: int
    gid: int
    data: bytes = b""
    target: str = ""
    rdev: tuple[int, int] = (0, 0)
    exe_impl: Optional[str] = None
    exe_arch: str = "noarch"
    exe_static: bool = False
    xattrs: tuple[tuple[str, bytes], ...] = ()

    def flattened(self) -> "TarMember":
        """Ownership flattened to root:root, setuid/setgid cleared — what
        Charliecloud does on push 'to avoid leaking site IDs' (§6.1)."""
        return replace(self, uid=0, gid=0, mode=self.mode & ~0o6000)


def member_of(sys: Syscalls, full: str, relpath: str, st=None) -> TarMember:
    """Build the archive member for one path as seen through *sys*.

    The single implementation shared by :meth:`TarArchive.pack` and the
    incremental snapshot walker, so both produce bit-identical members.
    The path is resolved once: metadata (including executable simulation
    metadata) rides on the ``lstat`` result, and only regular files pay
    for a content read."""
    if st is None:
        st = sys.lstat(full)
    data = b""
    target = ""
    if st.ftype is FileType.REG:
        data = sys.read_file(full)
    elif st.ftype is FileType.SYMLINK:
        target = sys.readlink(full)
    xattrs = []
    try:
        for name in sys.listxattr(full):
            xattrs.append((name, sys.getxattr(full, name)))
    except KernelError:
        pass
    return TarMember(
        path=relpath, ftype=st.ftype, mode=st.st_mode & 0o7777,
        uid=st.st_uid, gid=st.st_gid, data=data, target=target,
        rdev=st.st_rdev, exe_impl=st.exe_impl, exe_arch=st.exe_arch,
        exe_static=st.exe_static, xattrs=tuple(sorted(xattrs)),
    )


class TarArchive:
    """An ordered, immutable collection of members.

    ``members`` is a tuple of frozen :class:`TarMember` values, so one
    decoded archive can be shared by every node that pulls the same layer
    digest (see :meth:`repro.containers.Registry.pull`)."""

    def __init__(self, members: Iterable[TarMember] = ()):
        self.members: tuple[TarMember, ...] = tuple(members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def member(self, path: str) -> TarMember:
        for m in self.members:
            if m.path == path:
                return m
        raise ArchiveError(f"no member {path!r}")

    def total_bytes(self) -> int:
        return sum(len(m.data) for m in self.members)

    # -- digests -----------------------------------------------------------------

    def digest(self) -> str:
        """Content-addressed identity (sha256 over the serialization)."""
        return "sha256:" + hashlib.sha256(self.serialize()).hexdigest()

    # -- pack / extract -----------------------------------------------------------

    @classmethod
    def pack(cls, sys: Syscalls, root: str, *, flatten: bool = False
             ) -> "TarArchive":
        """Archive the tree under *root* as seen through *sys*.

        Seen *through sys* matters: under a fakeroot wrapper, stat lies
        (ownership, device nodes) are captured into the archive.
        """
        members: list[TarMember] = []

        def walk(dirpath: str, rel: str) -> None:
            for entry in sys.readdir(dirpath):
                full = f"{dirpath.rstrip('/')}/{entry.name}"
                relpath = f"{rel}/{entry.name}" if rel else entry.name
                st = sys.lstat(full)
                members.append(member_of(sys, full, relpath, st))
                if st.ftype is FileType.DIR:
                    walk(full, relpath)

        walk(root, "")
        archive = cls(members)
        if flatten:
            archive = cls([m.flattened() for m in members])
        return archive

    def extract(self, sys: Syscalls, dest: str, *,
                preserve_owner: bool = False,
                on_chown_error: str = "raise") -> list[str]:
        """Unpack under *dest* through *sys*.

        ``preserve_owner=False`` is what unprivileged tar does: "downstream
        Type III users that pull the image will change ownership to
        themselves anyway, like tar(1)" (§5.2).  With ``preserve_owner=True``
        each member is chowned — which in a Type III container fails for
        unmapped IDs; ``on_chown_error`` may be "raise", "warn" (collect) or
        "ignore".  Returns the list of chown warnings.
        """
        warnings: list[str] = []
        for m in self.members:
            path = f"{dest.rstrip('/')}/{m.path}"
            if m.ftype is FileType.DIR:
                if not sys.exists(path):
                    sys.mkdir(path, 0o755)
            elif m.ftype is FileType.SYMLINK:
                if sys.exists(path):
                    sys.unlink(path)
                sys.symlink(m.target, path)
            elif m.ftype is FileType.REG:
                sys.write_file(path, m.data)
                res = sys.mnt_ns.resolve(path, sys.cred, follow=False,
                                         cwd=sys.getcwd())
                res.inode.exe_impl = m.exe_impl
                res.inode.exe_arch = m.exe_arch
                res.inode.exe_static = m.exe_static
                res.fs.touch(res.inode)
            elif m.ftype in (FileType.CHR, FileType.BLK):
                sys.mknod(path, m.ftype, m.mode & 0o777, rdev=m.rdev)
            else:
                sys.mknod(path, m.ftype, m.mode & 0o777)
            if m.ftype is not FileType.SYMLINK:
                sys.chmod(path, m.mode)
            if preserve_owner and m.ftype is not FileType.SYMLINK:
                try:
                    sys.chown(path, m.uid, m.gid, follow=False)
                except KernelError as err:
                    msg = (f"tar: {m.path}: chown to {m.uid}:{m.gid} "
                           f"failed: {err.strerror}")
                    if on_chown_error == "raise":
                        raise ArchiveError(msg) from err
                    if on_chown_error == "warn":
                        warnings.append(msg)
            for name, value in m.xattrs:
                try:
                    sys.setxattr(path, name, value)
                except KernelError:
                    warnings.append(f"tar: {m.path}: setxattr {name} failed")
        return warnings

    def apply_diff(self, sys: Syscalls, dest: str) -> None:
        """Apply this archive as an overlay *diff*: whiteout members
        (character devices with mode 0) delete the corresponding path;
        everything else is written in place."""
        for m in self.members:
            path = f"{dest.rstrip('/')}/{m.path}"
            if m.ftype is FileType.CHR and m.mode == 0:  # whiteout
                try:
                    st = sys.lstat(path)
                except KernelError:
                    continue
                if st.ftype is FileType.DIR:
                    continue  # directory whiteouts not modelled
                sys.unlink(path)
                continue
            # handle type changes: replace whatever is in the way
            try:
                existing = sys.lstat(path)
            except KernelError:
                existing = None
            if existing is not None and existing.ftype is not m.ftype:
                if existing.ftype is FileType.DIR:
                    self._rm_dir_contents(sys, path)
                    sys.rmdir(path)
                else:
                    sys.unlink(path)
                existing = None
            if m.ftype is FileType.DIR:
                if existing is None:
                    sys.mkdir(path, m.mode & 0o777)
                sys.chmod(path, m.mode)
                continue
            if m.ftype is FileType.SYMLINK:
                if existing is not None:
                    sys.unlink(path)
                sys.symlink(m.target, path)
                continue
            sys.write_file(path, m.data)
            res = sys.mnt_ns.resolve(path, sys.cred, follow=False,
                                     cwd=sys.getcwd())
            res.inode.exe_impl = m.exe_impl
            res.inode.exe_arch = m.exe_arch
            res.inode.exe_static = m.exe_static
            res.fs.touch(res.inode)
            sys.chmod(path, m.mode)
            try:
                sys.chown(path, m.uid, m.gid, follow=False)
            except KernelError:
                pass

    @staticmethod
    def _rm_dir_contents(sys: Syscalls, path: str) -> None:
        for entry in sys.readdir(path):
            child = f"{path}/{entry.name}"
            if entry.ftype is FileType.DIR:
                TarArchive._rm_dir_contents(sys, child)
                sys.rmdir(child)
            else:
                sys.unlink(child)

    # -- serialization ---------------------------------------------------------------

    def serialize(self) -> bytes:
        """Deterministic byte encoding (header line + hex payload per member)."""
        out = []
        for m in self.members:
            xattr_part = ";".join(f"{n}={v.hex()}" for n, v in m.xattrs)
            header = "|".join([
                m.path, _FTYPE_CODE[m.ftype], oct(m.mode), str(m.uid),
                str(m.gid), m.target, f"{m.rdev[0]},{m.rdev[1]}",
                m.exe_impl or "", m.exe_arch, "1" if m.exe_static else "0",
                xattr_part,
            ])
            out.append(header + "\n" + m.data.hex() + "\n")
        return "".join(out).encode()

    @classmethod
    def deserialize(cls, blob: bytes) -> "TarArchive":
        lines = blob.decode().splitlines()
        if len(lines) % 2:
            raise ArchiveError("truncated archive")
        members = []
        for i in range(0, len(lines), 2):
            parts = lines[i].split("|")
            if len(parts) != 11:
                raise ArchiveError(f"bad member header: {lines[i]!r}")
            (path, code, mode_s, uid_s, gid_s, target, rdev_s,
             impl, arch, static_s, xattr_part) = parts
            try:
                rmaj, rmin = rdev_s.split(",")
                xattrs = tuple(
                    (n, bytes.fromhex(v))
                    for n, _, v in (x.partition("=")
                                    for x in xattr_part.split(";") if x)
                )
                members.append(TarMember(
                    path=path, ftype=_CODE_FTYPE[code], mode=int(mode_s, 8),
                    uid=int(uid_s), gid=int(gid_s),
                    data=bytes.fromhex(lines[i + 1]),
                    target=target, rdev=(int(rmaj), int(rmin)),
                    exe_impl=impl or None, exe_arch=arch,
                    exe_static=static_s == "1", xattrs=xattrs,
                ))
            except (ValueError, KeyError) as exc:
                raise ArchiveError(f"bad member {path!r}: {exc}") from exc
        return cls(members)
