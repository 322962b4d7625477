"""Mount namespaces and path resolution.

A :class:`MountNamespace` is a table of mounts (mountpoint path → filesystem
subtree).  Containers get their own mount namespace whose root is a bind of
the image tree (paper §2.1: "the mount namespace gives a process its own
mounts and filesystem tree, allowing the container to run a different
distribution than the host").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from ..errors import Errno, KernelError
from ..sim import opts as _opts
from .cred import Credentials
from .userns import UserNamespace
from .vfs import FileType, Filesystem, Inode, may_access

__all__ = ["MountFlags", "Mount", "MountNamespace", "Resolved", "normpath"]

_MAX_SYMLINKS = 40  # kernel ELOOP limit
#: Path-walk cache bounds: credential fingerprints per namespace, and
#: prefixes per fingerprint, before that level is emptied.
_WALK_CACHE_CREDS = 64
_WALK_CACHE_PREFIXES = 8192
_gen_of = attrgetter("gen")


def normpath(path: str) -> str:
    """Normalize an absolute path: collapse //, /./, resolve lexical '..'."""
    if not path.startswith("/"):
        raise KernelError(Errno.EINVAL, f"path not absolute: {path!r}")
    out: list[str] = []
    for comp in path.split("/"):
        if comp in ("", "."):
            continue
        if comp == "..":
            if out:
                out.pop()
        else:
            out.append(comp)
    return "/" + "/".join(out)


@dataclass(frozen=True)
class MountFlags:
    """Per-mount flags."""

    read_only: bool = False
    nosuid: bool = False
    nodev: bool = False


@dataclass
class Mount:
    """One row of the mount table.

    ``root_ino`` permits bind mounts: the mount's root may be any directory
    of ``fs``, not just the filesystem root.
    """

    mountpoint: str
    fs: Filesystem
    root_ino: int
    flags: MountFlags = field(default_factory=MountFlags)
    owning_userns: Optional[UserNamespace] = None

    @property
    def effective_nosuid(self) -> bool:
        """Mounts created by non-initial user namespaces are implicitly nosuid."""
        if self.flags.nosuid:
            return True
        ns = self.owning_userns
        return ns is not None and not ns.is_initial


@dataclass(frozen=True)
class Resolved:
    """Result of a path walk."""

    mount: Mount
    inode: Inode
    path: str  # canonical (symlink-free) path

    @property
    def fs(self) -> Filesystem:
        return self.mount.fs


@dataclass(frozen=True)
class ResolvedParent:
    """Result of resolving a path up to (but excluding) its final component."""

    mount: Mount
    dir_inode: Inode
    name: str
    dir_path: str

    @property
    def fs(self) -> Filesystem:
        return self.mount.fs


class MountNamespace:
    """A mount table plus the path-walking machinery.

    Path walks consult a cache of resolved directory prefixes, keyed by the
    prefix string and a fingerprint of the caller's credentials (fsuid,
    fsgid, euid, groups, caps, user namespace and its ID-map state).  Any
    mount-table change empties it; see :meth:`_prefix` for the staleness
    check against the VFS change journal.
    """

    def __init__(self, root_fs: Filesystem, *,
                 root_flags: MountFlags = MountFlags(),
                 owning_userns: Optional[UserNamespace] = None):
        self._mounts: dict[str, Mount] = {}
        self._mounts["/"] = Mount("/", root_fs, root_fs.root_ino, root_flags,
                                  owning_userns)
        self._walk_cache: dict[tuple, dict[str, tuple]] = {}

    # -- mount table manipulation -------------------------------------------------

    @property
    def mounts(self) -> dict[str, Mount]:
        return dict(self._mounts)

    def clone(self) -> "MountNamespace":
        """CLONE_NEWNS: a copy of the mount table (filesystems shared)."""
        dup = MountNamespace.__new__(MountNamespace)
        dup._mounts = {
            p: Mount(m.mountpoint, m.fs, m.root_ino, m.flags, m.owning_userns)
            for p, m in self._mounts.items()
        }
        dup._walk_cache = {}
        return dup

    def add_mount(
        self,
        mountpoint: str,
        fs: Filesystem,
        *,
        root_ino: int | None = None,
        flags: MountFlags = MountFlags(),
        owning_userns: Optional[UserNamespace] = None,
    ) -> Mount:
        mp = normpath(mountpoint)
        mount = Mount(mp, fs, fs.root_ino if root_ino is None else root_ino,
                      flags, owning_userns)
        self._mounts[mp] = mount
        self._walk_cache.clear()
        return mount

    def remove_mount(self, mountpoint: str) -> None:
        mp = normpath(mountpoint)
        if mp == "/":
            raise KernelError(Errno.EBUSY, "cannot unmount /")
        if mp not in self._mounts:
            raise KernelError(Errno.EINVAL, f"not a mountpoint: {mp}")
        del self._mounts[mp]
        self._walk_cache.clear()

    def set_root(self, fs: Filesystem, root_ino: int | None = None, *,
                 owning_userns: Optional[UserNamespace] = None,
                 flags: MountFlags = MountFlags()) -> None:
        """pivot_root-style: replace the root mount (container entry)."""
        self._mounts = {
            "/": Mount("/", fs, fs.root_ino if root_ino is None else root_ino,
                       flags, owning_userns)
        }
        self._walk_cache.clear()

    # -- path walking --------------------------------------------------------------
    #
    # One loop, :meth:`_advance`, implements the walk.  The uncached walk
    # (the oracle, selected by ``reference_engine()`` /
    # ``REPRO_SIM_REFERENCE=1``) runs it from the root over every
    # component.  The cached walk runs it over the last component only,
    # starting from the resolved directory part of the path, which
    # :meth:`_prefix` takes from a per-namespace cache when the change
    # journal says nothing it depended on has moved.

    def _rewalk(self, canon: str) -> tuple[Mount, Inode]:
        """Re-walk an already-canonical path (no symlinks/perm checks)."""
        mount = self._mounts["/"]
        inode = mount.fs.inode(mount.root_ino)
        cur = ""
        for name in canon.split("/")[1:]:
            cur = f"{cur}/{name}"
            m = self._mounts.get(cur)
            if m is not None:
                mount, inode = m, m.fs.inode(m.root_ino)
                continue
            child = mount.fs.lookup(inode, name)
            if child is None:
                raise KernelError(Errno.ENOENT, cur)
            inode = child
        return mount, inode

    def resolve(
        self,
        path: str,
        cred: Credentials,
        *,
        follow: bool = True,
        cwd: str = "/",
    ) -> Resolved:
        """Walk *path*, enforcing search permission, following symlinks.

        ``follow=False`` gives lstat-style behaviour for the final component.
        Relative paths are resolved against *cwd*.
        """
        mount, inode, canon = self._walk(path, cred, follow_final=follow, cwd=cwd)
        return Resolved(mount, inode, canon)

    def resolve_parent(
        self, path: str, cred: Credentials, *, cwd: str = "/"
    ) -> ResolvedParent:
        """Resolve everything but the final component (for create/unlink).

        The directory part is walked physically, like :meth:`resolve` and
        like Linux: ``ln/../x`` with ``ln -> d/sub`` names ``d/x``.  A final
        ``.`` or ``..`` is resolved physically too, and its canonical path
        then supplies the parent and the name.
        """
        if not path.startswith("/"):
            path = cwd.rstrip("/") + "/" + path
        parent_path, _, name = path.rstrip("/").rpartition("/")
        if name in ("", ".", ".."):
            _, _, canon_in = self._walk(path, cred, follow_final=True, cwd="/")
            if canon_in == "/":
                raise KernelError(Errno.EBUSY, "cannot operate on /")
            parent_path, _, name = canon_in.rpartition("/")
        parent_path = parent_path or "/"
        if _opts.ENABLED and ".." not in parent_path:
            mount, dir_inode, cur, _ = self._prefix(parent_path, cred)
            canon = cur or "/"
        else:
            mount, dir_inode, canon = self._walk(parent_path, cred,
                                                 follow_final=True, cwd="/")
        if not dir_inode.is_dir:
            raise KernelError(Errno.ENOTDIR, parent_path)
        return ResolvedParent(mount, dir_inode, name, canon)

    def _walk(
        self, path: str, cred: Credentials, *, follow_final: bool, cwd: str
    ) -> tuple[Mount, Inode, str]:
        if not path:
            raise KernelError(Errno.ENOENT, "empty path")
        if path[0] != "/":
            path = cwd.rstrip("/") + "/" + path
        if _opts.ENABLED:
            prefix, _, last = path.rpartition("/")
            if prefix and ".." not in prefix:
                mount, inode, cur, links = self._prefix(prefix, cred)
                mount, inode, cur, _ = self._advance(
                    [last], cred, follow_final, mount, inode, cur, links)
                return mount, inode, cur or "/"
        pending = path[1:].split("/")
        pending.reverse()  # treat as a stack
        mount = self._mounts["/"]
        mount, inode, cur, _ = self._advance(
            pending, cred, follow_final, mount, mount.fs.inode(mount.root_ino),
            "", 0)
        return mount, inode, cur or "/"

    def _prefix(self, prefix: str, cred: Credentials
                ) -> tuple[Mount, Inode, str, int]:
        """Resolve the directory part *prefix* of a path, every component
        followed, as ``(mount, inode, canonical path, symlinks used)``.

        A cache entry is used only while every directory searched and every
        symlink followed to build it still has the journal ``gen`` it had
        then, and every mount root it started from or crossed into still
        exists; a failed walk raises and stores nothing."""
        ns = cred.userns
        # Everything may_access() reads from *cred*.  ID maps are written
        # once and the key holds ns, which keeps them alive, so their ids
        # name the map state.
        key = (cred.fsuid, cred.fsgid, cred.euid, cred.groups, cred.caps, ns,
               id(ns.uid_map), id(ns.gid_map))
        table = self._walk_cache.get(key)
        if table is None:
            if len(self._walk_cache) >= _WALK_CACHE_CREDS:
                self._walk_cache.clear()
            table = self._walk_cache[key] = {}
        entry = table.get(prefix)
        if entry is not None:
            mount, inode, cur, links, nodes, gens, roots = entry
            if list(map(_gen_of, nodes)) == gens and (not roots or all(
                    fs.holds(node) for fs, node in roots)):
                return mount, inode, cur, links
        nodes: list[Inode] = []
        roots: list[tuple[Filesystem, Inode]] = []
        pending = prefix[1:].split("/")
        pending.reverse()
        mount = self._mounts["/"]
        start = mount.fs.inode(mount.root_ino)
        if mount.root_ino != mount.fs.root_ino:
            roots.append((mount.fs, start))
        mount, inode, cur, links = self._advance(
            pending, cred, True, mount, start, "", 0, nodes, roots)
        if len(table) >= _WALK_CACHE_PREFIXES:
            table.clear()
        table[prefix] = (mount, inode, cur, links, nodes,
                         list(map(_gen_of, nodes)), tuple(roots))
        return mount, inode, cur, links

    def _advance(self, pending: list[str], cred: Credentials,
                 follow_final: bool, mount: Mount, inode: Inode, cur: str,
                 links: int, nodes: Optional[list[Inode]] = None,
                 roots: Optional[list[tuple[Filesystem, Inode]]] = None,
                 ) -> tuple[Mount, Inode, str, int]:
        """Walk the component stack *pending* from (*mount*, *inode*) at
        canonical path *cur* ("" for /) with *links* symlinks already
        followed.  When *nodes* is given, every directory searched and
        symlink followed is appended to it, and every non-root mount root
        entered to *roots*: the dependencies of a cache entry."""
        mounts = self._mounts
        while pending:
            name = pending.pop()
            if not inode.is_dir:
                raise KernelError(Errno.ENOTDIR, cur or "/")
            if name == "" or name == ".":
                continue
            if name == "..":
                if cur:
                    cur = cur[:cur.rfind("/")]
                    mount, inode = self._rewalk(cur)
                continue
            candidate = f"{cur}/{name}"
            if not may_access(cred, inode, execute=True):
                raise KernelError(Errno.EACCES, candidate)
            if nodes is not None:
                nodes.append(inode)
            m = mounts.get(candidate)
            if m is not None:
                mount, inode = m, m.fs.inode(m.root_ino)
                if roots is not None and m.root_ino != m.fs.root_ino:
                    roots.append((m.fs, inode))
                cur = candidate
                continue
            child = mount.fs.lookup(inode, name)
            if child is None:
                raise KernelError(Errno.ENOENT, candidate)
            if child.ftype is FileType.SYMLINK and (pending or follow_final):
                links += 1
                if links > _MAX_SYMLINKS:
                    raise KernelError(Errno.ELOOP, candidate)
                if nodes is not None:
                    nodes.append(child)
                target = child.target
                pending.extend(reversed(target.split("/")))
                if target.startswith("/"):
                    cur = ""
                    mount = mounts["/"]
                    inode = mount.fs.inode(mount.root_ino)
                    if roots is not None and mount.root_ino != mount.fs.root_ino:
                        roots.append((mount.fs, inode))
                continue
            cur = candidate
            inode = child
        return mount, inode, cur, links
