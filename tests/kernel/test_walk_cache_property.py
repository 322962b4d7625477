"""Parity of the path-walk prefix cache with the uncached oracle walk.

:class:`~repro.kernel.mounts.MountNamespace` caches resolved directory
prefixes and trusts an entry only while the VFS change journal says
nothing it depended on has moved.  The uncached walk, selected by
:func:`repro.sim.opts.reference_engine`, is the oracle.  The state machine
below drives two identical kernels in lockstep, one cached and one on the
oracle, through namespace, credential and tree mutations, and requires
every step to return the same value or raise the same errno and message.
Every resolve is also repeated on the oracle inside the cached kernel,
where the mount and inode must be the very same objects.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import Errno, KernelError
from repro.kernel import IdMapEntry, Kernel, Syscalls, make_ext4, make_tmpfs
from repro.kernel.mounts import Resolved, ResolvedParent
from repro.kernel.syscalls import StatResult
from repro.sim.opts import reference_engine

COMPS = ["a", "b", "c", "f", "l", "m", ".", "..", ""]
#: Paths through the initial tree, so mutations and walks meet often.
KNOWN = ["/a", "/a/b", "/a/b/c", "/a/b/c/x", "/a/f", "/a/f/", "/a/f/.",
         "/l", "/l/c", "/l/c/x", "/l/..", "/l/../f", "/m", "/m/c", "/m/x",
         "a/b/c", "b/c"]
TARGETS = ["a", "/a", "..", "../a", "a/b", "/a/b/..", "l", "/l", "m",
           "f/", "a/.", "b/../f"]
MODES = [0o000, 0o111, 0o644, 0o700, 0o711, 0o755, 0o777]
IDS = [0, 1000, 1001]

paths = st.one_of(st.sampled_from(KNOWN), st.tuples(
    st.booleans(), st.lists(st.sampled_from(COMPS), min_size=1, max_size=4),
).map(lambda t: ("/" if t[0] else "") + "/".join(t[1])))
procs = st.integers(0, 3)


def _world() -> list[Syscalls]:
    """Root; alice; a child of alice that may enter user namespaces; and
    bob, who shares alice's group but not her uid.  All four share one
    mount namespace."""
    k = Kernel(make_ext4(), hostname="host")
    root = Syscalls(k.init_process)
    for d in ("/a", "/a/b", "/a/b/c", "/m"):
        root.mkdir(d, 0o755)
    root.chown("/a/b", 1000, 1000)
    root.chmod("/a/b", 0o700)
    root.write_file("/a/f", b"x")
    root.symlink("a/b", "/l")
    alice = k.login(1000, 1000, user="alice", home="/")
    bob = k.login(1001, 1000, user="bob", home="/")
    return [root, Syscalls(alice), Syscalls(alice.fork(comm="child")),
            Syscalls(bob)]


def _norm(value):
    """A kernel-independent rendering of a syscall result (device ids and
    namespace ids come from process-global counters)."""
    if isinstance(value, Resolved):
        return ("res", value.mount.mountpoint, value.inode.ino, value.path)
    if isinstance(value, ResolvedParent):
        return ("parent", value.mount.mountpoint, value.dir_inode.ino,
                value.name, value.dir_path)
    if isinstance(value, StatResult):
        return dataclasses.replace(value, st_dev=0)
    if isinstance(value, (type(None), bool, int, str, bytes, list)):
        return value
    return type(value).__name__


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", _norm(fn(*args, **kwargs)))
    except KernelError as err:
        return ("err", err.errno, str(err))


def _identity(call, s):
    """A walk's outcome with the mount and inode as object identities."""
    try:
        r = call(s)
    except KernelError as err:
        return ("err", err.errno, str(err))
    if isinstance(r, Resolved):
        return (id(r.mount), id(r.inode), r.path)
    return (id(r.mount), id(r.dir_inode), r.name, r.dir_path)


class WalkCacheParity(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cached = _world()
        with reference_engine():
            self.oracle = _world()

    def _both(self, p: int, call) -> tuple:
        got = _outcome(call, self.cached[p])
        with reference_engine():
            want = _outcome(call, self.oracle[p])
        assert got == want
        return got

    # -- tree mutations ----------------------------------------------------

    @rule(p=procs, path=paths, mode=st.sampled_from(MODES))
    def mkdir(self, p, path, mode):
        self._both(p, lambda s: s.mkdir(path, mode))

    @rule(p=procs, path=paths)
    def write_file(self, p, path):
        self._both(p, lambda s: s.write_file(path, b"data"))

    @rule(p=procs, path=paths, mode=st.sampled_from(MODES))
    def chmod(self, p, path, mode):
        self._both(p, lambda s: s.chmod(path, mode))

    @rule(p=procs, path=paths, uid=st.sampled_from(IDS),
          gid=st.sampled_from(IDS))
    def chown(self, p, path, uid, gid):
        self._both(p, lambda s: s.chown(path, uid, gid))

    @rule(p=procs, old=paths, new=paths)
    def rename(self, p, old, new):
        self._both(p, lambda s: s.rename(old, new))

    @rule(p=procs, path=paths)
    def unlink(self, p, path):
        self._both(p, lambda s: s.unlink(path))

    @rule(p=procs, path=paths)
    def rmdir(self, p, path):
        self._both(p, lambda s: s.rmdir(path))

    @rule(p=procs, dest=st.sampled_from(TARGETS), path=paths)
    def symlink(self, p, dest, path):
        self._both(p, lambda s: s.symlink(dest, path))

    # -- mount table -------------------------------------------------------

    @rule(p=procs, path=paths)
    def mount_fs(self, p, path):
        self._both(p, lambda s: s.mount_fs(make_tmpfs(), path))

    @rule(p=procs, source=paths, path=paths)
    def bind_mount(self, p, source, path):
        self._both(p, lambda s: s.bind_mount(source, path))

    @rule(p=procs, path=paths)
    def umount(self, p, path):
        self._both(p, lambda s: s.umount(path))

    @rule(p=procs, path=paths)
    def pivot_to(self, p, path):
        self._both(p, lambda s: s.pivot_to(path))

    # -- credentials and user namespaces -----------------------------------

    @rule(p=procs, uid=st.sampled_from(IDS))
    def setuid(self, p, uid):
        self._both(p, lambda s: s.setuid(uid))

    @rule(p=procs, r=st.sampled_from([-1] + IDS), e=st.sampled_from(IDS),
          s_=st.sampled_from([-1] + IDS))
    def setresuid(self, p, r, e, s_):
        self._both(p, lambda s: s.setresuid(r, e, s_))

    @rule(p=procs)
    def drop_caps(self, p):
        self._both(p, lambda s: s.drop_caps())

    @rule(p=procs)
    def unshare_user(self, p):
        self._both(p, lambda s: s.unshare_user())

    @rule(p=procs)
    def deny_setgroups(self, p):
        self._both(p, lambda s: s.deny_setgroups())

    @rule(p=procs, inside=st.sampled_from([0, 1000]),
          outside=st.sampled_from(IDS))
    def write_uid_map(self, p, inside, outside):
        self._both(p, lambda s: s.write_uid_map(
            [IdMapEntry(inside, outside, 1)]))

    @rule(p=procs, inside=st.sampled_from([0, 1000]),
          outside=st.sampled_from(IDS))
    def write_gid_map(self, p, inside, outside):
        self._both(p, lambda s: s.write_gid_map(
            [IdMapEntry(inside, outside, 1)]))

    @rule(p=procs, path=paths)
    def chdir(self, p, path):
        self._both(p, lambda s: s.chdir(path))

    # -- walks -------------------------------------------------------------

    @rule(p=procs, path=paths, follow=st.booleans())
    def resolve(self, p, path, follow):
        def call(s):
            return s.mnt_ns.resolve(path, s.cred, follow=follow,
                                    cwd=s.proc.cwd)
        self._both(p, call)
        self._self_parity(p, call)

    @rule(p=procs, path=paths)
    def resolve_parent(self, p, path):
        def call(s):
            return s.mnt_ns.resolve_parent(path, s.cred, cwd=s.proc.cwd)
        self._both(p, call)
        self._self_parity(p, call)

    def _self_parity(self, p, call):
        """Cached and oracle walks in the *same* kernel return the same
        objects, not just equal renderings."""
        got = _identity(call, self.cached[p])
        with reference_engine():
            assert got == _identity(call, self.cached[p])

    @invariant()
    def same_tree(self):
        listing = _outcome(lambda s: s.readdir("/"), self.cached[0])
        with reference_engine():
            assert listing == _outcome(lambda s: s.readdir("/"),
                                       self.oracle[0])


WalkCacheParity.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWalkCacheParity = WalkCacheParity.TestCase


# -- fixed sequences for each way an entry goes stale -----------------------


def test_mount_table_change_empties_the_cache():
    m = WalkCacheParity()
    m.resolve(0, "/a/b/c", True)      # caches the /a/b prefix
    m.mount_fs(0, "/a/b")
    m.resolve(0, "/a/b/c", True)      # ENOENT: the tmpfs hides c
    m.umount(0, "/a/b")
    m.resolve(0, "/a/b/c", True)
    m.resolve(0, "/m/c", True)
    m.bind_mount(0, "/a/b", "/m")
    m.resolve(0, "/m/c", True)
    m.pivot_to(0, "/a")
    m.resolve(0, "/b/c", True)


def test_removed_bind_mount_root_is_not_served_from_the_cache():
    m = WalkCacheParity()
    m.bind_mount(0, "/a/b/c", "/m")
    m.resolve(0, "/m/x", True)        # caches /m, which crosses into c
    m.rmdir(0, "/a/b/c")
    m.resolve(0, "/m/x", True)        # EIO on both: the mount root is gone


def test_credential_changes_select_other_entries():
    m = WalkCacheParity()
    m.resolve(1, "/a/b/c/x", True)    # alice owns /a/b (0700)
    m.resolve(3, "/a/b/c/x", True)    # bob, same group: EACCES
    m.resolve(0, "/a/b/c/x", True)    # root: CAP_DAC_OVERRIDE
    m.drop_caps(0)
    m.resolve(0, "/a/b/c/x", True)    # root without caps: EACCES
    m.setresuid(1, -1, 1001, -1)
    m.resolve(1, "/a/b/c/x", True)


def test_journal_changes_invalidate_entries():
    m = WalkCacheParity()
    m.resolve(1, "/l/c/x", True)
    m.chmod(0, "/a", 0o700)           # an ancestor loses search for alice
    m.resolve(1, "/l/c/x", True)
    m.chmod(0, "/a", 0o755)
    m.resolve(1, "/l/c/x", True)
    m.unlink(0, "/l")                 # the followed symlink changes
    m.symlink(0, "a", "/l")
    m.resolve(1, "/l/c/x", True)
    m.rename(0, "/a/b/c", "/a/b/d")   # a directory searched is renamed
    m.resolve(0, "/a/b/c/x", True)
    m.mkdir(0, "/a/b/c", 0o755)
    m.resolve(0, "/a/b/c/x", True)


# -- ELOOP across the cached prefix and the last component -------------------


def _chain_world(k_links: int, m_links: int) -> Syscalls:
    """``/p0`` reaches ``/d`` through *k_links* symlinks and ``/d/q0``
    reaches ``/d/target`` through *m_links*, so ``/p0/q0`` needs
    ``k_links + m_links`` links, *k_links* of them in the prefix."""
    k = Kernel(make_ext4(), hostname="host")
    s = Syscalls(k.init_process)
    s.mkdir("/d", 0o755)
    s.write_file("/d/target", b"end")
    for i in range(k_links):
        s.symlink(f"/p{i + 1}" if i + 1 < k_links else "/d", f"/p{i}")
    for i in range(m_links):
        s.symlink(f"q{i + 1}" if i + 1 < m_links else "target", f"/d/q{i}")
    return s


@pytest.mark.parametrize("k_links", [1, 20, 39])
@pytest.mark.parametrize("total", [40, 41])
@pytest.mark.parametrize("follow", [True, False])
def test_eloop_count_spans_prefix_and_last_component(k_links, total, follow):
    """The links used by a cached prefix carry into the last component:
    exactly 40 resolves, 41 is ELOOP, whether the prefix came from the
    cache (second and third walks) or not, and the oracle agrees."""
    s = _chain_world(k_links, total - k_links)
    path = "/p0/q0"
    outcomes = [_outcome(s.mnt_ns.resolve, path, s.cred, follow=follow)
                for _ in range(3)]
    with reference_engine():
        oracle = _outcome(s.mnt_ns.resolve, path, s.cred, follow=follow)
    assert outcomes == [oracle] * 3
    if total > 40 and follow:
        assert oracle[0] == "err" and oracle[1] == Errno.ELOOP
    else:
        assert oracle[0] == "ok"
        assert oracle[1][3] == ("/d/target" if follow else "/d/q0")
