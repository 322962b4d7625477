"""Mount namespace and path resolution tests."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.opts import reference_engine

from repro.errors import Errno, KernelError
from repro.kernel import (
    Credentials,
    FileType,
    MountNamespace,
    UserNamespace,
    make_ext4,
    make_tmpfs,
    normpath,
)


@pytest.fixture
def ns():
    return UserNamespace.initial()


@pytest.fixture
def root_cred(ns):
    return Credentials.root(ns)


@pytest.fixture
def world(ns):
    """An ext4 root with /home/alice, /etc/hosts, symlinks and a tmpfs /tmp."""
    fs = make_ext4()
    home = fs.alloc(FileType.DIR, 0o755, 0, 0)
    fs.link_child(fs.root, "home", home)
    alice = fs.alloc(FileType.DIR, 0o700, 1000, 1000)
    fs.link_child(home, "alice", alice)
    etc = fs.alloc(FileType.DIR, 0o755, 0, 0)
    fs.link_child(fs.root, "etc", etc)
    hosts = fs.alloc(FileType.REG, 0o644, 0, 0, data=b"127.0.0.1 localhost\n")
    fs.link_child(etc, "hosts", hosts)
    lnk = fs.alloc(FileType.SYMLINK, 0o777, 0, 0, target="/etc/hosts")
    fs.link_child(fs.root, "hosts-link", lnk)
    rel = fs.alloc(FileType.SYMLINK, 0o777, 0, 0, target="hosts")
    fs.link_child(etc, "hosts-rel", rel)
    tmpdir = fs.alloc(FileType.DIR, 0o1777, 0, 0)
    fs.link_child(fs.root, "tmp", tmpdir)
    mnt = MountNamespace(fs, owning_userns=UserNamespace.initial())
    mnt.add_mount("/tmp", make_tmpfs())
    return fs, mnt


class TestNormpath:
    @pytest.mark.parametrize(
        "raw,canon",
        [
            ("/", "/"),
            ("//", "/"),
            ("/a//b", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/../b", "/b"),
            ("/../..", "/"),
            ("/a/b/../../c", "/c"),
        ],
    )
    def test_cases(self, raw, canon):
        assert normpath(raw) == canon

    def test_relative_rejected(self):
        with pytest.raises(KernelError):
            normpath("a/b")


class TestResolution:
    def test_simple_walk(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("/etc/hosts", root_cred)
        assert res.inode.data.startswith(b"127.0.0.1")
        assert res.path == "/etc/hosts"

    def test_enoent(self, world, root_cred):
        _, mnt = world
        with pytest.raises(KernelError) as exc:
            mnt.resolve("/etc/nope", root_cred)
        assert exc.value.errno == Errno.ENOENT

    def test_enotdir(self, world, root_cred):
        _, mnt = world
        with pytest.raises(KernelError) as exc:
            mnt.resolve("/etc/hosts/deeper", root_cred)
        assert exc.value.errno == Errno.ENOTDIR

    def test_search_permission_enforced(self, world, ns):
        _, mnt = world
        bob = Credentials.for_user(1001, 1001, userns=ns)
        with pytest.raises(KernelError) as exc:
            mnt.resolve("/home/alice/secret", bob)
        assert exc.value.errno == Errno.EACCES

    def test_absolute_symlink(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("/hosts-link", root_cred)
        assert res.path == "/etc/hosts"

    def test_relative_symlink(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("/etc/hosts-rel", root_cred)
        assert res.path == "/etc/hosts"

    def test_nofollow_final(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("/hosts-link", root_cred, follow=False)
        assert res.inode.ftype is FileType.SYMLINK

    def test_symlink_loop_eloop(self, world, root_cred):
        fs, mnt = world
        a = fs.alloc(FileType.SYMLINK, 0o777, 0, 0, target="/loop-b")
        fs.link_child(fs.root, "loop-a", a)
        b = fs.alloc(FileType.SYMLINK, 0o777, 0, 0, target="/loop-a")
        fs.link_child(fs.root, "loop-b", b)
        with pytest.raises(KernelError) as exc:
            mnt.resolve("/loop-a", root_cred)
        assert exc.value.errno == Errno.ELOOP

    def test_dotdot(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("/etc/../etc/hosts", root_cred)
        assert res.path == "/etc/hosts"

    def test_dotdot_above_root_stays_at_root(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("/../../etc/hosts", root_cred)
        assert res.path == "/etc/hosts"

    def test_relative_path_uses_cwd(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("hosts", root_cred, cwd="/etc")
        assert res.path == "/etc/hosts"

    def test_mount_crossing(self, world, root_cred):
        _, mnt = world
        res = mnt.resolve("/tmp", root_cred)
        assert res.fs.fstype == "tmpfs"

    def test_mount_hides_underlying_tree(self, world, root_cred):
        fs, mnt = world
        # Place a file in the underlying /tmp, then verify the tmpfs wins.
        tmp_underlying = fs.lookup(fs.root, "tmp")
        f = fs.alloc(FileType.REG, 0o644, 0, 0, data=b"hidden")
        fs.link_child(tmp_underlying, "under", f)
        with pytest.raises(KernelError):
            mnt.resolve("/tmp/under", root_cred)

    def test_resolve_parent(self, world, root_cred):
        _, mnt = world
        rp = mnt.resolve_parent("/etc/newfile", root_cred)
        assert rp.name == "newfile"
        assert rp.dir_inode.is_dir

    def test_clone_is_independent(self, world, root_cred):
        _, mnt = world
        dup = mnt.clone()
        dup.add_mount("/home", make_tmpfs())
        assert mnt.resolve("/home/alice", root_cred)  # original unaffected
        with pytest.raises(KernelError):
            dup.resolve("/home/alice", root_cred)

    def test_set_root_pivots(self, world, root_cred):
        fs, mnt = world
        mnt.set_root(fs, fs.lookup(fs.root, "etc").ino)
        res = mnt.resolve("/hosts", root_cred)
        assert res.inode.data.startswith(b"127.0.0.1")

    def test_umount(self, world, root_cred):
        _, mnt = world
        mnt.remove_mount("/tmp")
        res = mnt.resolve("/tmp", root_cred)
        assert res.fs.fstype == "ext4"

    def test_umount_root_rejected(self, world):
        _, mnt = world
        with pytest.raises(KernelError):
            mnt.remove_mount("/")

    def test_nosuid_implied_for_userns_mounts(self, world, ns):
        _, mnt = world
        child = UserNamespace(ns, 1000, 1000)
        m = mnt.add_mount("/home", make_tmpfs(), owning_userns=child)
        assert m.effective_nosuid
        m2 = mnt.mounts["/tmp"]
        assert not m2.effective_nosuid


@pytest.fixture(params=["cached", "reference"])
def engine(request):
    """Run a test on the cached walk and again on the uncached oracle."""
    if request.param == "cached":
        yield
    else:
        with reference_engine():
            yield


class TestTrailingSlash:
    """A trailing ``/`` or ``/.`` demands a directory (path_resolution(7))."""

    @pytest.mark.parametrize("path", ["/etc/hosts/", "/etc/hosts/.",
                                      "/etc/hosts//", "/etc/hosts/./",
                                      "/hosts-link/", "/etc/hosts/.."])
    def test_non_directory_is_enotdir(self, world, root_cred, engine, path):
        _, mnt = world
        for follow in (True, False):
            with pytest.raises(KernelError) as exc:
                mnt.resolve(path, root_cred, follow=follow)
            assert exc.value.errno == Errno.ENOTDIR

    @pytest.mark.parametrize("path", ["/etc/", "/etc/.", "/etc//", "/tmp/"])
    def test_directory_resolves(self, world, root_cred, engine, path):
        _, mnt = world
        assert mnt.resolve(path, root_cred).inode.is_dir

    def test_stat_of_file_with_trailing_slash(self, alice_sys, engine):
        alice_sys.write_file("/home/alice/f", b"x")
        for path in ("/home/alice/f/", "/home/alice/f/."):
            with pytest.raises(KernelError) as exc:
                alice_sys.stat(path)
            assert exc.value.errno == Errno.ENOTDIR
        assert alice_sys.stat("/home/alice/f").ftype is FileType.REG

    def test_trailing_slash_follows_a_final_symlink(self, alice_sys, engine):
        alice_sys.mkdir("/home/alice/d")
        alice_sys.symlink("d", "/home/alice/ln")
        assert alice_sys.lstat("/home/alice/ln").ftype is FileType.SYMLINK
        assert alice_sys.lstat("/home/alice/ln/").ftype is FileType.DIR


class TestPhysicalParent:
    """``resolve_parent`` follows ``..`` physically, as ``resolve`` does."""

    @pytest.fixture
    def tree(self, alice_sys):
        alice_sys.mkdir("/home/alice/d")
        alice_sys.mkdir("/home/alice/d/sub")
        alice_sys.symlink("d/sub", "/home/alice/ln")
        return alice_sys

    def test_create_then_stat_agree(self, tree, engine):
        tree.write_file("/home/alice/ln/../x", b"hi")
        assert tree.stat("/home/alice/ln/../x").ftype is FileType.REG
        assert tree.read_file("/home/alice/d/x") == b"hi"
        assert not tree.exists("/home/alice/x")

    def test_unlink_and_rename_follow_the_link(self, tree, engine):
        tree.write_file("/home/alice/d/x", b"hi")
        tree.rename("/home/alice/ln/../x", "/home/alice/ln/../y")
        assert tree.read_file("/home/alice/d/y") == b"hi"
        tree.unlink("/home/alice/ln/../y")
        assert tree.readdir("/home/alice/d")[0].name == "sub"
        assert len(tree.readdir("/home/alice/d")) == 1

    def test_final_dotdot_names_the_physical_parent(self, tree, engine):
        rp = tree.mnt_ns.resolve_parent("/home/alice/ln/..", tree.cred)
        assert (rp.dir_path, rp.name) == ("/home/alice", "d")
        with pytest.raises(KernelError) as exc:
            tree.mkdir("/home/alice/ln/..")
        assert exc.value.errno == Errno.EEXIST

    def test_root_is_busy(self, tree, engine):
        for path in ("/", "//", "/home/..", "/."):
            with pytest.raises(KernelError) as exc:
                tree.mnt_ns.resolve_parent(path, tree.cred)
            assert exc.value.errno == Errno.EBUSY


# -- property: normpath idempotence & shape ---------------------------------------

_seg = st.sampled_from(["a", "b", "cc", ".", "..", ""])


@given(st.lists(_seg, max_size=8))
def test_normpath_idempotent(segs):
    p = "/" + "/".join(segs)
    once = normpath(p)
    assert normpath(once) == once
    assert once.startswith("/")
    assert ".." not in once.split("/")
    assert "." not in once.split("/")[1:]
