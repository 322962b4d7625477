"""Archive pack/extract/serialize tests, including the fakeroot-aware pack
and the ownership-flattening invariants."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.archive import ArchiveError, TarArchive, TarMember
from repro.errors import KernelError
from repro.fakeroot import FAKEROOT_CLASSIC, FakerootSyscalls
from repro.kernel import FileType, Kernel, Syscalls, make_ext4


@pytest.fixture
def kernel():
    k = Kernel(make_ext4())
    sys0 = Syscalls(k.init_process)
    sys0.mkdir_p("/src/sub")
    sys0.write_file("/src/a.txt", b"alpha")
    sys0.write_file("/src/sub/b.txt", b"beta")
    sys0.chmod("/src/a.txt", 0o4755)  # setuid, to test flattening
    sys0.chown("/src/a.txt", 10, 20)
    sys0.symlink("../a.txt", "/src/sub/link")
    sys0.mkdir_p("/dst")
    return k


@pytest.fixture
def root_sys(kernel):
    return Syscalls(kernel.init_process)


class TestPackExtract:
    def test_roundtrip(self, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        a.extract(root_sys, "/dst", preserve_owner=True)
        assert root_sys.read_file("/dst/a.txt") == b"alpha"
        assert root_sys.read_file("/dst/sub/b.txt") == b"beta"
        assert root_sys.readlink("/dst/sub/link") == "../a.txt"
        st = root_sys.stat("/dst/a.txt")
        assert (st.kuid, st.kgid) == (10, 20)

    def test_extract_without_owner_uses_extractor(self, kernel, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        sys0 = root_sys
        sys0.mkdir_p("/home/alice/dst")
        sys0.chown("/home/alice/dst", 1000, 1000)
        sys0.chown("/home/alice", 1000, 1000) if sys0.exists("/home/alice") \
            else None
        alice = Syscalls(kernel.login(1000, 1000))
        a.extract(alice, "/home/alice/dst", preserve_owner=False)
        st = alice.stat("/home/alice/dst/a.txt")
        assert (st.kuid, st.kgid) == (1000, 1000)

    def test_preserve_owner_fails_unprivileged(self, kernel, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        root_sys.mkdir_p("/home/alice")
        root_sys.chown("/home/alice", 1000, 1000)
        alice = Syscalls(kernel.login(1000, 1000))
        alice.mkdir_p("/home/alice/dst")
        with pytest.raises(ArchiveError) as exc:
            a.extract(alice, "/home/alice/dst", preserve_owner=True)
        assert "chown" in str(exc.value)

    def test_preserve_owner_warn_mode_collects(self, kernel, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        root_sys.mkdir_p("/home/alice")
        root_sys.chown("/home/alice", 1000, 1000)
        alice = Syscalls(kernel.login(1000, 1000))
        alice.mkdir_p("/home/alice/dst")
        warnings = a.extract(alice, "/home/alice/dst", preserve_owner=True,
                             on_chown_error="warn")
        assert any("a.txt" in w for w in warnings)

    def test_diff_file_replaces_a_whole_directory(self, root_sys):
        """A diff whose member is a file where the tree has a directory
        removes that directory's whole subtree first."""
        TarArchive.pack(root_sys, "/src").extract(root_sys, "/dst",
                                                  preserve_owner=True)
        assert root_sys.exists("/dst/sub/link")
        TarArchive([TarMember("sub", FileType.REG, 0o644, 0, 0,
                              data=b"now a file")]).apply_diff(
            root_sys, "/dst")
        assert root_sys.read_file("/dst/sub") == b"now a file"
        assert root_sys.read_file("/dst/a.txt") == b"alpha"

    def test_serialize_roundtrip(self, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        b = TarArchive.deserialize(a.serialize())
        assert [m.path for m in b] == [m.path for m in a]
        assert b.member("a.txt").data == b"alpha"
        assert b.digest() == a.digest()

    def test_deserialize_garbage(self):
        with pytest.raises(ArchiveError):
            TarArchive.deserialize(b"not|an|archive\n")
        with pytest.raises(ArchiveError):
            TarArchive.deserialize(b"odd-line-count\n")

    def test_exe_metadata_survives(self, root_sys):
        from repro.shell.install import install_binary
        install_binary(root_sys, "/src/tool", "coreutils.echo",
                       arch="aarch64", static=True)
        a = TarArchive.deserialize(
            TarArchive.pack(root_sys, "/src").serialize())
        m = a.member("tool")
        assert m.exe_impl == "coreutils.echo"
        assert m.exe_arch == "aarch64"
        assert m.exe_static

    def test_archive_is_immutable(self, root_sys):
        """One decoded layer is shared by every node that pulls it, so
        neither the member list nor a member can be changed in place."""
        a = TarArchive.pack(root_sys, "/src")
        assert isinstance(a.members, tuple)
        with pytest.raises(AttributeError):
            a.members.append(a.members[0])
        with pytest.raises(TypeError):
            a.members[0] = a.members[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.member("a.txt").data = b"other"


class TestFlattening:
    def test_flatten_member(self):
        m = TarMember("x", FileType.REG, 0o6755, 1000, 998)
        f = m.flattened()
        assert (f.uid, f.gid) == (0, 0)
        assert f.mode == 0o755  # setuid+setgid cleared

    def test_flatten_idempotent(self):
        m = TarMember("x", FileType.REG, 0o6755, 1000, 998)
        assert m.flattened().flattened() == m.flattened()

    def test_pack_flatten(self, root_sys):
        a = TarArchive.pack(root_sys, "/src", flatten=True)
        for m in a:
            assert (m.uid, m.gid) == (0, 0)
            assert not m.mode & 0o6000


class TestFakerootAwarePack:
    def test_lies_enter_archive(self, kernel, root_sys):
        """fakeroot's purpose: archives with root ownership (§5.1), and the
        §6.2.2 ownership-preserving push falls out."""
        root_sys.mkdir_p("/home/alice/tree")
        root_sys.chown("/home/alice/tree", 1000, 1000)
        root_sys.chown("/home/alice", 1000, 1000)
        alice = Syscalls(kernel.login(1000, 1000))
        fr = FakerootSyscalls(alice, FAKEROOT_CLASSIC)
        fr.write_file("/home/alice/tree/f", b"x")
        fr.chown("/home/alice/tree/f", 47, 48)
        packed = TarArchive.pack(fr, "/home/alice/tree")
        m = packed.member("f")
        assert (m.uid, m.gid) == (47, 48)
        # raw pack sees the truth
        raw = TarArchive.pack(alice, "/home/alice/tree")
        assert (raw.member("f").uid, raw.member("f").gid) == (1000, 1000)


# -- property: serialize/deserialize roundtrip over generated members ---------------

_member = st.builds(
    TarMember,
    path=st.from_regex(r"[a-z][a-z0-9]{0,6}(/[a-z][a-z0-9]{0,6}){0,2}",
                       fullmatch=True),
    ftype=st.sampled_from([FileType.REG, FileType.SYMLINK]),
    mode=st.integers(0, 0o7777),
    uid=st.integers(0, 70000),
    gid=st.integers(0, 70000),
    data=st.binary(max_size=64),
    target=st.sampled_from(["", "a", "/abs/target"]),
)


@given(st.lists(_member, max_size=8))
def test_serialize_roundtrip_property(members):
    # symlink members keep target only; regular files keep data only
    fixed = [
        TarMember(m.path, m.ftype, m.mode, m.uid, m.gid,
                  data=m.data if m.ftype is FileType.REG else b"",
                  target=m.target if m.ftype is FileType.SYMLINK else "")
        for m in members
    ]
    a = TarArchive(fixed)
    b = TarArchive.deserialize(a.serialize())
    assert list(b) == list(a)
