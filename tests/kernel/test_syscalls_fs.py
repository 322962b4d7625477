"""Filesystem syscall semantics — especially chown(2), the call whose
failure defines the paper's Type III build problem (Figure 2)."""

import pytest

from repro.errors import Errno, KernelError
from repro.kernel import (
    FileType,
    MountFlags,
    OVERFLOW_UID,
    Syscalls,
    make_nfs,
    make_tmpfs,
)


class TestBasicFileOps:
    def test_write_read_roundtrip(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"hello")
        assert alice_sys.read_file("/home/alice/f") == b"hello"

    def test_append(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"a")
        alice_sys.write_file("/home/alice/f", b"b", append=True)
        assert alice_sys.read_file("/home/alice/f") == b"ab"

    def test_create_respects_umask(self, alice_sys):
        alice_sys.proc.umask = 0o027
        alice_sys.write_file("/home/alice/f", b"")
        assert alice_sys.stat("/home/alice/f").st_mode & 0o777 == 0o640

    def test_new_file_owned_by_fsids(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"")
        st = alice_sys.stat("/home/alice/f")
        assert (st.kuid, st.kgid) == (1000, 1000)

    def test_write_denied_in_foreign_dir(self, alice_sys):
        with pytest.raises(KernelError) as exc:
            alice_sys.write_file("/home/bob/f", b"")
        assert exc.value.errno == Errno.EACCES

    def test_read_denied_without_permission(self, alice_sys, bob_sys):
        alice_sys.write_file("/home/alice/private", b"x")
        alice_sys.chmod("/home/alice/private", 0o600)
        with pytest.raises(KernelError) as exc:
            bob_sys.read_file("/home/alice/private")
        assert exc.value.errno == Errno.EACCES

    def test_mkdir_p(self, alice_sys):
        alice_sys.mkdir_p("/home/alice/a/b/c")
        assert alice_sys.stat("/home/alice/a/b/c").ftype is FileType.DIR

    def test_unlink_rename(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"v")
        alice_sys.rename("/home/alice/f", "/home/alice/g")
        assert alice_sys.read_file("/home/alice/g") == b"v"
        alice_sys.unlink("/home/alice/g")
        assert not alice_sys.exists("/home/alice/g")

    def test_rename_dir(self, alice_sys):
        alice_sys.mkdir_p("/home/alice/d1/sub")
        alice_sys.write_file("/home/alice/d1/sub/f", b"z")
        alice_sys.rename("/home/alice/d1", "/home/alice/d2")
        assert alice_sys.read_file("/home/alice/d2/sub/f") == b"z"

    def test_rmdir_nonempty(self, alice_sys):
        alice_sys.mkdir_p("/home/alice/d/sub")
        with pytest.raises(KernelError) as exc:
            alice_sys.rmdir("/home/alice/d")
        assert exc.value.errno == Errno.ENOTEMPTY
        alice_sys.rmdir("/home/alice/d/sub")
        alice_sys.rmdir("/home/alice/d")

    def test_lchown_changes_the_link_not_its_target(self, root_sys):
        root_sys.write_file("/data/target", b"")
        root_sys.symlink("target", "/data/link")
        root_sys.lchown("/data/link", 1000, 1000)
        assert (root_sys.lstat("/data/link").st_uid,
                root_sys.lstat("/data/link").st_gid) == (1000, 1000)
        assert root_sys.stat("/data/target").st_uid == 0

    def test_symlink_and_readlink(self, alice_sys):
        alice_sys.write_file("/home/alice/real", b"data")
        alice_sys.symlink("/home/alice/real", "/home/alice/lnk")
        assert alice_sys.readlink("/home/alice/lnk") == "/home/alice/real"
        assert alice_sys.read_file("/home/alice/lnk") == b"data"

    def test_hard_link(self, alice_sys):
        alice_sys.write_file("/home/alice/a", b"1")
        alice_sys.link("/home/alice/a", "/home/alice/b")
        st = alice_sys.stat("/home/alice/b")
        assert st.st_nlink == 2

    def test_readdir_sorted(self, alice_sys):
        for name in ("zz", "aa", "mm"):
            alice_sys.write_file(f"/home/alice/{name}", b"")
        names = [e.name for e in alice_sys.readdir("/home/alice")]
        assert names == sorted(names)

    def test_chdir_getcwd(self, alice_sys):
        alice_sys.chdir("/home/alice")
        assert alice_sys.getcwd() == "/home/alice"
        alice_sys.write_file("rel.txt", b"relative")
        assert alice_sys.read_file("/home/alice/rel.txt") == b"relative"

    def test_sticky_tmp_protects_other_users_files(self, alice_sys, bob_sys):
        alice_sys.write_file("/tmp/alice-file", b"x")
        with pytest.raises(KernelError) as exc:
            bob_sys.unlink("/tmp/alice-file")
        assert exc.value.errno == Errno.EPERM
        alice_sys.unlink("/tmp/alice-file")


class TestChownSemantics:
    """The heart of the paper: who may chown what, where."""

    def test_host_root_chown_anything(self, root_sys):
        root_sys.write_file("/data/f", b"")
        root_sys.chown("/data/f", 47, 47)
        st = root_sys.stat("/data/f")
        assert (st.kuid, st.kgid) == (47, 47)

    def test_host_user_chown_eperm(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"")
        with pytest.raises(KernelError) as exc:
            alice_sys.chown("/home/alice/f", 1001, 1001)
        assert exc.value.errno == Errno.EPERM

    def test_host_user_noop_chown_ok(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"")
        alice_sys.chown("/home/alice/f", 1000, 1000)  # no-op succeeds

    def test_host_user_chgrp_to_own_group_ok(self, alice_sys):
        alice_sys.cred.groups = frozenset({1000, 2000})
        alice_sys.write_file("/home/alice/f", b"")
        alice_sys.chown("/home/alice/f", -1, 2000)
        assert alice_sys.stat("/home/alice/f").kgid == 2000

    def test_type3_chown_unmapped_einval(self, type3_sys):
        """Figure 2's failure: rpm's chown to a package UID/GID that has no
        mapping -> EINVAL, build dies with 'cpio: chown'."""
        type3_sys.write_file("/home/alice/f", b"")
        with pytest.raises(KernelError) as exc:
            type3_sys.chown("/home/alice/f", 0, 998)  # gid 998: unmapped
        assert exc.value.errno == Errno.EINVAL

    def test_type3_chown_to_mapped_root_ok(self, type3_sys):
        """chown 0:0 inside the container is a no-op on the host side —
        why plain `yum install epel-release` works (Figure 8 steps 1-2)."""
        type3_sys.write_file("/home/alice/f", b"")
        type3_sys.chown("/home/alice/f", 0, 0)
        st = type3_sys.stat("/home/alice/f")
        assert (st.st_uid, st.st_gid) == (0, 0)  # displayed as root
        assert (st.kuid, st.kgid) == (1000, 1000)  # really alice

    def test_type2_chown_to_subordinate_ids(self, type2_sys):
        """Type II: chown to any mapped ID works; the host file gets the
        subordinate UID (Figure 1's map arithmetic)."""
        type2_sys.write_file("/home/alice/f", b"")
        type2_sys.chown("/home/alice/f", 25, 25)
        st = type2_sys.stat("/home/alice/f")
        assert (st.st_uid, st.st_gid) == (25, 25)
        assert st.kuid == 200024  # 1 -> 200000, so 25 -> 200024
        assert st.kgid == 300024

    def test_type2_chown_beyond_map_einval(self, type2_sys):
        type2_sys.write_file("/home/alice/f", b"")
        with pytest.raises(KernelError) as exc:
            type2_sys.chown("/home/alice/f", 65536, -1)
        assert exc.value.errno == Errno.EINVAL

    def test_container_root_cannot_chown_unmapped_owner(self, type3_sys,
                                                        root_sys):
        """A file owned by an ID outside the map (e.g. host root) is beyond
        even the container root's CAP_CHOWN (capable_wrt_inode_uidgid)."""
        root_sys.write_file("/data/rootfile", b"")
        root_sys.chmod("/data/rootfile", 0o666)
        with pytest.raises(KernelError) as exc:
            type3_sys.chown("/data/rootfile", 0, 0)
        assert exc.value.errno == Errno.EPERM

    def test_chown_clears_setuid_bits(self, root_sys):
        root_sys.write_file("/data/su", b"")
        root_sys.chmod("/data/su", 0o4755)
        sys = Syscalls(root_sys.kernel.init_process.fork())
        sys.cred.caps = sys.cred.caps - {__import__("repro.kernel",
                                                    fromlist=["Cap"]).Cap.FSETID}
        sys.chown("/data/su", 47, -1)
        assert root_sys.stat("/data/su").st_mode & 0o6000 == 0

    def test_stat_translates_unmapped_owner_to_overflow(self, type3_sys,
                                                        root_sys):
        """§2.1.1 case 3: files owned by unmapped IDs display as nobody."""
        root_sys.write_file("/data/rootfile", b"")
        st = type3_sys.stat("/data/rootfile")
        assert st.st_uid == OVERFLOW_UID
        assert st.kuid == 0

    def test_nfs_server_rejects_foreign_ids_even_in_type2(self, kernel,
                                                          type2_sys):
        """§4.2: 'the UID/GID mappers cannot work when the container storage
        location is a shared filesystem, such as NFS'."""
        nfs = make_nfs("nfs-home")
        root = Syscalls(kernel.init_process)
        root.mkdir_p("/nfs")
        kernel.init_process.mnt_ns.add_mount("/nfs", nfs)
        # make it writable by alice
        root.chown("/nfs", 1000, 1000)
        type2_sys.write_file("/nfs/f", b"")
        with pytest.raises(KernelError) as exc:
            type2_sys.chown("/nfs/f", 25, 25)
        assert exc.value.errno == Errno.EPERM
        assert "server rejected" in str(exc.value)

    def test_local_tmp_works_where_nfs_fails(self, type2_sys):
        """...which is why Astra used /tmp or local disk for storage."""
        type2_sys.write_file("/tmp/f", b"")
        type2_sys.chown("/tmp/f", 25, 25)
        assert type2_sys.stat("/tmp/f").st_uid == 25


class TestChmod:
    def test_owner_chmod(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"")
        alice_sys.chmod("/home/alice/f", 0o4750)
        assert alice_sys.stat("/home/alice/f").st_mode & 0o7777 == 0o4750

    def test_non_owner_chmod_eperm(self, alice_sys, bob_sys):
        alice_sys.write_file("/tmp/f", b"")
        alice_sys.chmod("/tmp/f", 0o666)
        with pytest.raises(KernelError) as exc:
            bob_sys.chmod("/tmp/f", 0o777)
        assert exc.value.errno == Errno.EPERM

    def test_setgid_silently_dropped_for_foreign_group(self, root_sys,
                                                       alice_sys):
        root_sys.write_file("/tmp/g", b"")
        root_sys.chown("/tmp/g", 1000, 2000)  # alice's file, group 2000
        alice_sys.chmod("/tmp/g", 0o2755)
        assert alice_sys.stat("/tmp/g").st_mode & 0o2000 == 0


class TestMknod:
    def test_host_root_mknod_device(self, root_sys):
        root_sys.mknod("/data/null", FileType.CHR, 0o666, rdev=(1, 3))
        st = root_sys.stat("/data/null")
        assert st.ftype is FileType.CHR
        assert st.st_rdev == (1, 3)

    def test_container_root_mknod_device_eperm(self, type3_sys):
        """Figure 7's mknod is privileged: only fakeroot's lie makes it
        'succeed' in a container."""
        with pytest.raises(KernelError) as exc:
            type3_sys.mknod("/home/alice/dev", FileType.CHR, 0o666, rdev=(1, 1))
        assert exc.value.errno == Errno.EPERM

    def test_type2_mknod_device_also_eperm(self, type2_sys):
        with pytest.raises(KernelError):
            type2_sys.mknod("/home/alice/dev", FileType.BLK, 0o660, rdev=(8, 0))

    def test_fifo_ok_for_users(self, alice_sys):
        alice_sys.mknod("/home/alice/pipe", FileType.FIFO, 0o644)
        assert alice_sys.stat("/home/alice/pipe").ftype is FileType.FIFO


class TestSetgidDirs:
    def test_group_inheritance(self, root_sys, alice_sys):
        root_sys.mkdir("/data/shared", 0o777)
        root_sys.chown("/data/shared", 0, 4000)
        root_sys.chmod("/data/shared", 0o2777)
        alice_sys.write_file("/data/shared/f", b"")
        assert alice_sys.stat("/data/shared/f").kgid == 4000
        alice_sys.mkdir("/data/shared/sub")
        st = alice_sys.stat("/data/shared/sub")
        assert st.kgid == 4000
        assert st.st_mode & 0o2000  # setgid propagates to subdirs


class TestXattrs:
    def test_user_xattr_roundtrip(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"")
        alice_sys.setxattr("/home/alice/f", "user.tag", b"42")
        assert alice_sys.getxattr("/home/alice/f", "user.tag") == b"42"
        assert "user.tag" in alice_sys.listxattr("/home/alice/f")
        alice_sys.removexattr("/home/alice/f", "user.tag")
        assert alice_sys.listxattr("/home/alice/f") == []

    def test_user_xattr_on_nfs_enotsup(self, kernel, alice_sys):
        """§6.1: default NFS lacks user xattrs — what breaks Podman there."""
        root = Syscalls(kernel.init_process)
        root.mkdir_p("/nfs")
        kernel.init_process.mnt_ns.add_mount("/nfs", make_nfs())
        root.chown("/nfs", 1000, 1000)
        alice_sys.write_file("/nfs/f", b"")
        with pytest.raises(KernelError) as exc:
            alice_sys.setxattr("/nfs/f", "user.overlay.opaque", b"y")
        assert exc.value.errno == Errno.ENOTSUP

    def test_security_capability_needs_init_ns(self, root_sys, type3_sys):
        root_sys.write_file("/data/ping", b"")
        root_sys.chmod("/data/ping", 0o755)
        root_sys.setxattr("/data/ping", "security.capability",
                          b"cap_net_raw+ep")
        type3_sys.write_file("/home/alice/ping", b"")
        with pytest.raises(KernelError) as exc:
            type3_sys.setxattr("/home/alice/ping", "security.capability",
                               b"cap_net_raw+ep")
        assert exc.value.errno == Errno.EPERM


class TestExec:
    def test_arch_mismatch_enoexec(self, kernel, root_sys):
        """An x86-64 binary on an aarch64 node: 'Exec format error' — the
        Astra motivation (paper §4.2)."""
        root_sys.write_file("/data/app", b"\x7fELF")
        root_sys.chmod("/data/app", 0o755)
        res = kernel.init_process.mnt_ns.resolve(
            "/data/app", kernel.init_process.cred)
        res.inode.exe_arch = "x86_64"
        kernel.arch = "aarch64"
        with pytest.raises(KernelError) as exc:
            root_sys.prepare_exec("/data/app")
        assert exc.value.errno == Errno.ENOEXEC
        assert int(exc.value.errno) == 8

    def test_noarch_runs_anywhere(self, kernel, root_sys):
        root_sys.write_file("/data/script", b"#!/bin/sh\n")
        root_sys.chmod("/data/script", 0o755)
        kernel.arch = "aarch64"
        node, _ = root_sys.prepare_exec("/data/script")
        assert node.exe_arch == "noarch"

    def test_exec_needs_x_bit(self, alice_sys):
        alice_sys.write_file("/home/alice/tool", b"")
        with pytest.raises(KernelError) as exc:
            alice_sys.prepare_exec("/home/alice/tool")
        assert exc.value.errno == Errno.EACCES


class TestMounts:
    def test_user_mount_requires_cap(self, alice_sys):
        with pytest.raises(KernelError) as exc:
            alice_sys.mount_fs(make_tmpfs(), "/tmp")
        assert exc.value.errno == Errno.EPERM

    def test_container_root_may_mount_in_own_ns(self, type3_sys):
        type3_sys.unshare_mount()
        type3_sys.mount_fs(make_tmpfs(owning_userns=type3_sys.cred.userns),
                           "/tmp")
        type3_sys.write_file("/tmp/inside", b"x")
        assert type3_sys.read_file("/tmp/inside") == b"x"

    def test_readonly_mount_erofs(self, kernel, root_sys):
        root_sys.mkdir_p("/ro")
        kernel.init_process.mnt_ns.add_mount(
            "/ro", make_tmpfs(), flags=MountFlags(read_only=True))
        with pytest.raises(KernelError) as exc:
            root_sys.write_file("/ro/f", b"")
        assert exc.value.errno == Errno.EROFS

    def test_pivot_to(self, type3_sys):
        type3_sys.unshare_mount()
        type3_sys.mkdir_p("/home/alice/imageroot/bin")
        type3_sys.write_file("/home/alice/imageroot/bin/sh", b"")
        type3_sys.pivot_to("/home/alice/imageroot")
        assert type3_sys.exists("/bin/sh")
        assert type3_sys.getcwd() == "/"
