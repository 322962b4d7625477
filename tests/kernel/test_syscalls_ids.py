"""Identity and set*id syscall semantics, including the exact failures the
paper's Figure 3 transcript shows."""

import pytest

from repro.errors import Errno, KernelError
from repro.kernel import Cap, OVERFLOW_GID, OVERFLOW_UID, Syscalls


class TestIdentity:
    def test_host_ids(self, alice_sys):
        assert alice_sys.getuid() == 1000
        assert alice_sys.geteuid() == 1000
        assert alice_sys.getegid() == 1000
        assert alice_sys.getgid() == 1000

    def test_type3_sees_root(self, type3_sys):
        """Paper §2.1.1: map the unprivileged invoking user to namespace
        UID 0 — appears privileged inside, unprivileged on the host."""
        assert type3_sys.geteuid() == 0
        assert type3_sys.getegid() == 0
        assert type3_sys.getgid() == 0
        assert type3_sys.cred.euid == 1000  # reality: still alice

    def test_type2_sees_root(self, type2_sys):
        assert type2_sys.geteuid() == 0
        assert type2_sys.cred.euid == 1000

    def test_supplementary_groups_display_overflow_when_unmapped(
        self, kernel, alice
    ):
        """§2.1.3: supplementary groups must remain unmapped in unprivileged
        namespaces, so they display as nogroup (65534)."""
        alice.cred.groups = frozenset({1000, 5000})
        sys = Syscalls(alice.fork())
        sys.setup_single_id_userns()
        assert sys.getgroups() == sorted({0, OVERFLOW_GID} | set())
        # gid 1000 maps to 0; gid 5000 shows as overflow
        assert OVERFLOW_GID in sys.getgroups()


class TestSetuidFamily:
    def test_root_setuid(self, root_sys, kernel):
        proc = kernel.init_process.fork()
        sys = Syscalls(proc)
        sys.setuid(1000)
        assert sys.geteuid() == 1000
        assert proc.cred.ruid == 1000

    def test_user_setuid_other_eperm(self, alice_sys):
        with pytest.raises(KernelError) as exc:
            alice_sys.setuid(1001)
        assert exc.value.errno == Errno.EPERM

    def test_user_setuid_self_ok(self, alice_sys):
        alice_sys.setuid(1000)

    def test_type3_seteuid_unmapped_is_einval_22(self, type3_sys):
        """Figure 3: 'seteuid 100 failed - seteuid (22: Invalid argument)' —
        apt's drop to _apt (UID 100) fails because 100 is unmapped."""
        with pytest.raises(KernelError) as exc:
            type3_sys.seteuid(100)
        assert exc.value.errno == Errno.EINVAL
        assert int(exc.value.errno) == 22
        assert exc.value.strerror == "Invalid argument"

    def test_type3_setresgid_unmapped_is_einval(self, type3_sys):
        with pytest.raises(KernelError) as exc:
            type3_sys.setresgid(100, 100, 100)
        assert exc.value.errno == Errno.EINVAL

    def test_type2_seteuid_mapped_works(self, type2_sys):
        """In Type II, UID 100 is mapped (to host 200099) so apt's sandbox
        drop succeeds."""
        type2_sys.seteuid(100)
        assert type2_sys.geteuid() == 100
        assert type2_sys.cred.euid == 200099

    def test_type2_full_transition_and_back(self, type2_sys):
        type2_sys.setresuid(100, 100, -1)
        assert type2_sys.geteuid() == 100
        # suid still 0 (host 1000): may return
        type2_sys.seteuid(0)
        assert type2_sys.geteuid() == 0

    def test_setresuid_minus_one_unchanged(self, root_sys, kernel):
        sys = Syscalls(kernel.init_process.fork())
        sys.setresuid(-1, 1000, -1)
        assert sys.cred.euid == 1000
        assert sys.cred.ruid == 0

    def test_setuid_drops_to_all_ids_with_cap(self, kernel):
        sys = Syscalls(kernel.init_process.fork())
        sys.setuid(1000)
        c = sys.cred
        assert (c.ruid, c.euid, c.suid, c.fsuid) == (1000,) * 4

    def test_setgid_family(self, kernel):
        sys = Syscalls(kernel.init_process.fork())
        sys.setgid(1000)
        assert sys.getegid() == 1000
        sys2 = Syscalls(kernel.login(1000, 1000))
        with pytest.raises(KernelError):
            sys2.setgid(555)
        sys2.setegid(1000)


class TestSetgroups:
    def test_figure3_setgroups_eperm_in_type3(self, type3_sys):
        """Figure 3: 'setgroups 65534 failed - setgroups (1: Operation not
        permitted)' — setgroups(2) is not available in unprivileged userns."""
        with pytest.raises(KernelError) as exc:
            type3_sys.setgroups([65534])
        assert exc.value.errno == Errno.EPERM
        assert int(exc.value.errno) == 1
        assert exc.value.strerror == "Operation not permitted"

    def test_host_root_setgroups_ok(self, kernel):
        sys = Syscalls(kernel.init_process.fork())
        sys.setgroups([4, 24, 27])
        assert set(sys.getgroups()) == {4, 24, 27}

    def test_unprivileged_host_setgroups_eperm(self, alice_sys):
        with pytest.raises(KernelError) as exc:
            alice_sys.setgroups([])
        assert exc.value.errno == Errno.EPERM

    def test_type2_setgroups_allowed_when_helper_left_allow(self, type2_sys):
        """Helper-installed maps leave setgroups 'allow': container root can
        call it (the §2.1.4 consequence sysadmins must configure for)."""
        type2_sys.setgroups([0, 5])
        shown = type2_sys.getgroups()
        assert 0 in shown and 5 in shown

    def test_type2_setgroups_unmapped_gid_einval(self, type2_sys):
        with pytest.raises(KernelError) as exc:
            type2_sys.setgroups([70000])  # beyond the 65535 map
        assert exc.value.errno == Errno.EINVAL


class TestUnshare:
    def test_unshare_disabled_by_sysctl(self, kernel, alice):
        kernel.sysctl["user.max_user_namespaces"] = 0
        sys = Syscalls(alice.fork())
        with pytest.raises(KernelError) as exc:
            sys.unshare_user()
        assert exc.value.errno == Errno.EPERM

    def test_unshare_old_kernel(self, alice):
        alice.kernel.kernel_version = (3, 2)
        sys = Syscalls(alice.fork())
        with pytest.raises(KernelError):
            sys.unshare_user()

    def test_userns_count_enforced(self, kernel, alice):
        kernel.sysctl["user.max_user_namespaces"] = 1
        Syscalls(alice.fork()).unshare_user()
        with pytest.raises(KernelError) as exc:
            Syscalls(alice.fork()).unshare_user()
        assert exc.value.errno == Errno.ENOSPC

    def test_creator_gets_full_caps_in_ns(self, type3_sys):
        assert type3_sys.has_cap(Cap.CHOWN)
        assert type3_sys.has_cap(Cap.SYS_ADMIN)

    def test_no_caps_in_parent_ns(self, type3_sys, kernel):
        assert not type3_sys.has_cap(Cap.CHOWN, kernel.init_userns)

    def test_owner_has_caps_in_child_ns(self, kernel, alice):
        """A process keeping alice's euid owns the namespace and holds caps
        in it (the creator-euid rule)."""
        child = alice.fork()
        ns = Syscalls(child).unshare_user()
        other = Syscalls(alice.fork())
        assert other.has_cap(Cap.SETUID, ns)

    def test_map_writes_via_proc_interface(self, kernel, alice):
        from repro.kernel import IdMapEntry
        child = alice.fork()
        sys = Syscalls(child)
        sys.unshare_user()
        sys.write_uid_map([IdMapEntry(0, 1000, 1)])
        with pytest.raises(KernelError):  # gid_map before setgroups deny
            sys.write_gid_map([IdMapEntry(0, 1000, 1)])
        sys.deny_setgroups()
        sys.write_gid_map([IdMapEntry(0, 1000, 1)])
        assert sys.geteuid() == 0
