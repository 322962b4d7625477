"""Tests for /proc, /sys, and the cgroups v1/v2 split."""

import pytest

from repro.errors import Errno, KernelError
from repro.kernel import OVERFLOW_UID, Syscalls, make_procfs, make_sysfs
from repro.kernel.cgroups import CgroupV1Hierarchy, CgroupV2Hierarchy


class TestProcfs:
    def test_uid_map_content_type3(self, kernel, type3_sys):
        proc_fs = make_procfs(kernel, type3_sys.proc)
        type3_sys.unshare_mount()
        type3_sys.mkdir_p("/home/alice/proc")
        type3_sys.proc.mnt_ns.add_mount("/home/alice/proc", proc_fs)
        content = type3_sys.read_file("/home/alice/proc/self/uid_map").decode()
        assert content.split() == ["0", "1000", "1"]

    def test_uid_map_content_type2(self, kernel, type2_sys):
        """Figure 1/4 shape: 0->user, 1..65535 -> subordinate range."""
        proc_fs = make_procfs(kernel, type2_sys.proc)
        type2_sys.unshare_mount()
        type2_sys.mkdir_p("/home/alice/proc")
        type2_sys.proc.mnt_ns.add_mount("/home/alice/proc", proc_fs)
        lines = type2_sys.read_file(
            "/home/alice/proc/self/uid_map").decode().splitlines()
        assert lines[0].split() == ["0", "1000", "1"]
        assert lines[1].split() == ["1", "200000", "65535"]

    def test_proc_owned_by_nobody_in_container(self, kernel, type3_sys):
        """Figure 5's mechanism: /proc entries owned by (unmapped) host root
        appear as nobody inside a single-ID namespace."""
        proc_fs = make_procfs(kernel, type3_sys.proc)
        type3_sys.unshare_mount()
        type3_sys.mkdir_p("/home/alice/proc")
        type3_sys.proc.mnt_ns.add_mount("/home/alice/proc", proc_fs)
        st = type3_sys.stat("/home/alice/proc/cpuinfo")
        assert st.st_uid == OVERFLOW_UID
        # ...and even container "root" cannot write them
        with pytest.raises(KernelError) as exc:
            type3_sys.write_file("/home/alice/proc/sys/kernel/hostname", b"x")
        assert exc.value.errno == Errno.EACCES

    def test_max_user_namespaces_sysctl_exposed(self, kernel, root_sys):
        proc_fs = make_procfs(kernel, kernel.init_process)
        root_sys.mkdir_p("/proc")
        kernel.init_process.mnt_ns.add_mount("/proc", proc_fs)
        val = root_sys.read_file("/proc/sys/user/max_user_namespaces")
        assert int(val) == kernel.sysctl["user.max_user_namespaces"]

    def test_sysfs(self, kernel, root_sys):
        sysfs = make_sysfs(kernel)
        root_sys.mkdir_p("/sys")
        kernel.init_process.mnt_ns.add_mount("/sys", sysfs)
        assert root_sys.read_file("/sys/kernel/arch").decode().strip() == "x86_64"


class TestCgroups:
    def test_v1_requires_host_root(self, kernel, alice):
        h = CgroupV1Hierarchy()
        root_cred = kernel.init_process.cred
        g = h.create(h.root, "hpc", root_cred)
        h.set_limit(g, "memory.limit_in_bytes", 1 << 30, root_cred)
        with pytest.raises(KernelError) as exc:
            h.create(h.root, "user", alice.cred)
        assert exc.value.errno == Errno.EPERM

    def test_v1_attach_requires_host_root(self, kernel, alice):
        h = CgroupV1Hierarchy()
        g = h.create(h.root, "hpc", kernel.init_process.cred)
        h.attach(g, alice.pid, kernel.init_process.cred)
        assert alice.pid in g.pids
        with pytest.raises(KernelError) as exc:
            h.attach(g, alice.pid, alice.cred)
        assert exc.value.errno == Errno.EPERM

    def test_v1_container_root_still_denied(self, kernel, type3_sys):
        """Rootless containers leave cgroups unused (paper §4.1)."""
        h = CgroupV1Hierarchy()
        with pytest.raises(KernelError):
            h.create(h.root, "ctr", type3_sys.cred)

    def test_v2_delegation_enables_unprivileged_control(self, kernel, alice):
        """The crun cgroups-v2 prototype path (paper §4.1)."""
        h = CgroupV2Hierarchy()
        root_cred = kernel.init_process.cred
        session = h.create(h.root, "user-1000", root_cred)
        h.delegate(session, 1000, root_cred)
        sub = h.create(session, "podman-job", alice.cred)
        h.set_limit(sub, "memory.max", 2 << 30, alice.cred)
        h.attach(sub, alice.pid, alice.cred)
        assert sub.limits["memory.max"] == 2 << 30
        assert alice.pid in sub.pids

    def test_v2_without_delegation_denied(self, kernel, alice):
        h = CgroupV2Hierarchy()
        with pytest.raises(KernelError):
            h.create(h.root, "x", alice.cred)

    def test_v2_unknown_control_einval(self, kernel):
        h = CgroupV2Hierarchy()
        root_cred = kernel.init_process.cred
        g = h.create(h.root, "a", root_cred)
        with pytest.raises(KernelError) as exc:
            h.set_limit(g, "bogus.key", 1, root_cred)
        assert exc.value.errno == Errno.EINVAL

    def test_v2_delegation_requires_root(self, kernel, alice):
        h = CgroupV2Hierarchy()
        g = h.create(h.root, "a", kernel.init_process.cred)
        with pytest.raises(KernelError):
            h.delegate(g, 1000, alice.cred)
