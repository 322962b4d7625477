"""Control groups, v1 and v2.

Paper §4.1: "with rootless Podman, cgroups are left unused as cgroup
operations by default are generally root-level actions... prototype work is
underway to implement cgroups v2 in userspace via the crun runtime, which
enables cgroups control in a completely unprivileged context."

We model exactly that distinction:

* v1: every write requires root in the initial namespace;
* v2 (unified) with delegation: a subtree can be delegated to a user, after
  which that user can create child groups and set limits — what crun uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import Errno, KernelError
from .cred import Credentials

__all__ = ["CgroupV1Hierarchy", "CgroupV2Hierarchy", "Cgroup"]


@dataclass
class Cgroup:
    """One cgroup node."""

    name: str
    owner_uid: int
    limits: dict[str, int] = field(default_factory=dict)
    pids: set[int] = field(default_factory=set)
    children: dict[str, "Cgroup"] = field(default_factory=dict)


class CgroupV1Hierarchy:
    """cgroups v1: root-only writes; the reason rootless Podman skips cgroups."""

    version = 1

    def __init__(self):
        self.root = Cgroup("", owner_uid=0)

    def create(self, parent: Cgroup, name: str, cred: Credentials) -> Cgroup:
        if cred.euid != 0 or not cred.userns.is_initial:
            raise KernelError(Errno.EPERM,
                              "cgroup v1 modification requires host root")
        child = Cgroup(name, owner_uid=0)
        parent.children[name] = child
        return child

    def set_limit(self, group: Cgroup, key: str, value: int,
                  cred: Credentials) -> None:
        if cred.euid != 0 or not cred.userns.is_initial:
            raise KernelError(Errno.EPERM,
                              "cgroup v1 modification requires host root")
        group.limits[key] = value

    def attach(self, group: Cgroup, pid: int, cred: Credentials) -> None:
        if cred.euid != 0 or not cred.userns.is_initial:
            raise KernelError(Errno.EPERM, "cgroup v1 attach requires host root")
        group.pids.add(pid)


class CgroupV2Hierarchy:
    """cgroups v2 unified hierarchy with subtree delegation.

    ``delegate(subtree, uid)`` is what systemd's ``Delegate=`` does for user
    sessions; afterwards the delegated user manages the subtree without any
    privilege — the mechanism crun's unprivileged cgroup support rides on.
    """

    version = 2

    def __init__(self):
        self.root = Cgroup("", owner_uid=0)
        self._delegations: dict[int, int] = {}  # id(cgroup) -> uid

    def delegate(self, group: Cgroup, uid: int, cred: Credentials) -> None:
        if cred.euid != 0 or not cred.userns.is_initial:
            raise KernelError(Errno.EPERM, "delegation requires host root")
        group.owner_uid = uid
        self._delegations[id(group)] = uid

    def _may_manage(self, group: Cgroup, cred: Credentials) -> bool:
        if cred.euid == 0 and cred.userns.is_initial:
            return True
        return group.owner_uid == cred.euid

    def create(self, parent: Cgroup, name: str, cred: Credentials) -> Cgroup:
        if not self._may_manage(parent, cred):
            raise KernelError(Errno.EPERM,
                              f"no delegation of cgroup subtree to uid {cred.euid}")
        child = Cgroup(name, owner_uid=parent.owner_uid)
        parent.children[name] = child
        return child

    def set_limit(self, group: Cgroup, key: str, value: int,
                  cred: Credentials) -> None:
        if not self._may_manage(group, cred):
            raise KernelError(Errno.EPERM, "cgroup not delegated to caller")
        if key not in ("memory.max", "cpu.max", "pids.max", "io.max"):
            raise KernelError(Errno.EINVAL, f"unknown cgroup v2 control {key}")
        group.limits[key] = value

    def attach(self, group: Cgroup, pid: int, cred: Credentials) -> None:
        if not self._may_manage(group, cred):
            raise KernelError(Errno.EPERM, "cgroup not delegated to caller")
        group.pids.add(pid)
