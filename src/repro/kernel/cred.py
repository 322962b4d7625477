"""Process credentials: IDs, supplementary groups, capabilities.

All IDs stored here are *kernel* (init-namespace) IDs; the namespace-relative
view is computed through ``cred.userns`` at syscall boundaries, the same way
the kernel stores kuids/kgids internally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .capabilities import Cap, EMPTY_CAP_SET, FULL_CAP_SET
from .userns import UserNamespace

__all__ = ["Credentials"]


@dataclass
class Credentials:
    """The credential set of a process (cf. credentials(7)).

    ruid/euid/suid/fsuid and the gid analogues are kernel IDs.  ``groups``
    are the supplementary groups, also kernel GIDs.  ``caps`` is the
    effective capability set, held *with respect to* ``userns``.
    """

    ruid: int
    euid: int
    suid: int
    fsuid: int
    rgid: int
    egid: int
    sgid: int
    fsgid: int
    groups: frozenset[int]
    caps: frozenset[Cap]
    userns: UserNamespace

    @classmethod
    def root(cls, userns: UserNamespace) -> "Credentials":
        """Host root credentials."""
        return cls(0, 0, 0, 0, 0, 0, 0, 0, frozenset({0}), FULL_CAP_SET, userns)

    @classmethod
    def for_user(
        cls,
        uid: int,
        gid: int,
        groups: frozenset[int] = frozenset(),
        userns: UserNamespace | None = None,
    ) -> "Credentials":
        """Unprivileged credentials for a normal user."""
        ns = userns if userns is not None else UserNamespace.initial()
        return cls(
            uid, uid, uid, uid, gid, gid, gid, gid,
            frozenset(groups) | {gid},
            EMPTY_CAP_SET,
            ns,
        )

    def copy(self) -> "Credentials":
        """Independent copy (for fork())."""
        return replace(self)

    # -- capability checks ------------------------------------------------------

    def has_cap(self, cap: Cap, target_ns: UserNamespace | None = None) -> bool:
        """ns_capable(): does this process hold *cap* in *target_ns*?

        True if the target is the process's own namespace (or a descendant of
        it) and the cap is in the effective set, or if the process's euid owns
        an ancestor namespace of the target (the creator-gets-all-caps rule).
        """
        ns = target_ns if target_ns is not None else self.userns
        node: UserNamespace | None = ns
        while node is not None:
            if node is self.userns:
                return cap in self.caps
            # A process in the parent namespace whose euid owns `node` has
            # all capabilities in it (user_namespaces(7)).
            if node.parent is self.userns and self.euid == node.owner_uid:
                return True
            node = node.parent
        return False

    def in_group(self, kgid: int) -> bool:
        """True if *kgid* is the fsgid or a supplementary group."""
        return kgid == self.fsgid or kgid in self.groups

    # -- namespace-relative views ------------------------------------------------

    def enter_userns(self, ns: UserNamespace, *, full_caps: bool = True) -> None:
        """Move into *ns* (unshare/setns semantics).

        The first process in a new user namespace gets all capabilities in it
        (paper §2.1.1 footnote 5).
        """
        self.userns = ns
        self.caps = FULL_CAP_SET if full_caps else EMPTY_CAP_SET

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Credentials euid={self.euid} egid={self.egid} "
            f"groups={sorted(self.groups)} ns=#{self.userns.ns_id} "
            f"caps={len(self.caps)}>"
        )
