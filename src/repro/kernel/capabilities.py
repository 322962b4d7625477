"""Linux capabilities (capabilities(7)).

Only the capabilities the paper's analysis touches are modelled, plus a few
the substrates need.  A *capability set* is a frozenset of :class:`Cap`.
"""

from __future__ import annotations

import enum

__all__ = ["Cap", "FULL_CAP_SET", "EMPTY_CAP_SET"]


class Cap(enum.Enum):
    """A subset of Linux capabilities."""

    CHOWN = "CAP_CHOWN"
    DAC_OVERRIDE = "CAP_DAC_OVERRIDE"
    DAC_READ_SEARCH = "CAP_DAC_READ_SEARCH"
    FOWNER = "CAP_FOWNER"
    FSETID = "CAP_FSETID"
    KILL = "CAP_KILL"
    SETGID = "CAP_SETGID"
    SETUID = "CAP_SETUID"
    SETPCAP = "CAP_SETPCAP"
    NET_BIND_SERVICE = "CAP_NET_BIND_SERVICE"
    NET_ADMIN = "CAP_NET_ADMIN"
    SYS_CHROOT = "CAP_SYS_CHROOT"
    SYS_ADMIN = "CAP_SYS_ADMIN"
    SYS_PTRACE = "CAP_SYS_PTRACE"
    MKNOD = "CAP_MKNOD"
    AUDIT_WRITE = "CAP_AUDIT_WRITE"
    SETFCAP = "CAP_SETFCAP"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All modelled capabilities — what UID 0 (or a new user namespace creator)
#: holds.
FULL_CAP_SET: frozenset[Cap] = frozenset(Cap)

#: No capabilities — a normal unprivileged process.
EMPTY_CAP_SET: frozenset[Cap] = frozenset()
