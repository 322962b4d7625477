"""The §6.2.2(3) recommendation, implemented: fakeroot moved *into the
container implementation*.

"Rather than installing in the image itself, the wrapper could be moved
into the container implementation.  This would simplify it and also ease
[ownership preservation]."

Real Charliecloud later shipped exactly this as ``ch-image build
--force=seccomp``: a seccomp(2) filter installed by the runtime intercepts
privileged system calls and fakes their success — nothing is installed into
the image, no Dockerfile-visible change happens, and the lie database lives
host-side so it naturally persists across RUN instructions and is available
at push time (enabling the §6.2.2(2) ownership-preserving push).

Unlike fakeroot(1), the filter also fakes the set*id family, so APT's
privilege drop "succeeds" without the no-sandbox configuration file.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..fakeroot.base import EngineSpec, FakerootSyscalls
from ..fakeroot.state import LieDatabase
from ..kernel import Syscalls
from ..obs.trace import instrument_syscalls

__all__ = ["SECCOMP_ENGINE", "SeccompSyscalls"]

#: Not a fakeroot(1) implementation — the runtime itself.  Arch-independent
#: (seccomp is a kernel feature), wraps everything including static
#: binaries (the filter is on the *process*, not injected into libc).
SECCOMP_ENGINE = EngineSpec(
    name="seccomp",
    initial_release="(runtime feature)",
    latest_version="(runtime feature)",
    approach="seccomp",
    architectures=("any",),
    daemon=False,
    persistency="host-side database",
    intercepts_xattrs=True,
)


@instrument_syscalls("seccomp")
class SeccompSyscalls(FakerootSyscalls):
    """Runtime-installed syscall interception.

    Extends the fakeroot lie machinery with:

    * set*id/setgroups faking (they report success without changing
      credentials — the wrapped process only *believes* it dropped or
      gained privilege);
    * static-binary coverage (a process filter, not an LD_PRELOAD library —
      the executor checks ``wraps_static_binaries`` via the engine's
      ``approach``).
    """

    def __init__(self, inner: Syscalls, db: Optional[LieDatabase] = None):
        super().__init__(inner, SECCOMP_ENGINE, db)

    def clone_for(self, proc):
        return SeccompSyscalls(self.inner.clone_for(proc), self.db)

    # -- fake the set*id family -------------------------------------------------

    def setuid(self, uid: int) -> None:
        return None  # faked success

    def seteuid(self, euid: int) -> None:
        return None

    def setreuid(self, ruid: int, euid: int) -> None:
        return None

    def setresuid(self, ruid: int, euid: int, suid: int) -> None:
        return None

    def setgid(self, gid: int) -> None:
        return None

    def setegid(self, egid: int) -> None:
        return None

    def setresgid(self, rgid: int, egid: int, sgid: int) -> None:
        return None

    def setgroups(self, groups: Sequence[int]) -> None:
        return None

    # mknod of devices is faked by the base class; chown/chmod/xattrs too.
