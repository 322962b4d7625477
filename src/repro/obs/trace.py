"""Syscall tracing and build-phase spans.

The observability layer the paper's evidence calls for: the paper argues by
*transcript* (Figs. 2-3, 5, 8-11 are failing and succeeding builds shown at
errno granularity), so the reproduction must be able to show the same
receipts — which simulated syscalls a build issued, through which
interposition layer (kernel / fakeroot / seccomp / ignore-chown), and which
errnos fired where.

Design constraints:

* **Zero cost when disabled.**  Instrumentation is a per-class method wrap
  whose fast path is one attribute chain (``self.proc.kernel.tracer is
  None``) and a tail call.  No tracer object exists unless attached.
* **Below the kernel in the import graph.**  This module imports only
  :mod:`repro.errors` and :mod:`repro.obs.metrics`, so ``repro.kernel`` can
  import it freely.
* **Layer-aware.**  Each interposition class declares its layer when
  decorated; a ``chown`` answered by fakeroot shows ``layer="fakeroot"`` at
  depth 0 and any real syscalls it issued internally as nested events —
  which is exactly the absorbed-vs-failed distinction the privilege audit
  needs (paper §5.1).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..errors import KernelError
from .metrics import RingBuffer, TraceMetrics

__all__ = [
    "TRACED_SYSCALLS",
    "SyscallEvent",
    "Span",
    "SyscallTracer",
    "attach_tracer",
    "immutable_value",
    "instrument_syscalls",
    "kernel_span",
    "maybe_span",
]

DEFAULT_RING_SIZE = 65536
_TICKS = operator.attrgetter("ticks")

#: Method names on Syscalls (and its interposing subclasses) that are
#: recorded as syscall events.  Composite conveniences (mkdir_p, the
#: setup_* dances) are deliberately absent: their constituent calls are
#: traced individually, which is what a real strace would show.
TRACED_SYSCALLS = frozenset({
    # identity
    "getuid", "geteuid", "getgid", "getegid", "getgroups",
    # credentials
    "setuid", "seteuid", "setreuid", "setresuid",
    "setgid", "setegid", "setresgid", "setgroups",
    # namespaces & maps
    "unshare_user", "unshare_mount", "unshare_uts", "sethostname",
    "deny_setgroups", "write_uid_map", "write_gid_map",
    # mounts
    "mount_fs", "bind_mount", "pivot_to", "umount",
    # cwd / metadata
    "chdir", "stat", "lstat", "readlink", "readdir",
    # creation
    "mkdir", "mknod", "symlink", "link", "clone_tree",
    # file I/O
    "read_file", "write_file", "truncate",
    # removal / rename
    "unlink", "rmdir", "rename",
    # ownership & permissions
    "chown", "lchown", "chmod",
    # xattrs
    "setxattr", "getxattr", "listxattr", "removexattr",
    # exec
    "prepare_exec",
})


def _short(value: Any) -> str:
    """Compact, single-line rendering of one argument value."""
    if value is None or isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return repr(value) if len(value) <= 48 else repr(value[:45] + "...")
    if isinstance(value, (bytes, bytearray)):
        return f"<{len(value)}B>"
    if isinstance(value, (list, tuple)):
        if len(value) <= 3:
            return "(" + ", ".join(_short(v) for v in value) + ")"
        return f"<{type(value).__name__} n={len(value)}>"
    r = repr(value)
    return r if len(r) <= 48 else f"<{type(value).__name__}>"


def _format_args(args: tuple, kwargs: dict) -> str:
    parts = [_short(a) for a in args]
    parts += [f"{k}={_short(v)}" for k, v in kwargs.items()]
    text = ", ".join(parts)
    return text if len(text) <= 120 else text[:117] + "..."


def _format_result(value: Any) -> str:
    if value is None:
        return "ok"
    return _short(value)


#: Types whose values cannot change after a call, so rendering them can
#: wait until an event's ``args``/``result`` is first read.  Values of any
#: other type are rendered when the call is recorded.
_IMMUTABLE: set[type] = {str, int, bool, type(None), bytes}


def immutable_value(cls: type) -> type:
    """Class decorator: mark *cls*, a frozen value type that syscalls take
    or return, as safe to render lazily."""
    _IMMUTABLE.add(cls)
    return cls


class _Args:
    """Call arguments kept for rendering on first read."""

    __slots__ = ("args", "kwargs")

    def __init__(self, args: tuple, kwargs: dict):
        self.args = args
        self.kwargs = kwargs


class _Result:
    """A call's return value kept for rendering on first read."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


@dataclass(slots=True)
class SyscallEvent:
    """One recorded system call.

    ``args`` and ``result`` are rendered strings.  When the values behind
    them are immutable, rendering waits for the first read, so events that
    nobody reads cost no string building."""

    seq: int
    name: str
    layer: str          # which class answered: kernel/fakeroot/seccomp/...
    raw_args: Any = field(repr=False)
    pid: int
    comm: str
    euid: int           # caller's kernel euid at call time
    egid: int
    ns_level: int       # user-namespace nesting depth (0 = initial)
    depth: int          # 0 = issued by userland, >0 = issued by a wrapper
    parent_seq: int     # seq of the enclosing call (0 = top level)
    span_seq: int       # seq of the enclosing span (0 = none)
    start_tick: int
    duration: int = 0   # clock advances while the call ran (a work proxy)
    raw_result: Any = field(default="", repr=False)
    errno: str = ""     # errno name ("" on success)
    errno_code: int = 0  # numeric errno (0 on success)
    #: The enclosing span (None outside any span).
    span: Optional["Span"] = field(default=None, repr=False, compare=False)

    @property
    def args(self) -> str:
        raw = self.raw_args
        if type(raw) is _Args:
            raw = self.raw_args = _format_args(raw.args, raw.kwargs)
        return raw

    @property
    def result(self) -> str:
        """"ok" or a summary of the return value; "error" on KernelError."""
        raw = self.raw_result
        if type(raw) is _Result:
            raw = self.raw_result = _format_result(raw.value)
        return raw

    @property
    def ok(self) -> bool:
        return not self.errno


@dataclass
class Span:
    """A named phase of work (build / instruction / layer / push / ...).

    ``syscalls`` counts top-level calls made directly inside this span
    (not inside child spans); ``errnos`` counts failures at *any* nesting
    depth, because an EPERM a wrapper absorbed is still evidence.  Use the
    ``total_*`` accessors for subtree-inclusive numbers.
    """

    seq: int
    name: str
    kind: str
    start_tick: int
    meta: dict = field(default_factory=dict)
    parent_seq: int = 0
    end_tick: Optional[int] = None
    status: str = "ok"
    error: str = ""
    syscalls: Counter = field(default_factory=Counter)
    errnos: Counter = field(default_factory=Counter)
    errnos_by_syscall: Counter = field(default_factory=Counter)
    children: list["Span"] = field(default_factory=list)

    def fail(self, error: str) -> None:
        self.status = "error"
        self.error = error

    @property
    def duration(self) -> int:
        end = self.end_tick if self.end_tick is not None else self.start_tick
        return end - self.start_tick

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def total_syscalls(self) -> Counter:
        total = Counter()
        for s in self.walk():
            total.update(s.syscalls)
        return total

    def total_errnos(self) -> Counter:
        total = Counter()
        for s in self.walk():
            total.update(s.errnos)
        return total

    def total_errnos_by_syscall(self) -> Counter:
        total = Counter()
        for s in self.walk():
            total.update(s.errnos_by_syscall)
        return total


class SyscallTracer:
    """Records syscall events and phase spans for one simulated kernel.

    Attach with :func:`attach_tracer` (or ``REPRO_TRACE=1`` in the
    environment); when ``kernel.tracer`` is None the instrumented methods
    take the no-op fast path.
    """

    def __init__(self, *, clock: Optional[Callable[[], int]] = None,
                 ring_size: int = DEFAULT_RING_SIZE):
        self._clock = clock if clock is not None else (lambda: 0)
        self.events: RingBuffer[SyscallEvent] = RingBuffer(ring_size)
        self.metrics = TraceMetrics()
        self.roots: list[Span] = []
        self._span_stack: list[Span] = []
        self._stack: list[SyscallEvent] = []
        self._seq = itertools.count(1)

    # -- state -----------------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        return self._span_stack[-1] if self._span_stack else None

    @property
    def dropped_events(self) -> int:
        return self.events.dropped

    def clear(self) -> None:
        """Forget everything recorded so far (spans in flight survive)."""
        self.events.clear()
        self.metrics.clear()
        self.roots = [s for s in self._span_stack[:1]]

    # -- syscall recording (called from instrumented methods) -------------------

    def begin_call(self, name: str, layer: str, sys_obj,
                   args: tuple, kwargs: dict) -> SyscallEvent:
        """Start recording one call; the event is kept by :meth:`end_call`."""
        proc = sys_obj.proc
        cred = proc.cred
        stack = self._stack
        span = self._span_stack[-1] if self._span_stack else None
        if _IMMUTABLE.issuperset(map(type, args)) and (
                not kwargs or _IMMUTABLE.issuperset(map(type, kwargs.values()))):
            raw_args: Any = _Args(args, kwargs)
        else:
            raw_args = _format_args(args, kwargs)
        event = SyscallEvent(
            next(self._seq), name, layer, raw_args, proc.pid, proc.comm,
            cred.euid, cred.egid, cred.userns.level, len(stack),
            stack[-1].seq if stack else 0,
            span.seq if span is not None else 0,
            self._clock(), span=span,
        )
        stack.append(event)
        return event

    _MISSING = object()

    def end_call(self, event: SyscallEvent, *, result: Any = _MISSING,
                 error: Optional[KernelError] = None) -> SyscallEvent:
        self._stack.pop()
        top = event.depth == 0
        name = event.name
        errno_name = ""
        if error is not None:
            errno_name = event.errno = error.errno.name
            event.errno_code = int(error.errno)
            event.raw_result = "error"
        elif result is self._MISSING or result is None:
            event.raw_result = "ok"
        elif type(result) in _IMMUTABLE:
            event.raw_result = _Result(result)
        else:
            event.raw_result = _format_result(result)
        if top:
            self.metrics.syscalls[name] += 1
        if errno_name:
            self.metrics.count_errno(name, errno_name)
        span = event.span
        if span is not None:
            if top:
                span.syscalls[name] += 1
            if errno_name:
                span.errnos[errno_name] += 1
                span.errnos_by_syscall[f"{name}:{errno_name}"] += 1
        event.duration = self._clock() - event.start_tick
        self.events.append(event)
        return event

    # -- spans -------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str = "phase", **meta):
        s = Span(seq=next(self._seq), name=name, kind=kind,
                 start_tick=self._clock(), meta=meta)
        parent = self.current_span
        if parent is not None:
            s.parent_seq = parent.seq
            parent.children.append(s)
        else:
            self.roots.append(s)
        self._span_stack.append(s)
        try:
            yield s
        except KernelError as err:
            s.fail(f"{err.errno.name}: {err.msg or err.strerror}")
            raise
        except Exception as exc:
            s.fail(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            s.end_tick = self._clock()
            self._span_stack.pop()


def attach_tracer(kernel, *, ring_size: int = DEFAULT_RING_SIZE
                  ) -> SyscallTracer:
    """Create a tracer clocked by *kernel* and install it as
    ``kernel.tracer``.  Idempotent: an already-attached tracer is kept."""
    if getattr(kernel, "tracer", None) is None:
        kernel.tracer = SyscallTracer(
            clock=functools.partial(_TICKS, kernel), ring_size=ring_size)
    return kernel.tracer


def kernel_span(kernel, name: str, kind: str = "phase", **meta):
    """A span on *kernel*'s tracer, or a no-op context when untraced."""
    tracer = getattr(kernel, "tracer", None)
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, kind, **meta)


def maybe_span(tracer: Optional[SyscallTracer], name: str,
               kind: str = "phase", **meta):
    """Like :func:`kernel_span` for holders of an optional tracer
    reference (registry, CI server) that have no kernel at hand."""
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, kind, **meta)


def _wrap(fn: Callable, name: str, layer: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        tracer = self.proc.kernel.tracer
        if tracer is None:
            return fn(self, *args, **kwargs)
        event = tracer.begin_call(name, layer, self, args, kwargs)
        try:
            result = fn(self, *args, **kwargs)
        except KernelError as err:
            tracer.end_call(event, error=err)
            raise
        except BaseException as exc:
            tracer.end_call(event, result=f"!{type(exc).__name__}")
            raise
        tracer.end_call(event, result=result)
        return result

    wrapper.__traced__ = True  # type: ignore[attr-defined]
    wrapper.__wrapped_syscall__ = fn  # type: ignore[attr-defined]
    return wrapper


def instrument_syscalls(layer: str):
    """Class decorator: wrap every method of the class's own ``__dict__``
    whose name is in :data:`TRACED_SYSCALLS` so calls are recorded with the
    given *layer* label.  Inherited methods keep the layer of the class
    that defined them (a fakeroot ``mkdir`` really is a kernel mkdir)."""

    def decorate(cls):
        for name in TRACED_SYSCALLS:
            fn = cls.__dict__.get(name)
            if fn is None or not callable(fn):
                continue
            if getattr(fn, "__traced__", False):
                continue
            setattr(cls, name, _wrap(fn, name, layer))
        cls.trace_layer = layer
        return cls

    return decorate
