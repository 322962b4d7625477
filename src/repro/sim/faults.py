"""Deterministic fault injection and retry/backoff on simulated time.

Real deployments of the §5.3.3 pipeline lose links, crash nodes, and hit
flaky registries.  This module makes those failures *first-class and
reproducible*: a :class:`FaultPlan` is a seeded schedule of fault windows
on the :class:`~repro.sim.SimClock` — link-down windows, slow-link
degradation, node crashes, registry 5xx-style flake windows, and build
worker crashes — and a :class:`RetryPolicy` is a capped exponential
backoff with *deterministic* jitter (every random draw comes from
``random.Random(f"{seed}|{name}")``-style per-name streams, so binding
order never changes the schedule).

Nothing here reads the wall clock or global RNG state: the same seed
always produces byte-identical fault schedules, retries, and backoff
delays, which is what lets the fault ablations assert digest-identical
convergence and replayable reports.

:func:`faulty_transmit` wraps :func:`~repro.sim.transmit` with the fault
checks and — critically — rolls back both links' reservation horizons and
:class:`~repro.sim.LinkStats` when a transfer aborts, so a retried
transfer never double-counts bytes or holds a phantom reservation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from ..errors import ReproError, TransientError, TransientRegistryError
from .topology import NetLink
from .transfer import TransferTiming, transmit

__all__ = [
    "FaultPlan",
    "FaultPlanError",
    "RegistryFaultInjector",
    "RetryPolicy",
    "TransientTransferError",
    "faulty_transmit",
    "link_restore",
    "link_snapshot",
    "retry_call",
]


class FaultPlanError(ReproError):
    """A fault-plan spec could not be parsed or is inconsistent."""


class TransientTransferError(TransientError):
    """A chunked transfer aborted mid-flight (link down / timed out)."""


# --------------------------------------------------------------------------
# RetryPolicy


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``budget`` is the number of *retries* (so an operation is attempted at
    most ``budget + 1`` times).  ``backoff(attempt, key)`` is a pure
    function of ``(seed, key, attempt)`` — two runs with the same seed
    back off identically, and two different call sites (different keys)
    decorrelate without sharing RNG state.
    """

    budget: int = 8
    base_delay: float = 0.05         # seconds before the first retry
    factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1              # +/- fraction of the delay
    attempt_timeout: Optional[float] = None   # per-attempt wall limit
    seed: int = 0

    def backoff(self, attempt: int, key: str = "") -> float:
        """Delay before retry number *attempt* (0-based) of *key*."""
        delay = min(self.max_delay, self.base_delay * self.factor ** attempt)
        if self.jitter > 0:
            u = random.Random(f"{self.seed}|{key}|{attempt}").random()
            delay *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return delay


# --------------------------------------------------------------------------
# FaultPlan


def _intersects(ws: float, we: float, start: float, end: float) -> bool:
    """Does window [ws, we) overlap the activity interval [start, end]?"""
    if start == end:
        return ws <= start < we
    return ws < end and we > start


@dataclass
class FaultPlan:
    """A seeded, reproducible schedule of faults on the SimClock.

    Faults are either *explicit* (``add_link_down`` etc.) or *generated*:
    the ``link_loss`` / ``slow_rate`` / ``crash_rate`` / ``flake_rate``
    probabilities are materialized per endpoint name by :meth:`bind`,
    drawing every value from ``random.Random(f"{seed}|{kind}|{name}")`` so
    the schedule is independent of binding order and call count.
    """

    seed: int = 0
    horizon: float = 0.5             # seconds generated faults spread over
    link_loss: float = 0.0           # P(endpoint gets one down window)
    slow_rate: float = 0.0           # P(endpoint gets one slow window)
    crash_rate: float = 0.0          # P(node crashes during the horizon)
    flake_rate: float = 0.0          # P(registry gets one flake window)

    _down: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    _slow: dict[str, list[tuple[float, float, float]]] = \
        field(default_factory=dict)
    _crash: dict[str, float] = field(default_factory=dict)
    _flakes: list[tuple[float, float]] = field(default_factory=list)
    _worker_crash: dict[int, float] = field(default_factory=dict)
    _bound: set[str] = field(default_factory=set)
    _bound_registries: set[str] = field(default_factory=set)

    # -- explicit faults ---------------------------------------------------

    def add_link_down(self, name: str, start: float, end: float) -> "FaultPlan":
        if end <= start:
            raise FaultPlanError(f"empty down window {start}:{end}")
        self._down.setdefault(name, []).append((float(start), float(end)))
        self._down[name].sort()
        return self

    def add_slow_link(self, name: str, start: float, end: float,
                      factor: float) -> "FaultPlan":
        if end <= start:
            raise FaultPlanError(f"empty slow window {start}:{end}")
        if not 0 < factor <= 1:
            raise FaultPlanError(f"slow factor must be in (0, 1]: {factor}")
        self._slow.setdefault(name, []).append(
            (float(start), float(end), float(factor)))
        self._slow[name].sort()
        return self

    def add_node_crash(self, name: str, at: float) -> "FaultPlan":
        self._crash[name] = min(float(at), self._crash.get(name, float(at)))
        return self

    def add_registry_flake(self, start: float, end: float) -> "FaultPlan":
        if end <= start:
            raise FaultPlanError(f"empty flake window {start}:{end}")
        self._flakes.append((float(start), float(end)))
        self._flakes.sort()
        return self

    def add_worker_crash(self, worker: int, at: float) -> "FaultPlan":
        self._worker_crash[int(worker)] = float(at)
        return self

    # -- generated faults --------------------------------------------------

    def bind(self, names: Iterable[str]) -> "FaultPlan":
        """Materialize generated faults for *names* (node endpoints).

        Idempotent per name; per-name RNG streams make the result
        independent of binding order.
        """
        for name in names:
            if name in self._bound:
                continue
            self._bound.add(name)
            if self.link_loss > 0:
                r = random.Random(f"{self.seed}|down|{name}")
                if r.random() < self.link_loss:
                    start = r.uniform(0.0, 0.75 * self.horizon)
                    dur = r.uniform(0.05, 0.25) * self.horizon
                    self.add_link_down(name, start, start + dur)
            if self.slow_rate > 0:
                r = random.Random(f"{self.seed}|slow|{name}")
                if r.random() < self.slow_rate:
                    start = r.uniform(0.0, 0.75 * self.horizon)
                    dur = r.uniform(0.1, 0.5) * self.horizon
                    self.add_slow_link(name, start, start + dur,
                                       r.uniform(0.1, 0.5))
            if self.crash_rate > 0:
                r = random.Random(f"{self.seed}|crash|{name}")
                if r.random() < self.crash_rate:
                    self.add_node_crash(name, r.uniform(0.0, self.horizon))
        return self

    def bind_registry(self, name: str) -> "FaultPlan":
        """Materialize the registry's generated flake window (crash and
        down faults are never generated for the registry — the invariant
        assumes it stays reachable eventually)."""
        if name in self._bound_registries:
            return self
        self._bound_registries.add(name)
        if self.flake_rate > 0:
            r = random.Random(f"{self.seed}|flake|{name}")
            if r.random() < self.flake_rate:
                start = r.uniform(0.0, 0.5 * self.horizon)
                dur = r.uniform(0.05, 0.3) * self.horizon
                self.add_registry_flake(start, start + dur)
        return self

    # -- queries -----------------------------------------------------------

    def down_window(self, name: str, start: float,
                    end: float) -> Optional[tuple[float, float]]:
        """First down window of *name* overlapping [start, end], if any."""
        for ws, we in self._down.get(name, ()):
            if _intersects(ws, we, start, end):
                return (ws, we)
        return None

    def bandwidth_factor(self, name: str, t: float) -> float:
        """Degradation multiplier for *name*'s link at time *t*."""
        factor = 1.0
        for ws, we, f in self._slow.get(name, ()):
            if ws <= t < we:
                factor = min(factor, f)
        return factor

    def crash_time(self, name: str) -> Optional[float]:
        return self._crash.get(name)

    def crashed_by(self, name: str, t: float) -> bool:
        ct = self._crash.get(name)
        return ct is not None and ct <= t

    def flake_window(self, t: float) -> Optional[tuple[float, float]]:
        """Registry flake window containing time *t*, if any."""
        for ws, we in self._flakes:
            if ws <= t < we:
                return (ws, we)
        return None

    def worker_crash_time(self, worker: int) -> Optional[float]:
        return self._worker_crash.get(int(worker))

    @property
    def empty(self) -> bool:
        return not (self._down or self._slow or self._crash
                    or self._flakes or self._worker_crash
                    or self.link_loss or self.slow_rate
                    or self.crash_rate or self.flake_rate)

    def injector(self, clock) -> "RegistryFaultInjector":
        """A registry-side injector reading this plan on *clock*."""
        return RegistryFaultInjector(self, clock)

    # -- (de)serialization -------------------------------------------------

    def as_dict(self) -> dict:
        """Canonical JSON-friendly form — byte-identical for equal seeds
        bound to equal name sets (the replayability contract)."""
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "rates": {"link_loss": self.link_loss,
                      "slow_rate": self.slow_rate,
                      "crash_rate": self.crash_rate,
                      "flake_rate": self.flake_rate},
            "down": {n: [[round(s, 9), round(e, 9)] for s, e in ws]
                     for n, ws in sorted(self._down.items())},
            "slow": {n: [[round(s, 9), round(e, 9), round(f, 9)]
                         for s, e, f in ws]
                     for n, ws in sorted(self._slow.items())},
            "crash": {n: round(t, 9)
                      for n, t in sorted(self._crash.items())},
            "flakes": [[round(s, 9), round(e, 9)] for s, e in self._flakes],
            "worker_crash": {str(w): round(t, 9) for w, t
                             in sorted(self._worker_crash.items())},
        }

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Build a plan from a CLI spec: comma-separated tokens.

        ``seed=N`` ``horizon=S`` ``link-loss=P`` ``slow-rate=P``
        ``crash-rate=P`` ``flake-rate=P`` ``down=NAME@S:E``
        ``slow=NAME@S:E*F`` ``crash=NAME@T`` ``flake=S:E``
        ``worker-crash=IDX@T``

        e.g. ``seed=7,link-loss=0.1,flake=0.0:0.05``.
        """
        plan = cls()
        if not spec:
            return plan
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise FaultPlanError(f"bad fault token (need key=value): "
                                     f"{token!r}")
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    plan.seed = int(value)
                elif key == "horizon":
                    plan.horizon = float(value)
                elif key == "link-loss":
                    plan.link_loss = float(value)
                elif key == "slow-rate":
                    plan.slow_rate = float(value)
                elif key == "crash-rate":
                    plan.crash_rate = float(value)
                elif key == "flake-rate":
                    plan.flake_rate = float(value)
                elif key == "down":
                    name, _, window = value.partition("@")
                    s, _, e = window.partition(":")
                    plan.add_link_down(name, float(s), float(e))
                elif key == "slow":
                    name, _, rest = value.partition("@")
                    window, _, f = rest.partition("*")
                    s, _, e = window.partition(":")
                    plan.add_slow_link(name, float(s), float(e), float(f))
                elif key == "crash":
                    name, _, t = value.partition("@")
                    plan.add_node_crash(name, float(t))
                elif key == "flake":
                    s, _, e = value.partition(":")
                    plan.add_registry_flake(float(s), float(e))
                elif key == "worker-crash":
                    idx, _, t = value.partition("@")
                    plan.add_worker_crash(int(idx), float(t))
                else:
                    raise FaultPlanError(f"unknown fault token {key!r}")
            except ValueError as exc:
                raise FaultPlanError(f"bad fault token {token!r}: {exc}")
        return plan


class RegistryFaultInjector:
    """Makes a Registry raise ``TransientRegistryError`` inside a flake
    window.  Installed as ``registry.fault_injector``; the registry calls
    :meth:`check` once per client read request and once per push."""

    def __init__(self, plan: FaultPlan, clock):
        self.plan = plan
        self.clock = clock
        self.faults_raised = 0

    def check(self, op: str) -> None:
        window = self.plan.flake_window(self.clock.now)
        if window is not None:
            self.faults_raised += 1
            raise TransientRegistryError(
                f"registry {op} failed transiently "
                f"(flake window {window[0]:.3f}:{window[1]:.3f} "
                f"at t={self.clock.now:.3f})", retry_at=window[1])


# --------------------------------------------------------------------------
# Fault-aware transfers


def link_snapshot(link: NetLink) -> tuple:
    """Capture a link's reservation horizons and stats (for rollback)."""
    s = link.stats
    return (link.tx_free_at, link.rx_free_at, s.bytes_tx, s.bytes_rx,
            s.chunks_tx, s.chunks_rx, s.busy_tx_seconds, s.busy_rx_seconds,
            s.byte_seconds)


def link_restore(link: NetLink, snap: tuple) -> None:
    """Undo a transfer: restore a :func:`link_snapshot` in place
    (other code holds references to ``link.stats``)."""
    s = link.stats
    (link.tx_free_at, link.rx_free_at, s.bytes_tx, s.bytes_rx, s.chunks_tx,
     s.chunks_rx, s.busy_tx_seconds, s.busy_rx_seconds, s.byte_seconds) = snap


def faulty_transmit(plan: Optional[FaultPlan], src: NetLink, dst: NetLink,
                    size: int, *, chunk_size: int,
                    available: Union[float, Sequence[float]],
                    now: float = 0.0,
                    attempt_timeout: Optional[float] = None,
                    record_arrivals: bool = True) -> TransferTiming:
    """:func:`transmit`, but aborting (with full rollback) under faults.

    Checks, in order: slow-link degradation at *now* scales the effective
    bandwidth for the whole transfer; a down window on either endpoint
    overlapping the transfer's wire interval aborts it; an attempt that
    would finish later than ``now + attempt_timeout`` aborts.  An aborted
    transfer restores both links' reservation horizons *and* LinkStats to
    their pre-call values — a retry must not double-count bytes — and
    raises :class:`TransientTransferError` whose ``retry_at`` is the end
    of the offending window.
    """
    if plan is None or plan.empty:
        return transmit(src, dst, size, chunk_size=chunk_size,
                        available=available,
                        record_arrivals=record_arrivals)
    src_snap = link_snapshot(src)
    dst_snap = link_snapshot(dst)
    factor = min(plan.bandwidth_factor(src.name, now),
                 plan.bandwidth_factor(dst.name, now))
    scaled = factor < 1.0
    src_bw, dst_bw = src.bandwidth, dst.bandwidth
    if scaled:
        src.bandwidth = src_bw * factor
        dst.bandwidth = dst_bw * factor
    try:
        timing = transmit(src, dst, size, chunk_size=chunk_size,
                          available=available,
                          record_arrivals=record_arrivals)
    finally:
        if scaled:
            src.bandwidth, dst.bandwidth = src_bw, dst_bw

    window = (plan.down_window(src.name, timing.start, timing.end)
              or plan.down_window(dst.name, timing.start, timing.end))
    if window is not None:
        link_restore(src, src_snap)
        link_restore(dst, dst_snap)
        raise TransientTransferError(
            f"link down during transfer {src.name} -> {dst.name} "
            f"(window {window[0]:.3f}:{window[1]:.3f})", retry_at=window[1])
    if attempt_timeout is not None and timing.end - now > attempt_timeout:
        link_restore(src, src_snap)
        link_restore(dst, dst_snap)
        raise TransientTransferError(
            f"transfer {src.name} -> {dst.name} exceeded the "
            f"{attempt_timeout}s attempt timeout", retry_at=now)
    return timing


# --------------------------------------------------------------------------
# Synchronous retry driver


def retry_call(fn: Callable[[int], object], *, policy: RetryPolicy,
               clock=None, key: str = "",
               on_retry: Optional[Callable[[int, float, TransientError],
                                           None]] = None):
    """Run ``fn(attempt)`` retrying transient failures per *policy*.

    Between attempts the (virtual) *clock* advances by the backoff delay,
    and past the failure's ``retry_at`` if that is later — simulated time
    pays for waiting the way wall time would.  Used on the synchronous
    legs of the pipeline (registry push, cache export); the event-driven
    broadcast schedules its retries on the engine instead.
    """
    attempt = 0
    while True:
        try:
            return fn(attempt)
        except TransientError as exc:
            if attempt >= policy.budget:
                raise
            delay = policy.backoff(attempt, key)
            if clock is not None:
                clock.advance_to(max(clock.now + delay, exc.retry_at))
            if on_retry is not None:
                on_retry(attempt, delay, exc)
            attempt += 1
