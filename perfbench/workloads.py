"""The three workloads: inputs from a seed, set-up, and one pipeline pass.

Each workload is driven only through the program's public API.  Every
call into a layer sits inside a span named after the layer, so a traced
pass can say where the time went; an untraced pass gets a recorder that
records nothing.

* ``build-10k`` — Type III (``ch-image build --force``) builds on a
  10,000-file base, under fakeroot and under seccomp, then attest, pack,
  signed fleet push, policy gate, tree broadcast and ``srun`` on 2
  nodes.  Chosen because nearly all of its time is in the kernel path
  walk, CAS snapshots, the force modes, packing and the SBOM/size audit,
  while the broadcast has almost nothing to move.
* ``deploy-wide`` — Fig 6 as run on Astra: rootless Podman (Type II)
  builds FROM a site-hosted base carrying ~1 MiB payloads, pushes signed,
  passes a signature-only gate, is tree-broadcast to 128 nodes at 1 KiB
  chunks and run by ``srun`` + ``ch-run`` on every node.  Chosen because
  its time is in the pipelined relay and the per-node pull, not the
  build.
* ``registry-mix`` — an open-loop Zipf pull tape against a 4-shard R=2
  fleet with bounded queues, two tenants with tokens and quotas, a
  signature check on every pull, and a Poisson stream of signed CI
  re-pushes on the same event engine.  Chosen because it exercises only
  the registry side: routing, admission queues, quota ledger,
  verification and the event queue, with no kernel at all.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.archive import TarArchive, TarMember
from repro.cluster import make_astra, make_world
from repro.cluster.broadcast import distribute_image, make_deploy_topology
from repro.cluster.fleet import RegistryFleet, deploy_fleet
from repro.cluster.world import SITE_REGISTRY
from repro.containers import ImageConfig, Podman
from repro.core import ChImage
from repro.core.push import flatten_archive
from repro.core.runtime import ChRun
from repro.errors import RegistryError, SupplyPolicyError
from repro.kernel import FileType
from repro.sim import SimEngine, WorkloadSpec, run_workload
from repro.supply import (KeyRegistry, PolicyGate, SupplyPolicy,
                          build_attestations, make_advisory_db)

from spans import NULL_RECORDER, percentile

__all__ = ["WORKLOADS", "CheckFailed", "PassOutput", "Site"]

USER = "alice"
ARCH = "aarch64"
APP_ARGV = ["/opt/atse/bin/atse-info"]
SIGNING_KEY = "site-ci"

ATSE_INSTALLS = ("RUN yum install -y gcc\n"
                 "RUN yum install -y openmpi hdf5\n"
                 "RUN yum install -y atse\n")


class CheckFailed(Exception):
    """An output of the program is wrong; the run fails."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Site:
    """What one pass's set-up built: the machines the runner watches
    (tick deltas, tracers), the fleet and gate, and workload state."""

    fleet: RegistryFleet
    gate: PolicyGate
    login: Optional[object] = None       # Machine
    nodes: list = field(default_factory=list)
    state: dict = field(default_factory=dict)

    def kernels(self) -> list:
        machines = ([self.login] if self.login is not None else []) \
            + self.nodes
        return [m.kernel for m in machines]


@dataclass
class PassOutput:
    """What one pipeline pass did.  ``exact`` holds values that must be
    identical on every pass; ``identity`` too (digests, reports)."""

    ops: int = 0                 # completed pulls + pushes
    attempted: int = 0           # ranks, pulls and pushes attempted
    failed: int = 0              # of those, failed or dropped
    exact: dict = field(default_factory=dict)
    identity: object = None


def _small_runs(rng: random.Random) -> str:
    return "".join(f"RUN echo step{i}-{rng.getrandbits(32):08x} "
                   f"> /opt/step{i}.txt\n" for i in range(8))


def _signing_site(fleet: RegistryFleet, policy: SupplyPolicy
                  ) -> PolicyGate:
    keys = KeyRegistry(seed=0)
    fleet.signer = keys.signer(SIGNING_KEY)
    return PolicyGate(policy, keys=keys, advisories=make_advisory_db(seed=0))


def _passes_gate(gate: PolicyGate, fleet, ref: str):
    try:
        return gate.check(fleet, ref)
    except SupplyPolicyError as err:
        raise CheckFailed(f"gate rejected {ref}: {err}") from err


SIGNATURE_ONLY = SupplyPolicy(require_sbom=False, require_provenance=False,
                              severity_threshold="",
                              trusted_keys=(SIGNING_KEY,))
FULL_POLICY = SupplyPolicy(severity_threshold="high",
                           trusted_keys=(SIGNING_KEY,))


def _deploy(site: Site, ref: str, manifest, rec, out: PassOutput) -> None:
    """Tree-broadcast *ref* to every node, then one rank per node pulls
    it with ch-image and runs it with ch-run."""
    fleet, nodes = site.fleet, site.nodes
    engine = SimEngine()
    topology = make_deploy_topology(fleet, nodes)
    with rec.span("cluster.broadcast.distribute"):
        dist = distribute_image(fleet, ref, nodes, topology, arch=ARCH,
                                strategy="tree", engine=engine)

    def rank(node, k, login):
        env = {"OMPI_COMM_WORLD_RANK": str(k),
               "PATH": "/opt/atse/bin:/usr/bin:/bin"}
        with rec.span("core.pull"):
            path = ChImage(node, login).pull(ref)
        with rec.span("core.runtime.run"):
            res = ChRun(node, login).run(path, APP_ARGV, env=env)
        return res.status, res.output

    with rec.span("cluster.scheduler.srun"):
        job = site.state["scheduler"].srun(
            USER, len(nodes), rank, mode="simulated", sim=engine,
            rank_ready=dist.node_ready)
    out.attempted += 2 * len(nodes)      # ranks, and their pulls
    check(len(job.rank_statuses) == len(nodes) and not job.skipped,
          f"{len(job.rank_statuses)} of {len(nodes)} ranks ran")
    for k, (status, text) in enumerate(zip(job.rank_statuses,
                                            job.rank_outputs)):
        check(status == 0, f"rank {k} exited {status}: {text[-200:]}")
        check(f"[rank {k}]" in text and f"({ARCH})" in text,
              f"rank {k} printed {text[-200:]!r}")
    layers = sorted(manifest.layers)
    for node in nodes:
        check(sorted(node.content_store.digests()) == layers,
              f"{node.hostname} holds other blobs than {ref}'s layers")
    out.ops += len(nodes)
    out.exact.update({
        "sim.events": engine.events_processed,
        "sim.chunks_tx": sum(link.stats.chunks_tx
                             for link in topology.links.values()),
        "cluster.broadcast.registry_egress_bytes":
            dist.registry_egress_bytes,
        "cluster.broadcast.peer_bytes": dist.peer_bytes,
        "deploy_makespan_vs": max(job.rank_finishes) - dist.started_at,
    })


# --------------------------------------------------------------------------
# build-10k


@dataclass
class BuildInputs:
    files: list            # (relative path, bytes) of the base's libraries
    base_digest: str
    dockerfile: str


class Build10k:
    name = "build-10k"
    base = "bigbase:1"
    n_nodes = 2
    modes = ("fakeroot", "seccomp")

    def inputs(self, seed: int) -> BuildInputs:
        rng = random.Random(f"{seed}|build-10k")
        files = [(f"pkg{d:03d}/lib{f:03d}.so",
                  f"elf {seed} {d}/{f} ".encode() * rng.randint(4, 12))
                 for d in range(100) for f in range(100)]
        digest = "sha256:" + hashlib.sha256(
            f"build-10k|{seed}|base".encode()).hexdigest()
        dockerfile = f"FROM {self.base}\n" + ATSE_INSTALLS + _small_runs(rng)
        return BuildInputs(files, digest, dockerfile)

    def setup(self, inputs: BuildInputs) -> Site:
        """World, fleet and machines, plus the 10k-file base materialised
        straight into ch-image storage under a pinned identity digest."""
        world = make_world(arches=(ARCH,))
        fleet = deploy_fleet(world, n_shards=4, replicas=2)
        gate = _signing_site(fleet, FULL_POLICY)
        astra = make_astra(world, n_compute=self.n_nodes)
        proc = astra.login.login(USER)
        builders = {mode: ChImage(astra.login, proc, cache=True,
                                  force_mode=mode) for mode in self.modes}
        storage = builders["fakeroot"].storage
        storage.pull("centos:7")
        storage.copy("centos:7", self.base)
        root = storage.path_of(self.base)
        syscalls = storage.sys
        for d in range(100):
            syscalls.mkdir(f"{root}/pkg{d:03d}", 0o755)
        for rel, data in inputs.files:
            syscalls.write_file(f"{root}/{rel}", data)
        for builder in builders.values():
            builder.storage.set_digest(self.base, inputs.base_digest)
        return Site(fleet, gate, astra.login, astra.scheduler.nodes,
                    {"builders": builders, "scheduler": astra.scheduler})

    def pipeline(self, site: Site, inputs: BuildInputs, rec) -> PassOutput:
        out = PassOutput()
        fleet, gate = site.fleet, site.gate
        digests, packages = {}, 0
        for mode, ch in site.state["builders"].items():
            tag = f"app-{mode}"
            ref = f"{SITE_REGISTRY}/{USER}/{tag}:latest"
            with rec.span(f"core.build.{mode}"):
                result = ch.build(tag=tag, dockerfile=inputs.dockerfile,
                                  force=True)
            check(result.success, f"{mode} build failed: {result.error}")
            with rec.span("supply.attest"):
                bundle = build_attestations(ch, tag, inputs.dockerfile,
                                            force=True, force_mode=mode)
            with rec.span("archive.pack"):
                archive = TarArchive.pack(ch.sys, ch.storage.path_of(tag))
            layer = flatten_archive(archive)
            out.attempted += 1
            with rec.span("cluster.fleet.push"):
                manifest = fleet.push(ref, ch.storage.config_of(tag),
                                      [layer], attestations=bundle.blobs())
            out.ops += 1
            with rec.span("supply.gate"):
                report = _passes_gate(gate, fleet, ref)
            check(report.signed and report.package_count > 0,
                  f"gate passed {ref} unsigned or without packages")
            packages += report.package_count
            digests[mode] = (manifest.digest(), bundle.digests())
        _deploy(site, ref, manifest, rec, out)
        out.exact["supply.gate.packages"] = packages
        out.identity = digests
        return out


# --------------------------------------------------------------------------
# deploy-wide


@dataclass
class DeployInputs:
    payloads: list          # (name, bytes) of the base's payload files
    dockerfile: str


class DeployWide:
    name = "deploy-wide"
    n_nodes = 128
    base_ref = f"{SITE_REGISTRY}/site/base:1"

    def inputs(self, seed: int) -> DeployInputs:
        rng = random.Random(f"{seed}|deploy-wide")
        payloads = [(f"opt/payload/libmpi{i}.so",
                     rng.randbytes((1 << 20) - rng.randrange(16384)))
                    for i in range(3)]
        dockerfile = f"FROM {self.base_ref}\n" + ATSE_INSTALLS \
            + _small_runs(rng)
        return DeployInputs(payloads, dockerfile)

    def setup(self, inputs: DeployInputs) -> Site:
        """World, fleet, 128 nodes, and the site base image (centos:7
        plus a payload layer) pushed signed to the fleet."""
        world = make_world(arches=(ARCH,))
        fleet = deploy_fleet(world, n_shards=4, replicas=2)
        gate = _signing_site(fleet, SIGNATURE_ONLY)
        astra = make_astra(world, n_compute=self.n_nodes)
        centos = world.hub.manifest("centos:7", arch=ARCH)
        userland = TarArchive.deserialize(
            world.hub.fetch_blob(centos.layers[0]))
        payload = TarArchive(
            [TarMember("opt", FileType.DIR, 0o755, 0, 0),
             TarMember("opt/payload", FileType.DIR, 0o755, 0, 0)]
            + [TarMember(path, FileType.REG, 0o755, 0, 0, data=data)
               for path, data in inputs.payloads])
        fleet.push(self.base_ref, ImageConfig(arch=ARCH),
                   [userland, payload])
        return Site(fleet, gate, astra.login, astra.scheduler.nodes,
                    {"scheduler": astra.scheduler,
                     "full_gate": PolicyGate(FULL_POLICY, keys=gate.keys,
                                             advisories=gate.advisories)})

    def pipeline(self, site: Site, inputs: DeployInputs, rec) -> PassOutput:
        out = PassOutput()
        ref = f"{SITE_REGISTRY}/{USER}/atse:latest"
        proc = site.login.login(USER)
        podman = Podman(site.login, proc,
                        storage_dir=f"/tmp/{USER}-containers")
        with rec.span("containers.podman.build"):
            result = podman.build(inputs.dockerfile, "atse")
        check(result.success, f"podman build failed: {result.text[-300:]}")
        out.attempted += 1
        with rec.span("containers.podman.push"):
            manifest = podman.push("atse", ref)
        out.ops += 1
        with rec.span("supply.gate"):
            report = _passes_gate(site.gate, site.fleet, ref)
            # a Podman push carries no SBOM: the full policy must refuse it
            full = site.state["full_gate"].audit(site.fleet, ref)
        check(report.signed, f"{ref} passed the gate unsigned")
        check("missing sbom attestation" in full.violations,
              f"full policy verdict on {ref}: {full.violations}")
        _deploy(site, ref, manifest, rec, out)
        out.exact["supply.gate.packages"] = report.package_count
        out.identity = manifest.digest()
        return out


# --------------------------------------------------------------------------
# registry-mix


@dataclass
class MixInputs:
    spec: WorkloadSpec
    images: dict            # ref -> (bin layer, lib layer)
    pushes: list            # (at, ref, token, ci layer bytes)


def _layer(name: str, data: bytes) -> TarArchive:
    return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                 data=data)])


class _TimedFleet:
    """The fleet as ``run_workload`` sees it in a traced pass: every
    ``timed_pull`` is one registry request with a trace of its own.
    Everything else, attribute writes included, goes to the fleet."""

    def __init__(self, fleet: RegistryFleet, rec):
        self.__dict__.update(_fleet=fleet, _rec=rec)

    def timed_pull(self, ref, **kwargs):
        with self._rec.span("cluster.fleet.timed_pull",
                            trace=self._rec.new_trace()):
            return self._fleet.timed_pull(ref, **kwargs)

    def __getattr__(self, name):
        return getattr(self._fleet, name)

    def __setattr__(self, name, value):
        setattr(self._fleet, name, value)


class _TimedGate:
    """The policy gate with its verify-on-pull inside a span."""

    def __init__(self, gate: PolicyGate, rec):
        self._gate, self._rec = gate, rec

    def verify_pull(self, registry, ref, manifest) -> None:
        with self._rec.span("supply.gate"):
            self._gate.verify_pull(registry, ref, manifest)


class RegistryMix:
    name = "registry-mix"
    tenants = (("alice", 3.0), ("bob", 1.0))
    n_images = 16
    #: just under what 4 shards serve for these image sizes: queues fill
    #: and some pulls see 503s, but retries absorb every one of them
    rate = 108.0
    duration = 120.0          # virtual s: >= 12k pulls, so p99.9 has a tail
    push_share = 0.04
    queue_limit = 16
    quota = 64 << 20

    def inputs(self, seed: int) -> MixInputs:
        rng = random.Random(f"{seed}|registry-mix")
        tokens = {t: f"token-{t}-{rng.getrandbits(32):08x}"
                  for t, _ in self.tenants}
        names = [f"app:v{i}" for i in range(self.n_images)]
        spec = WorkloadSpec(seed=seed, rate=self.rate,
                            duration=self.duration, zipf_s=1.1,
                            images=names, tenants=self.tenants,
                            tokens=tokens)
        # sizes barely vary, so the load an image's popularity rank
        # puts on the shards, and so the fleet's capacity, is the same
        # for every seed
        images = {ref: (rng.randbytes(3000 + rng.randrange(256)),
                        rng.randbytes(1500 + rng.randrange(256)))
                  for ref in spec.refs()}
        refs = sorted(images)
        push_rate = self.rate * self.push_share / (1 - self.push_share)
        pushes, at = [], 0.0
        while True:
            at += rng.expovariate(push_rate)
            if at >= self.duration:
                break
            ref = rng.choice(refs)
            pushes.append((at, ref, tokens[ref.split("/")[0]],
                           rng.randbytes(256 + rng.randrange(768))))
        return MixInputs(spec, images, pushes)

    def setup(self, inputs: MixInputs) -> Site:
        """Fleet, tenants and the signed image set the tape pulls."""
        fleet = RegistryFleet(SITE_REGISTRY, n_shards=4, replicas=2,
                              queue_limit=self.queue_limit)
        gate = _signing_site(fleet, SIGNATURE_ONLY)
        fleet.policy_gate = gate
        for tenant, _ in self.tenants:
            fleet.add_tenant(tenant, token=inputs.spec.tokens[tenant],
                             quota_bytes=self.quota)
        for ref, (binary, lib) in inputs.images.items():
            fleet.push(ref, ImageConfig(),
                       [_layer("bin", binary), _layer("lib", lib)],
                       token=inputs.spec.tokens[ref.split("/")[0]])
        return Site(fleet, gate)

    def pipeline(self, site: Site, inputs: MixInputs, rec) -> PassOutput:
        out = PassOutput()
        fleet = site.fleet
        engine = SimEngine()
        pushed = {"ok": 0, "failed": 0}

        def ci_push(ref, token, ci_blob):
            binary = inputs.images[ref][0]
            try:
                with rec.span("cluster.fleet.push", trace=rec.new_trace()):
                    fleet.push(ref, ImageConfig(),
                               [_layer("bin", binary), _layer("ci", ci_blob)],
                               token=token)
            except RegistryError:
                pushed["failed"] += 1
            else:
                pushed["ok"] += 1

        for at, ref, token, blob in inputs.pushes:
            engine.at(at, ci_push, ref, token, blob)
        traced = rec is not NULL_RECORDER
        target = _TimedFleet(fleet, rec) if traced else fleet
        if traced:
            fleet.policy_gate = _TimedGate(site.gate, rec)
        try:
            report = run_workload(target, inputs.spec, engine=engine)
        finally:
            fleet.policy_gate = site.gate
        check(report.completed + report.dropped + report.failed
              == report.offered,
              f"pull accounting: {report.as_dict()}")
        check(pushed["ok"] + pushed["failed"] == len(inputs.pushes),
              f"{pushed} of {len(inputs.pushes)} pushes ran")
        used = 0
        for tenant in fleet.tenants.values():
            resident = sum(fleet.blob_size(d) for d in tenant.digests)
            check(tenant.bytes_used == resident,
                  f"tenant {tenant.name}: ledger {tenant.bytes_used} B, "
                  f"resident {resident} B")
            used += tenant.bytes_used
        out.attempted = report.offered + len(inputs.pushes)
        out.failed = report.dropped + report.failed + pushed["failed"]
        out.ops = report.completed + pushed["ok"]
        p50 = percentile(report.latencies, 0.50)
        p999 = percentile(report.latencies, 0.999)
        check(p999 is not None,
              f"{len(report.latencies)} pulls leave no p99.9 tail")
        out.exact.update({
            "cluster.fleet.overloads": report.overloads,
            "cluster.fleet.retries": report.retries,
            "cluster.fleet.dropped": report.dropped,
            "cluster.fleet.queue_depth_max": max(
                s.stats.queue_depth_max for s in fleet.shards),
            "cluster.fleet.tenant.bytes_used": used,
            "sim.events": engine.events_processed,
            "pull_p50_vs": p50,
            "pull_p999_vs": p999,
            "deploy_makespan_vs": report.makespan,
        })
        out.identity = (report.as_dict(), pushed["ok"])
        return out


WORKLOADS = {w.name: w for w in (Build10k(), DeployWide(), RegistryMix())}
