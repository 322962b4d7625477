"""OCI-ish image model: references, configs, manifests."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..errors import RegistryError

__all__ = ["ImageRef", "ImageConfig", "Manifest"]

_REF_RE = re.compile(
    r"^(?:(?P<registry>[a-z0-9.\-]+(?::\d+)?)/)?"
    r"(?P<repo>[a-z0-9][a-z0-9._\-/]*?)"
    r"(?::(?P<tag>[A-Za-z0-9._\-]+))?$"
)


@dataclass(frozen=True)
class ImageRef:
    """A parsed image reference: ``[registry/]repository[:tag]``."""

    repository: str
    tag: str = "latest"
    registry: Optional[str] = None

    @classmethod
    def parse(cls, text: str) -> "ImageRef":
        m = _REF_RE.match(text.strip())
        if m is None:
            raise RegistryError(f"invalid image reference {text!r}")
        registry = m.group("registry")
        # "centos:7" parses with registry=None; "gitlab.lanl.gov/app:v1"
        # needs the dot heuristic real tools use.
        if registry is not None and "." not in registry and \
                ":" not in registry and registry != "localhost":
            return cls(repository=f"{registry}/{m.group('repo')}",
                       tag=m.group("tag") or "latest")
        return cls(repository=m.group("repo"), tag=m.group("tag") or "latest",
                   registry=registry)

    def __str__(self) -> str:
        prefix = f"{self.registry}/" if self.registry else ""
        return f"{prefix}{self.repository}:{self.tag}"

    @property
    def flat_name(self) -> str:
        """Filesystem-safe name (ch-image storage-directory style)."""
        return str(self).replace("/", "%").replace(":", "+")


def _memo_digest(obj, body: Callable[[], str]) -> str:
    """The content digest of a frozen *obj*, hashed on first use only.

    The memo lives in the instance ``__dict__`` beside the dataclass
    fields, so ``eq``, ``hash`` and ``repr`` never see it, and
    ``dataclasses.replace`` builds a fresh object with no memo."""
    memo = obj.__dict__.get("_digest")
    if memo is None:
        memo = "sha256:" + hashlib.sha256(body().encode()).hexdigest()
        object.__setattr__(obj, "_digest", memo)
    return memo


@dataclass(frozen=True)
class ImageConfig:
    """Image runtime configuration (the OCI config blob)."""

    arch: str = "x86_64"
    env: tuple[str, ...] = ()
    cmd: tuple[str, ...] = ("/bin/sh",)
    entrypoint: tuple[str, ...] = ()
    workdir: str = "/"
    user: str = ""
    labels: tuple[tuple[str, str], ...] = ()
    history: tuple[str, ...] = ()

    def with_history(self, line: str) -> "ImageConfig":
        return replace(self, history=self.history + (line,))

    def digest(self) -> str:
        return _memo_digest(self, lambda: repr(self))


@dataclass(frozen=True)
class Manifest:
    """Image manifest: config + ordered layer digests."""

    config: ImageConfig
    layers: tuple[str, ...]  # blob digests, base first

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def digest(self) -> str:
        return _memo_digest(
            self, lambda: self.config.digest() + "".join(self.layers))
