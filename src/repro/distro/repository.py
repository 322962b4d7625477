"""Package repositories and the package universe (the 'internet').

Repositories are addressed by ``repo://<distro>/<id>`` URLs from inside
images (yum ``baseurl=``, apt ``sources.list``); the universe resolves them.
Access only works when the machine's network is online — the substrate for
the paper's point that isolated build environments "may not be able to
access needed resources" (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PackageError
from .packages import Package

__all__ = ["Repository", "PackageUniverse", "REPO_SCHEME"]

REPO_SCHEME = "repo://"


@dataclass
class Repository:
    """One package repository."""

    repo_id: str  # e.g. "centos7/base"
    name: str
    packages: dict[str, Package] = field(default_factory=dict)
    #: bytes served per package fetch, for the benches' transfer accounting
    fetch_log: list[str] = field(default_factory=list)

    def add(self, *pkgs: Package) -> "Repository":
        for p in pkgs:
            self.packages[p.name] = p
        return self

    def get(self, name: str) -> Package:
        try:
            return self.packages[name]
        except KeyError:
            raise PackageError(f"repository {self.repo_id}: no package "
                               f"{name!r}")

    def has(self, name: str) -> bool:
        return name in self.packages

    def fetch(self, name: str) -> Package:
        """Download a package (logged, so tests can assert on traffic)."""
        pkg = self.get(name)
        self.fetch_log.append(name)
        return pkg

    def index_bytes(self) -> int:
        """Size of the metadata index (what apt-get update transfers)."""
        return sum(
            64 + len(p.name) + len(p.summary) + 16 * len(p.files)
            for p in self.packages.values()
        )


class PackageUniverse:
    """All repositories that exist 'on the internet'."""

    def __init__(self):
        self._repos: dict[str, Repository] = {}

    def add_repo(self, repo: Repository) -> Repository:
        self._repos[repo.repo_id] = repo
        return repo

    def repo(self, repo_id: str) -> Repository:
        rid = repo_id
        if rid.startswith(REPO_SCHEME):
            rid = rid[len(REPO_SCHEME):]
        try:
            return self._repos[rid]
        except KeyError:
            raise PackageError(f"cannot reach repository {repo_id!r}")

    def has_repo(self, repo_id: str) -> bool:
        rid = repo_id
        if rid.startswith(REPO_SCHEME):
            rid = rid[len(REPO_SCHEME):]
        return rid in self._repos
