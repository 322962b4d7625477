"""§3.1 survey implementations: Singularity, Shifter/Sarus, Enroot."""

import pytest

from repro.archive import TarArchive
from repro.containers import (
    DefinitionFile,
    Enroot,
    HpcRuntimeError,
    ShifterGateway,
    Singularity,
    SingularityError,
)
from repro.core import ChImage, push_image

SINGULARITY_DEF = """\
Bootstrap: docker
From: centos:7

%post
    yum install -y gcc openmpi hdf5 atse

%environment
    export STACK=atse

%runscript
    /opt/atse/bin/atse-info
"""


class TestDefinitionFile:
    def test_parse(self):
        spec = DefinitionFile.parse(SINGULARITY_DEF)
        assert spec.bootstrap == "docker"
        assert spec.base == "centos:7"
        assert "yum install" in spec.post
        assert "STACK=atse" in spec.environment
        assert "atse-info" in spec.runscript

    def test_missing_headers(self):
        with pytest.raises(SingularityError):
            DefinitionFile.parse("%post\n  true\n")


class TestSingularity:
    def test_type2_build_from_definition(self, login, alice):
        """§3.1: 'Singularity 3.7 can build in Type II mode, but only from
        Singularity definition files'."""
        sing = Singularity(login, alice)
        image = sing.build("/home/alice/atse.sif", SINGULARITY_DEF)
        assert image.is_flattened
        status, out = sing.run(image, ["/opt/atse/bin/atse-info"])
        assert status == 0, out
        assert "ATSE" in out

    def test_rebuild_replaces_the_work_tree(self, login, alice):
        """A second build of the same SIF removes the first build's
        working tree before unpacking the base again."""
        sing = Singularity(login, alice)
        first = sing.build("/home/alice/atse.sif", SINGULARITY_DEF)
        blob = sing.sys.read_file(first.path)
        sing.sys.write_file(f"{sing.cache_dir}/build-atse.sif/stale",
                            b"left over")
        again = sing.build("/home/alice/atse.sif", SINGULARITY_DEF)
        assert not sing.sys.exists(f"{sing.cache_dir}/build-atse.sif/stale")
        assert sing.sys.read_file(again.path) == blob
        status, out = sing.run(again, ["/opt/atse/bin/atse-info"])
        assert status == 0 and "ATSE" in out

    def test_dockerfile_rejected(self, login, alice):
        """The interoperability limitation, verbatim."""
        sing = Singularity(login, alice)
        with pytest.raises(SingularityError) as exc:
            sing.build("/home/alice/x.sif",
                       "FROM centos:7\nRUN yum install -y gcc\n")
        assert "definition files" in str(exc.value)

    def test_sif_is_single_flattened_file(self, login, alice):
        sing = Singularity(login, alice)
        image = sing.build("/home/alice/atse.sif", SINGULARITY_DEF)
        blob = sing.sys.read_file(image.path)
        archive = TarArchive.deserialize(blob)
        assert all((m.uid, m.gid) == (0, 0) for m in archive)
        assert all(not m.mode & 0o6000 for m in archive)

    def test_failing_post_reported(self, login, alice):
        sing = Singularity(login, alice)
        bad = "Bootstrap: docker\nFrom: centos:7\n\n%post\n    false\n"
        with pytest.raises(SingularityError) as exc:
            sing.build("/home/alice/bad.sif", bad)
        assert "%post failed" in str(exc.value)

    def test_fakeroot_can_be_disabled_by_admin(self, login, alice):
        sing = Singularity(login, alice, allow_fakeroot=False)
        with pytest.raises(SingularityError):
            sing.build("/home/alice/x.sif", SINGULARITY_DEF)

    def test_conversion_path_from_docker(self, login, alice, world):
        """§3.1: build elsewhere, convert to SIF."""
        ch = ChImage(login, alice)
        assert ch.build(tag="app", force=True,
                        dockerfile="FROM centos:7\nRUN yum install -y "
                                   "gcc openmpi hdf5 atse\n").success
        push_image(ch.storage, "app", "gitlab.example.gov/alice/app:v1")
        _, layers = world.site_registry.pull("alice/app:v1")
        sing = Singularity(login, alice)
        image = sing.build_from_docker_archive("/home/alice/conv.sif", layers)
        status, out = sing.run(image, ["/opt/atse/bin/atse-info"])
        assert status == 0, out


class TestShifter:
    def test_pull_and_run(self, login, alice):
        gw = ShifterGateway(login)
        gw.pull("centos:7")
        status, out = gw.run(alice, "centos:7",
                             ["cat", "/etc/redhat-release"])
        assert status == 0
        assert "CentOS" in out

    def test_job_keeps_user_credentials(self, login, alice):
        """Type I mount setup, but the job is NOT root."""
        gw = ShifterGateway(login)
        gw.pull("centos:7")
        status, out = gw.run(alice, "centos:7", ["id", "-u"])
        assert status == 0
        assert out.strip() == "1000"

    def test_no_build_capability(self, login):
        gw = ShifterGateway(login)
        with pytest.raises(HpcRuntimeError) as exc:
            gw.build("FROM centos:7\n", "x")
        assert "no build capability" in str(exc.value)

    def test_run_requires_prior_pull(self, login, alice):
        gw = ShifterGateway(login)
        with pytest.raises(HpcRuntimeError):
            gw.run(alice, "debian:buster", ["true"])


class TestEnroot:
    def test_import_and_start_fully_unprivileged(self, login, alice):
        """§3.1: 'fully unprivileged', 'no setuid binary'."""
        enroot = Enroot(login, alice)
        enroot.import_image("centos:7")
        status, out = enroot.start("centos:7", ["id", "-u"])
        assert status == 0
        assert out.strip() == "0"  # container root = alias of alice

    def test_image_owned_by_user(self, login, alice):
        enroot = Enroot(login, alice)
        path = enroot.import_image("centos:7")
        st = enroot.sys.stat(f"{path}/etc/redhat-release")
        assert st.kuid == 1000

    def test_no_build_capability(self, login, alice):
        enroot = Enroot(login, alice)
        with pytest.raises(HpcRuntimeError) as exc:
            enroot.build()
        assert "no build capability" in str(exc.value)

    def test_start_requires_import(self, login, alice):
        with pytest.raises(HpcRuntimeError):
            Enroot(login, alice).start("centos:7", ["true"])


class TestShifterReadOnly:
    def test_image_is_read_only_for_jobs(self, login, alice):
        """Shifter images are loop-mounted squashfs: jobs cannot write them."""
        gw = ShifterGateway(login)
        gw.pull("centos:7")
        status, out = gw.run(alice, "centos:7",
                             ["/bin/sh", "-c", "echo x > /etc/injected"])
        assert status != 0
        assert "Read-only file system" in out

    def test_reads_still_work(self, login, alice):
        gw = ShifterGateway(login)
        gw.pull("centos:7")
        status, _ = gw.run(alice, "centos:7", ["cat", "/etc/redhat-release"])
        assert status == 0
