"""The base-image utilities no Dockerfile in the repository runs.

``distro/baseimages.py`` puts them in every base image's ``/bin``, so
they are part of what a user's ``RUN`` line can call (and of the
centos:7 layer digest); these tests pin what each one does.
"""

import pytest

from repro.shell import OutputSink, run_shell
from repro.shell.install import install_binary


def sh(ctx, script):
    child = ctx.child(stdout=OutputSink(), stderr=OutputSink())
    status = run_shell(child, script)
    return status, child.stdout.text(), child.stderr.text()


@pytest.fixture
def ctx(root_ctx):
    for name in ("sleep", "date", "false"):
        install_binary(root_ctx.sys, f"/usr/bin/{name}", f"coreutils.{name}")
    root_ctx.sys.write_file("/tmp/src", b"payload")
    root_ctx.sys.chmod("/tmp/src", 0o640)
    return root_ctx


class TestFileUtilities:
    def test_cp_copies_bytes_and_mode_into_a_directory(self, ctx):
        ctx.sys.mkdir("/tmp/dir")
        assert sh(ctx, "cp /tmp/src /tmp/dir")[0] == 0
        assert ctx.sys.read_file("/tmp/dir/src") == b"payload"
        assert ctx.sys.stat("/tmp/dir/src").st_mode & 0o777 == 0o640
        status, _, err = sh(ctx, "cp /tmp/missing /tmp/x")
        assert status == 1 and "cp:" in err

    def test_mv_renames(self, ctx):
        assert sh(ctx, "mv /tmp/src /tmp/dst")[0] == 0
        assert not ctx.sys.exists("/tmp/src")
        assert ctx.sys.read_file("/tmp/dst") == b"payload"
        assert sh(ctx, "mv /tmp/only-one")[0] == 1

    def test_ln_makes_hard_and_symbolic_links(self, ctx):
        assert sh(ctx, "ln /tmp/src /tmp/hard && ln -s src /tmp/soft")[0] \
            == 0
        assert ctx.sys.stat("/tmp/hard").st_ino \
            == ctx.sys.stat("/tmp/src").st_ino
        assert ctx.sys.readlink("/tmp/soft") == "src"
        assert sh(ctx, "ln /tmp/src /tmp/hard")[0] == 1     # EEXIST

    def test_chgrp_changes_only_the_group(self, ctx):
        assert sh(ctx, "chgrp 65534 /tmp/src")[0] == 0
        st = ctx.sys.stat("/tmp/src")
        assert (st.st_uid, st.st_gid) == (0, 65534)

    def test_stat_reports_size_mode_and_owner(self, ctx):
        status, out, _ = sh(ctx, "stat /tmp/src")
        assert status == 0
        assert "Size: 7" in out and "(0640)" in out and "Uid: (0)" in out
        assert sh(ctx, "stat /tmp/missing")[0] == 1


class TestProcessUtilities:
    def test_hostname_date_sleep_false(self, ctx):
        assert sh(ctx, "hostname")[1] == "shellhost\n"
        status, out, _ = sh(ctx, "date")
        assert status == 0 and out.strip()
        assert sh(ctx, "sleep 5")[0] == 0       # simulated: instant
        assert sh(ctx, "false")[0] == 1
        assert sh(ctx, "false || echo ran")[1] == "ran\n"

    def test_egrep_matches_extended_expressions(self, ctx):
        ctx.sys.write_file("/tmp/words", b"cat\ndog\ncow\n")
        status, out, _ = sh(ctx, "egrep 'cat|cow' /tmp/words")
        assert status == 0 and out == "cat\ncow\n"
        # basic grep reads the same pattern literally
        assert sh(ctx, "grep 'cat|cow' /tmp/words")[0] == 1
