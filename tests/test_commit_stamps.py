"""Committed benchmark numbers name the tree that produced them.

``benchmarks/bench_perf.py``, ``benchmarks/bench_pruning.py`` and
``tools/serve_loadgen.py`` stamp their output with
:func:`repro.perf.commit_stamp`: HEAD's short hash, marked ``-dirty``
when a tracked file differs from HEAD (untracked files do not count).
"""

import subprocess

from repro.perf import commit_stamp


def _git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         *args], cwd=root, capture_output=True, text=True,
        check=True).stdout.strip()


def test_stamp_marks_a_dirty_tree(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    _git(tmp_path, "add", "tracked.txt")
    _git(tmp_path, "commit", "-q", "-m", "first")
    sha = _git(tmp_path, "rev-parse", "--short", "HEAD")
    assert commit_stamp(tmp_path) == sha
    (tmp_path / "untracked.txt").write_text("new\n")
    assert commit_stamp(tmp_path) == sha
    (tmp_path / "tracked.txt").write_text("two\n")
    assert commit_stamp(tmp_path) == f"{sha}-dirty"
    _git(tmp_path, "add", "tracked.txt")  # staged counts as dirty too
    assert commit_stamp(tmp_path) == f"{sha}-dirty"


def test_stamp_outside_a_repository_is_unknown(tmp_path):
    assert commit_stamp(tmp_path) == "unknown"
