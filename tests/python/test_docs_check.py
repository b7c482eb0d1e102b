#!/usr/bin/env python3
"""Runs tools/docs_check.py on two scratch trees holding the same files:

  - a git repository whose worktree has a tracked markdown file deleted
    but not staged: the check must skip that file, still report the link
    that points at it, and report nothing else;
  - an exported tree with no git repository (as `git archive` leaves it):
    the check must read every *.md outside the directories .gitignore
    names and report the same single finding, without a traceback.

    python3 tests/python/test_docs_check.py
"""

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
CHECK = ROOT / "tools" / "docs_check.py"
FINDING = "README.md:1: DOC1 broken relative link: (docs/old.md)"


def git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=docs-check", "-c",
         "user.email=docs-check@example.invalid", *args],
        cwd=repo, check=True, capture_output=True)


def write(repo: Path, rel: str, text: str) -> None:
    path = repo / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_tree(repo: Path) -> None:
    # The smallest tree the DOC2 and DOC3 rules accept.
    write(repo, "docs/observability.md", "# Metrics\n")
    write(repo, "docs/architecture.md",
          "| module | may include |\n|---|---|\n| `util` | — |\n")
    write(repo, "tools/eevfs_lint/lint.cpp",
          'const Deps kDeps = {{"util", {}}};\n')
    write(repo, "README.md",
          "See [notes](docs/notes.md) and [old](docs/old.md).\n")
    write(repo, "docs/notes.md", "Back to [readme](../README.md).\n")
    write(repo, "docs/old.md", "A [dead link](missing.md).\n")
    # Build output the check must never read.
    write(repo, ".gitignore", "# build trees\nbuild/\n")
    write(repo, "build/out/report.md", "A [dead link](missing.md).\n")


def check(repo: Path) -> subprocess.CompletedProcess:
    # Git must not find a repository above the scratch tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(repo.parent))
    return subprocess.run(
        [sys.executable, str(CHECK), str(repo)],
        capture_output=True, text=True, env=env)


def findings(run: subprocess.CompletedProcess) -> list[str]:
    return [line for line in run.stdout.splitlines() if " DOC" in line]


class DeletedTrackedFile(unittest.TestCase):
    def test_reports_only_the_link_to_the_deleted_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = Path(tmp)
            git(repo, "init", "-q")
            write_tree(repo)
            git(repo, "add", "-A")
            git(repo, "commit", "-q", "-m", "tree")
            (repo / "docs" / "old.md").unlink()

            run = check(repo)
            self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
            self.assertNotIn("Traceback", run.stderr)
            self.assertEqual(findings(run), [FINDING])


class ExportedTree(unittest.TestCase):
    def test_checks_every_markdown_file_without_git(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = Path(tmp)
            write_tree(repo)
            (repo / "docs" / "old.md").unlink()

            run = check(repo)
            self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
            self.assertNotIn("Traceback", run.stderr)
            self.assertEqual(findings(run), [FINDING])
            self.assertIn("docs_check: 4 markdown files", run.stdout)


if __name__ == "__main__":
    unittest.main()
