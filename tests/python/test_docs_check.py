#!/usr/bin/env python3
"""Runs tools/docs_check.py on a scratch git repository whose worktree has
a tracked markdown file deleted but not staged: the check must skip that
file, still report the link that points at it, and report nothing else.

    python3 tests/python/test_docs_check.py
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
CHECK = ROOT / "tools" / "docs_check.py"


def git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=docs-check", "-c",
         "user.email=docs-check@example.invalid", *args],
        cwd=repo, check=True, capture_output=True)


def write(repo: Path, rel: str, text: str) -> None:
    path = repo / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class DeletedTrackedFile(unittest.TestCase):
    def test_reports_only_the_link_to_the_deleted_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = Path(tmp)
            git(repo, "init", "-q")
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
            git(repo, "add", "-A")
            git(repo, "commit", "-q", "-m", "tree")
            (repo / "docs" / "old.md").unlink()

            run = subprocess.run(
                [sys.executable, str(CHECK), str(repo)],
                capture_output=True, text=True)
            self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
            self.assertNotIn("Traceback", run.stderr)
            findings = [line for line in run.stdout.splitlines()
                        if " DOC" in line]
            self.assertEqual(
                findings,
                ["README.md:1: DOC1 broken relative link: (docs/old.md)"])


if __name__ == "__main__":
    unittest.main()
