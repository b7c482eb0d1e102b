#!/usr/bin/env python3
"""Documentation consistency check (`ctest -L lint` / CI lint job).

Three rules:

  DOC1  every relative markdown link in a tracked *.md file must point
        at a file (or directory) that exists; `#fragment` suffixes are
        stripped first.  External links (http/https/mailto) and pure
        in-page anchors are ignored.  In a tree git cannot list, such as
        a `git archive` export, every *.md outside the directories
        .gitignore names is checked instead.

  DOC2  every metric name documented in docs/observability.md
        (`component.metric.unit` spans in backticks — the same grammar
        eevfs-lint's O2 rule uses) must still appear as a string literal
        somewhere under src/.  eevfs-lint enforces code -> doc coverage;
        this is the reverse direction, catching stale doc entries after
        a metric is renamed or removed.

  DOC3  the module DAG table in docs/architecture.md must match the
        `layer_deps()` initializer in tools/eevfs_lint/lint.cpp — same
        module set, same "may include" list per module.  Rule L1
        enforces the code against the initializer; this closes the loop
        so the human-readable table cannot drift from what the linter
        actually enforces.

Usage: tools/docs_check.py [REPO_ROOT]   (default: parent of tools/)
Exit 0 when clean, 1 with a findings listing otherwise.
"""

import os
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

# [text](target) — good enough for the repo's hand-written markdown;
# skips fenced code blocks below so lint examples don't trip it.
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
METRIC_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*){2,})`")
EXTERNAL = ("http://", "https://", "mailto:")


def markdown_files(root: Path) -> list[Path]:
    """The *.md files to check.  In a git checkout, the tracked ones
    present in the worktree: a tracked file deleted but not yet staged
    has no links to check, and links to it still fail.  Where git cannot
    list them, as in a `git archive` export, every *.md under the root
    outside the directories .gitignore names."""
    try:
        out = subprocess.run(
            ["git", "ls-files", "*.md"], cwd=root, check=True,
            capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return markdown_outside_git(root)
    return [root / line for line in out.stdout.splitlines()
            if line and (root / line).is_file()]


def markdown_outside_git(root: Path) -> list[Path]:
    gitignore = root / ".gitignore"
    lines = (gitignore.read_text(encoding="utf-8").splitlines()
             if gitignore.is_file() else [])
    ignored = [line.strip().strip("/") for line in lines
               if line.strip() and not line.startswith(("#", "!"))]
    found = []
    for top, dirs, files in os.walk(root):
        # Pruned in place, so os.walk never enters an ignored directory.
        dirs[:] = [d for d in dirs
                   if not any(fnmatch(d, name) for name in ignored)]
        found += [Path(top) / f for f in files if f.endswith(".md")]
    return sorted(found)


def check_links(root: Path, files: list[Path]) -> list[str]:
    findings = []
    for md in files:
        in_fence = False
        for lineno, line in enumerate(
                md.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(EXTERNAL) or target.startswith("#"):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.is_relative_to(root.resolve()):
                    # Escapes the checkout — a forge UI path (e.g. the
                    # README's ../../actions badge), not a repo file.
                    continue
                if not resolved.exists():
                    rel = md.relative_to(root)
                    findings.append(
                        f"{rel}:{lineno}: DOC1 broken relative link: "
                        f"({target})")
    return findings


def check_metric_drift(root: Path) -> list[str]:
    doc = root / "docs" / "observability.md"
    if not doc.exists():
        return [f"{doc}: DOC2 metrics reference is missing"]
    documented = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        documented.update(METRIC_RE.findall(line))
    src_blob = "".join(
        p.read_text(encoding="utf-8", errors="replace")
        for p in sorted((root / "src").rglob("*"))
        if p.suffix in (".cpp", ".hpp"))
    findings = []
    for name in sorted(documented):
        # Emit sites build names as "component." + suffix or full
        # literals; accept either the full name or its metric.unit tail.
        tail = name.split(".", 1)[1]
        if name not in src_blob and tail not in src_blob:
            findings.append(
                f"docs/observability.md: DOC2 documented metric "
                f"`{name}` no longer appears in src/ — stale entry?")
    return findings


DAG_ROW_RE = re.compile(r"^\|\s*`([a-z]+)`\s*\|([^|]*)\|")
DEPS_ENTRY_RE = re.compile(r'\{\s*"([a-z]+)"\s*,\s*\{([^{}]*)\}\s*\}')


def parse_doc_dag(root: Path) -> dict[str, set[str]]:
    """Module -> deps from the architecture.md "may include" table."""
    doc = root / "docs" / "architecture.md"
    if not doc.exists():
        return {}
    dag = {}
    for line in doc.read_text(encoding="utf-8").splitlines():
        m = DAG_ROW_RE.match(line.strip())
        if not m:
            continue
        deps_cell = m.group(2).strip()
        deps = (set() if deps_cell in ("—", "-", "")
                else {d.strip().strip("`") for d in deps_cell.split(",")})
        dag[m.group(1)] = deps
    return dag


def parse_lint_dag(root: Path) -> dict[str, set[str]]:
    """Module -> deps from the kDeps initializer in the linter source."""
    src = root / "tools" / "eevfs_lint" / "lint.cpp"
    if not src.exists():
        return {}
    text = src.read_text(encoding="utf-8")
    start = text.find("kDeps = {")
    end = text.find("};", start)
    if start < 0 or end < 0:
        return {}
    dag = {}
    for m in DEPS_ENTRY_RE.finditer(text[start:end]):
        deps = {d.strip().strip('"') for d in m.group(2).split(",")
                if d.strip()}
        dag[m.group(1)] = deps
    return dag


def check_dag_drift(root: Path) -> list[str]:
    doc = parse_doc_dag(root)
    lint = parse_lint_dag(root)
    if not doc:
        return ["docs/architecture.md: DOC3 module DAG table not found"]
    if not lint:
        return ["tools/eevfs_lint/lint.cpp: DOC3 kDeps initializer "
                "not found"]
    findings = []
    for mod in sorted(set(doc) | set(lint)):
        if mod not in doc:
            findings.append(
                f"docs/architecture.md: DOC3 module `{mod}` is in "
                f"layer_deps() but missing from the DAG table")
        elif mod not in lint:
            findings.append(
                f"docs/architecture.md: DOC3 module `{mod}` is in the "
                f"DAG table but not in layer_deps()")
        elif doc[mod] != lint[mod]:
            findings.append(
                f"docs/architecture.md: DOC3 `{mod}` deps drifted: "
                f"table says {sorted(doc[mod])}, layer_deps() says "
                f"{sorted(lint[mod])}")
    return findings


def main() -> int:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent)
    files = markdown_files(root)
    findings = (check_links(root, files) + check_metric_drift(root)
                + check_dag_drift(root))
    for f in findings:
        print(f)
    print(f"docs_check: {len(files)} markdown files, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
