#!/usr/bin/env python
"""Docs health check: markdown link validation + doctests.

Two passes, both dependency-free:

1. **Link check** — every relative markdown link in README.md, ROADMAP.md,
   PAPER.md, PAPERS.md and docs/*.md must point at an existing file
   (anchors are checked against the target file's headings, GitHub-slug
   style).  External (http/https/mailto) links are not fetched.
2. **Doctests** — ``doctest.testmod`` over the modules that carry doctested
   examples (listed in ``DOCTEST_MODULES``), so the examples shown in
   ``help()`` output cannot rot silently.

Exit status 0 when everything passes; 1 with a per-problem report
otherwise.  Run from the repository root (CI docs job, or locally):

    python tools/check_docs.py
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

from _common import report_problems  # noqa: E402

#: markdown files whose links must stay valid.
MARKDOWN_FILES = ("README.md", "ROADMAP.md", "PAPER.md", "PAPERS.md", "CHANGES.md")
MARKDOWN_GLOBS = ("docs/*.md",)

#: modules with doctested examples (keep in sync with the CI docs job).
DOCTEST_MODULES = (
    "repro.graph.assignment",
    "repro.obs.metrics",
    "repro.routing.lookup",
    "repro.online.controller",
    "repro.pipeline.plan",
)

#: [text](target) — excluding images; target split from an optional title.
_LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")


def _heading_anchors(markdown: str) -> set[str]:
    """GitHub-style anchor slugs of every heading in ``markdown``."""
    anchors: set[str] = set()
    for line in markdown.splitlines():
        match = re.match(r"#{1,6}\s+(.*)", line)
        if not match:
            continue
        heading = re.sub(r"[`*_]", "", match.group(1).strip())
        slug = re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")
        anchors.add(slug)
    return anchors


def check_links() -> list[str]:
    """Validate every relative link; returns a list of problem strings."""
    problems: list[str] = []
    files = [REPO_ROOT / name for name in MARKDOWN_FILES]
    for pattern in MARKDOWN_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    for path in files:
        if not path.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: file listed but missing")
            continue
        text = path.read_text(encoding="utf-8")
        for match in _LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target_path, _, anchor = target.partition("#")
            if not target_path:
                # Same-file anchor.
                resolved = path
            else:
                resolved = (path.parent / target_path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}: broken link -> {target}"
                    )
                    continue
            if anchor and resolved.suffix == ".md":
                anchors = _heading_anchors(resolved.read_text(encoding="utf-8"))
                if anchor.lower() not in anchors:
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}: missing anchor -> {target}"
                    )
    return problems


def check_doctests() -> list[str]:
    """Run the doctests of ``DOCTEST_MODULES``; returns problem strings."""
    problems: list[str] = []
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for module_name in DOCTEST_MODULES:
        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        if result.attempted == 0:
            problems.append(f"{module_name}: no doctests found (stale DOCTEST_MODULES?)")
        elif result.failed:
            problems.append(f"{module_name}: {result.failed} doctest failure(s)")
    return problems


def main() -> int:
    problems = check_links() + check_doctests()
    return report_problems(problems, "docs check: links and doctests ok")


if __name__ == "__main__":
    raise SystemExit(main())
