#!/usr/bin/env python
"""Docs health check: markdown link validation, doctests and the knob table.

Three passes, all dependency-free:

1. **Link check** — every relative markdown link in README.md, ROADMAP.md,
   PAPER.md, PAPERS.md and docs/*.md must point at an existing file
   (anchors are checked against the target file's headings, GitHub-slug
   style).  External (http/https/mailto) links are not fetched.
2. **Doctests** — ``doctest.testmod`` over the modules that carry doctested
   examples (listed in ``DOCTEST_MODULES``), so the examples shown in
   ``help()`` output cannot rot silently.
3. **Knob table** — every backticked knob in README's "Online replication
   and elasticity knobs" table (``pacing.max_steps``,
   ``elastic.grow_hysteresis`` / ``shrink_hysteresis``) must name a field
   of ``repro.online.OnlineOptions``, dotted names resolving through its
   nested options dataclasses, and the Default column must match the
   field's default.  A bare name after a dotted one in the same cell shares
   its prefix.

Exit status 0 when everything passes; 1 with a per-problem report
otherwise.  Run from the repository root (CI docs job, or locally):

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import doctest
import importlib
import re
import sys
import types
import typing
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

#: the README section whose table lists the OnlineOptions knobs.
KNOB_SECTION = "## Online replication and elasticity knobs"

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


def _knob_field(root: type, dotted: str) -> dataclasses.Field:
    """The dataclass field ``dotted`` names under ``root``; KeyError if none."""
    owner = root
    *parents, name = dotted.split(".")
    for parent in parents:
        if parent not in {field.name for field in dataclasses.fields(owner)}:
            raise KeyError(dotted)
        hint = typing.get_type_hints(owner)[parent]
        if isinstance(hint, types.UnionType) or typing.get_origin(hint) is typing.Union:
            hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
        if not dataclasses.is_dataclass(hint):
            raise KeyError(dotted)
        owner = hint
    for field in dataclasses.fields(owner):
        if field.name == name:
            return field
    raise KeyError(dotted)


def _field_default(field: dataclasses.Field) -> object:
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def _documents_default(text: str, default: object) -> bool:
    """Whether the Default cell ``text`` spells ``default`` (``0.10`` == 0.1)."""
    try:
        return ast.literal_eval(text) == default
    except (ValueError, SyntaxError):
        return text == repr(default)


def check_knob_table(markdown: str) -> list[str]:
    """Resolve every knob of the README knob table; returns problem strings."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.online import OnlineOptions

    _, found, section = markdown.partition(KNOB_SECTION)
    if not found:
        return [f"README.md: section {KNOB_SECTION!r} is missing"]
    problems: list[str] = []
    rows = 0
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) < 2 or not cells[0].startswith("`"):
            continue
        rows += 1
        names = re.findall(r"`([^`]+)`", cells[0])
        defaults = re.findall(r"`([^`]+)`", cells[1])
        prefix = names[0].rpartition(".")[0]
        for index, name in enumerate(names):
            dotted = name if "." in name or not prefix else f"{prefix}.{name}"
            try:
                field = _knob_field(OnlineOptions, dotted)
            except KeyError:
                problems.append(f"README.md: knob `{dotted}` is not an OnlineOptions field")
                continue
            default = _field_default(field)
            if len(defaults) == len(names) and not _documents_default(defaults[index], default):
                problems.append(
                    f"README.md: knob `{dotted}` documents default {defaults[index]}, "
                    f"the field defaults to {default!r}"
                )
    if rows == 0:
        problems.append("README.md: the knob table has no rows")
    return problems


def check_knobs() -> list[str]:
    """:func:`check_knob_table` over the repository README."""
    return check_knob_table((REPO_ROOT / "README.md").read_text(encoding="utf-8"))


def main() -> int:
    problems = check_links() + check_doctests() + check_knobs()
    return report_problems(problems, "docs check: links, doctests and knob table ok")


if __name__ == "__main__":
    raise SystemExit(main())
