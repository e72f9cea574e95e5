"""Docs can't rot silently: the CI docs checks also run under tier-1."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = module
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    checker = _load_checker()
    assert checker.check_links() == []


def test_doctested_modules_pass():
    checker = _load_checker()
    assert checker.check_doctests() == []


def test_architecture_doc_exists_and_linked():
    architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert architecture.exists()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme


def test_readme_knob_table_names_live_fields():
    checker = _load_checker()
    assert checker.check_knobs() == []


def test_knob_table_check_rejects_stale_names_and_defaults():
    checker = _load_checker()
    table = "\n".join(
        [
            checker.KNOB_SECTION,
            "",
            "| Knob | Default | Meaning |",
            "|---|---|---|",
            "| `pacing.max_steps` / `throttled_steps` | `64` / `8` | step budgets |",
            "| `elastic.grow_hysteresis` / `shrink_hysteresis` | `1.3` / `0.5` | band |",
            "| `maintainer.max_satellites` | `12` | removed field |",
            "| `replication_enabled` | `True` | removed field |",
        ]
    )
    problems = checker.check_knob_table(table)
    assert len(problems) == 3
    assert "`elastic.shrink_hysteresis` documents default 0.5" in problems[0]
    assert "`maintainer.max_satellites` is not an OnlineOptions field" in problems[1]
    assert "`replication_enabled` is not an OnlineOptions field" in problems[2]
