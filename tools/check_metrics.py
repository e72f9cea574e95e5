#!/usr/bin/env python
"""Validate a ``--metrics-out`` snapshot against ``docs/metrics_schema.json``.

The resilience legs of CI's chaos job run the scenario with
``--metrics-out`` and feed the snapshot through this checker: the schema
pins the snapshot structure and its ``required`` list names every documented
metric family the scenario must export, so an instrumentation point that is
accidentally removed (or renamed) fails the job instead of silently
vanishing from dashboards.

Snapshots from runs that never construct the online/migration layers (plain
``repro run`` or ``deploy``) legitimately export a subset of the families;
validate those with ``--partial``, which checks every exported family's
structure but waives the completeness requirement.  Other scenarios export
a *different* complete set: ``--profile NAME`` swaps the requirement for
the family list recorded under ``$profiles`` in the schema (``storage`` is
the real-storage chaos run).

Usage::

    python tools/check_metrics.py [--partial | --profile NAME] SNAPSHOT.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

from _common import report_problems  # noqa: E402
from repro.obs.schema import iter_errors  # noqa: E402


def main(argv: list[str]) -> int:
    partial = "--partial" in argv
    arguments = [arg for arg in argv if arg != "--partial"]
    profile = None
    if "--profile" in arguments:
        index = arguments.index("--profile")
        try:
            profile = arguments[index + 1]
        except IndexError:
            print("--profile requires a name", file=sys.stderr)
            return 2
        del arguments[index : index + 2]
    if len(arguments) != 1 or (partial and profile):
        print(
            "usage: python tools/check_metrics.py [--partial | --profile NAME] SNAPSHOT.json",
            file=sys.stderr,
        )
        return 2
    snapshot_path = Path(arguments[0])
    snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
    schema = json.loads(
        (REPO_ROOT / "docs" / "metrics_schema.json").read_text(encoding="utf-8")
    )
    if partial:
        schema["properties"]["families"].pop("required", None)
    elif profile is not None:
        profiles = schema.get("$profiles", {})
        if profile not in profiles:
            print(
                f"unknown profile {profile!r}; choose from {', '.join(sorted(profiles))}",
                file=sys.stderr,
            )
            return 2
        schema["properties"]["families"]["required"] = profiles[profile]
    errors = list(iter_errors(snapshot, schema))
    families = snapshot.get("families", {})
    series = sum(len(family.get("series", ())) for family in families.values())
    return report_problems(
        [f"{snapshot_path}: {message}" for message in errors],
        f"OK {snapshot_path}: {len(families)} families, {series} series",
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
