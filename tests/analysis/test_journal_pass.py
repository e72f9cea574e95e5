"""Journal-discipline pass: progress calls must be followed by a persist."""

from __future__ import annotations

import textwrap

from repro.analysis.core import Project, run_passes
from repro.analysis.journal import JournalDisciplinePass


def _findings(tmp_path, source: str):
    path = tmp_path / "pkg" / "mig.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    project = Project(tmp_path, relative_roots=("pkg",))
    active, _ = run_passes(
        project, [JournalDisciplinePass(targets=("pkg/mig.py",))]
    )
    return active


def test_transition_without_persist_is_flagged(tmp_path):
    active = _findings(
        tmp_path,
        """
        def tick(self):
            self._transition("copying")
        """,
    )
    assert len(active) == 1
    assert active[0].rule == "journal-discipline"
    assert "_transition" in active[0].message
    assert "no _persist call follows" in active[0].message


def test_transition_followed_by_persist_is_clean(tmp_path):
    active = _findings(
        tmp_path,
        """
        def tick(self):
            self._transition("copying")
            self._persist()
        """,
    )
    assert active == []


def test_conditional_persist_after_batch_satisfies_the_check(tmp_path):
    active = _findings(
        tmp_path,
        """
        def tick(self):
            progressed = self._run_batch()
            if progressed:
                self._persist()
        """,
    )
    assert active == []


def test_persist_before_but_not_after_is_flagged(tmp_path):
    # Persisting only *before* the effect leaves the progress record stale.
    active = _findings(
        tmp_path,
        """
        def tick(self):
            self._persist()
            self._run_batch()
        """,
    )
    assert len(active) == 1
    assert "_run_batch" in active[0].message


def test_each_effect_kind_is_audited(tmp_path):
    active = _findings(
        tmp_path,
        """
        def restore(self):
            self._run_batch(self.plan.drops, "rollback_restored", 3, 8, undo=True)

        def flip(self):
            self._transition("flipped")
        """,
    )
    assert len(active) == 2
    assert {finding.message.split()[0] for finding in active} == {
        "_run_batch",
        "_transition",
    }


def test_the_primitives_themselves_are_exempt(tmp_path):
    # _persist/_transition implementations may call each other freely.
    active = _findings(
        tmp_path,
        """
        def _transition(self, state):
            self.state = state

        def _persist(self):
            self._transition("persisted-marker")
        """,
    )
    assert active == []
