"""Journal-discipline pass: migration progress is always followed by persist.

The crash model of the journaled migrator (PR 6) is persist-then-kill: the
fault injector may only kill the coordinator *inside* ``_persist``, after
the record is durable, so a resume replays at most one idempotent batch.
That guarantee holds only if every function that advances migration state —
a journal state transition, or a batch of side-effecting copy/drop steps —
persists a record before returning on its progress paths.

Full path-sensitive post-dominance is overkill for the one module in
scope; what bit-rots in practice is a *new* transition arm or batch call
added without any persist at all.  The check here: in the configured
modules, any function that calls a progress-advancing method
(``_transition`` or the batch executor) must also call ``_persist``
at a source position after that call.  A function persisting conditionally
("only when progress was made") satisfies it; a function never persisting
after a transition is exactly the bug class this pass exists to catch.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, InvariantPass, ModuleSource, Project, iter_functions

#: modules implementing the journaled state machine.
DEFAULT_TARGETS = ("src/repro/online/migration.py",)
#: methods that advance journal state or execute side-effecting batches
#: (``_run_batch`` is the one executor of copies, drops and their undo).
DEFAULT_EFFECTS = frozenset({"_transition", "_run_batch"})
#: methods that write a journal record.
DEFAULT_PERSISTS = frozenset({"_persist"})


def _method_calls(function: ast.FunctionDef, names: frozenset[str]) -> list[ast.Call]:
    """Calls to ``self.<name>``-style methods named in ``names``."""
    return [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    ]


class JournalDisciplinePass(InvariantPass):
    """Migration side effects must be followed by a journal persist."""

    name = "journal-discipline"
    description = (
        "functions advancing the migration journal (state transitions, "
        "copy/drop batches) must persist a record afterwards — the "
        "persist-then-kill crash model"
    )

    def __init__(
        self,
        targets: tuple[str, ...] = DEFAULT_TARGETS,
        effects: frozenset[str] = DEFAULT_EFFECTS,
        persists: frozenset[str] = DEFAULT_PERSISTS,
    ) -> None:
        self.targets = targets
        self.effects = effects
        self.persists = persists

    def applies_to(self, module: ModuleSource) -> bool:
        return module.relpath in self.targets

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.modules():
            if not self.applies_to(module):
                continue
            for function in iter_functions(module.tree):
                if function.name in self.effects | self.persists:
                    continue  # the primitives themselves, not their users
                persist_positions = [
                    (call.lineno, call.col_offset)
                    for call in _method_calls(function, self.persists)
                ]
                for effect in _method_calls(function, self.effects):
                    position = (effect.lineno, effect.col_offset)
                    if not any(later > position for later in persist_positions):
                        findings.append(
                            self.finding(
                                module,
                                effect,
                                f"{effect.func.attr} advances migration state "
                                "but no _persist call follows in "
                                f"{function.name}; a crash here would lose "
                                "the progress record",
                            )
                        )
        return findings
