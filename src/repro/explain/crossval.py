"""K-fold cross-validation for the explanation classifier.

Used as an over-fitting gauge (Section 4.3): the held-out accuracy is
reported with each table's explanation.  No accuracy threshold discards an
explanation here; a poor one loses to the fine-grained lookup table or the
simpler baseline strategies in the final validation phase, which compares
the strategies' distributed-transaction cost.
"""

from __future__ import annotations

from typing import Sequence

from repro.explain.dataset import LabeledSample
from repro.explain.decision_tree import DecisionTree
from repro.utils.rng import SeededRng


def cross_validate(
    samples: Sequence[LabeledSample],
    attribute_names: Sequence[str],
    folds: int = 5,
    rng: SeededRng | None = None,
) -> float:
    """Return the mean held-out accuracy over ``folds`` folds.

    Falls back to fitting on everything (accuracy on the training set) when
    there are too few samples to make folding meaningful.
    """
    samples = list(samples)
    if len(samples) < folds * 2:
        tree = DecisionTree().fit(samples, attribute_names)
        return tree.accuracy(samples)
    rng = rng or SeededRng(0)
    shuffled = list(samples)
    rng.shuffle(shuffled)
    fold_size = len(shuffled) // folds
    accuracies: list[float] = []
    for fold in range(folds):
        start = fold * fold_size
        end = start + fold_size if fold < folds - 1 else len(shuffled)
        held_out = shuffled[start:end]
        training = shuffled[:start] + shuffled[end:]
        if not training or not held_out:
            continue
        tree = DecisionTree().fit(training, attribute_names)
        accuracies.append(tree.accuracy(held_out))
    if not accuracies:
        return 0.0
    return sum(accuracies) / len(accuracies)
