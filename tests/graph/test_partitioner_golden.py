"""Golden digests of partitioner output.

``partition_graph`` is deterministic for a fixed seed, so its assignments can
be pinned byte for byte.  Each digest below covers one graph partitioned at
every k in :data:`PARTITION_COUNTS` under one options set.  k = 2 exercises
the root-level multilevel bisection, k > 2 the direct k-way path (coarsen
once, recursive-bisect the coarsest graph, k-way FM per level).  The same
digests must come out of both array backends.

A changed digest means the partitioner's algorithm changed, not noise.  Only
update these values in a change that means to alter partitions, and say so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figure5 import synthetic_access_graph
from repro.graph import backend
from repro.graph.partitioner import PartitionerOptions, partition_graph
from test_backend_parity import fixture_graphs

PARTITION_COUNTS = (2, 3, 5, 8)

OPTION_SETS = {
    "default": PartitionerOptions(),
    "figure5": PartitionerOptions(initial_trials=4, refine_passes=2),
}

GOLDEN = {
    ("default", "epinions"): "d598dab99474a9c4abc683b0e09c200b1e8764d8399a24f31b832aafa71e2a59",
    ("default", "synthetic"): "3e4a00f36fdb9b06f64a445ba5a9add84f2483c7bcdde965a270aedecfad6a09",
    ("default", "tpcc"): "3b5c32fc4130ca3aa7b61a1fc64268d7463e8c838bc832c106c4c19d58308a46",
    ("default", "tpce"): "43f24b3fa687d8ccdef6ab0da8227b9f5694ee34629d4070a534591b23e3e880",
    ("figure5", "epinions"): "d598dab99474a9c4abc683b0e09c200b1e8764d8399a24f31b832aafa71e2a59",
    ("figure5", "synthetic"): "d28e06e7ac0af53ef368a7acd012a6b2854a7264feff5abab8437a21b81adf49",
    ("figure5", "tpcc"): "f7372ad9a9417284aee89cb931721ae26b5f5f663caf161d282c6aae24dee9ec",
    ("figure5", "tpce"): "43f24b3fa687d8ccdef6ab0da8227b9f5694ee34629d4070a534591b23e3e880",
}

BACKENDS = [
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(backend.numpy is None, reason="numpy not installed"),
    ),
    "list",
]


@pytest.fixture(scope="module")
def graphs():
    built = fixture_graphs()
    built["synthetic"] = synthetic_access_graph(2500, 20000, seed=1)
    return built


def assignment_digest(graph, options: PartitionerOptions) -> str:
    """sha256 over the assignments of ``graph`` at every pinned k."""
    frozen = graph.freeze()
    digest = hashlib.sha256()
    for num_parts in PARTITION_COUNTS:
        assignment = partition_graph(frozen, num_parts, options)
        digest.update(f"k={num_parts}:".encode())
        digest.update(",".join(map(str, assignment)).encode())
        digest.update(b";")
    return digest.hexdigest()


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("options_name", sorted(OPTION_SETS))
def test_partitioner_output_is_pinned(graphs, backend_name, options_name):
    with backend.backend_context(backend_name):
        observed = {
            name: assignment_digest(graph, OPTION_SETS[options_name])
            for name, graph in sorted(graphs.items())
        }
    expected = {
        name: GOLDEN[(options_name, name)] for name in sorted(graphs)
    }
    assert observed == expected
