"""Routes of every topology shape the repository builds, pinned.

``tests/expected/routes.json`` holds, per shape, the number of ordered
node pairs routed, a sha256 over ``Router.node_path`` of each pair and
another over ``EcmpRouter.equal_cost_paths`` of each pair. The shapes
are the ones an artifact, example, test fixture or benchmark workload
builds. In ``fat_tree(4)`` and the 2-spine leaf-spines several shortest
paths tie, so these digests pin which of them the router picks;
single-spine shapes and dumbbells have one path per pair.

Shapes under 50 nodes route every ordered node pair, a node to itself
included. The 256-host ``leaf_spine(64, 4)`` of the online benchmark
routes a seeded sample of host pairs.

The file was recorded from the code as it stood when the pin was
written. Re-record it, with ``python tests/test_route_pins.py``, only
for a deliberate change of route.
"""

import hashlib
import json
import random
from itertools import permutations, product
from pathlib import Path

import pytest

from repro.net.routing import EcmpRouter, Router
from repro.net.topology import Topology

EXPECTED = Path(__file__).parent / "expected" / "routes.json"

#: Shapes with fewer nodes route every ordered node pair.
ALL_PAIRS_BELOW = 50
#: Host pairs routed in a larger shape, drawn with :data:`SAMPLE_SEED`.
SAMPLE_PAIRS = 5_000
SAMPLE_SEED = 28

SHAPES = {
    "dumbbell(1)": lambda: Topology.dumbbell(1),
    "dumbbell(2)": lambda: Topology.dumbbell(2),
    "dumbbell(3)": lambda: Topology.dumbbell(3),
    "dumbbell(4)": lambda: Topology.dumbbell(4),
    "dumbbell(8)": lambda: Topology.dumbbell(8),
    "single_switch(4)": lambda: Topology.single_switch(4),
    "leaf_spine(2, 1, 1)": lambda: Topology.leaf_spine(2, 1, 1),
    "leaf_spine(2, 2, 1)": lambda: Topology.leaf_spine(2, 2, 1),
    "leaf_spine(4, 2, 1)": lambda: Topology.leaf_spine(4, 2, 1),
    "leaf_spine(10, 2, 1)": lambda: Topology.leaf_spine(10, 2, 1),
    "leaf_spine(2, 2, 2)": lambda: Topology.leaf_spine(2, 2, 2),
    "leaf_spine(3, 2, 2)": lambda: Topology.leaf_spine(3, 2, 2),
    "leaf_spine(4, 1, 2)": lambda: Topology.leaf_spine(4, 1, 2),
    "leaf_spine(8, 2)": lambda: Topology.leaf_spine(8, 2),
    "leaf_spine(8, 4, 2)": lambda: Topology.leaf_spine(8, 4, 2),
    "leaf_spine(64, 4)": lambda: Topology.leaf_spine(64, 4),
    "fat_tree(2)": lambda: Topology.fat_tree(2),
    "fat_tree(4)": lambda: Topology.fat_tree(4),
}


def routed_pairs(topology):
    """The ordered pairs a shape's pin routes (see the module doc)."""
    nodes = [node.name for node in topology.nodes]
    if len(nodes) < ALL_PAIRS_BELOW:
        return list(product(nodes, repeat=2))
    hosts = [node.name for node in topology.hosts()]
    pairs = list(permutations(hosts, 2))
    return random.Random(SAMPLE_SEED).sample(pairs, SAMPLE_PAIRS)


def route_digests(topology):
    """``{pairs, node_path, equal_cost_paths}`` for one shape."""
    router, ecmp = Router(topology), EcmpRouter(topology)
    paths, equal = hashlib.sha256(), hashlib.sha256()
    pairs = routed_pairs(topology)
    for src, dst in pairs:
        paths.update(json.dumps([src, dst, router.node_path(src, dst)])
                     .encode("utf-8") + b"\n")
        equal.update(json.dumps([src, dst, ecmp.equal_cost_paths(src, dst)])
                     .encode("utf-8") + b"\n")
    return {
        "pairs": len(pairs),
        "node_path": paths.hexdigest(),
        "equal_cost_paths": equal.hexdigest(),
    }


def test_every_shape_is_pinned():
    assert sorted(json.loads(EXPECTED.read_text())) == sorted(SHAPES)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_routes_match_the_pin(shape):
    expected = json.loads(EXPECTED.read_text())[shape]
    assert route_digests(SHAPES[shape]()) == expected


if __name__ == "__main__":
    EXPECTED.write_text(
        json.dumps(
            {name: route_digests(build()) for name, build in SHAPES.items()},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {EXPECTED}")
