import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from unikirch.enumeration import enumerate_with_codes

settings.register_profile("suite", max_examples=50, derandomize=True, deadline=None)
# the extended CI step runs the property tests it selects with a larger budget
settings.register_profile("extended", max_examples=1000, derandomize=True, deadline=None)
settings.load_profile("extended" if os.environ.get("UNIKIRCH_EXTENDED") else "suite")


@pytest.fixture(scope="session")
def unicyclic_corpus():
    """All unicyclic isomorphism classes with 3..7 vertices, with codes."""
    return {n: list(enumerate_with_codes(n)) for n in range(3, 8)}


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    from oracles import prufer_decode

    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return prufer_decode(seq)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int):
    """A random connected graph: a random spanning tree plus extras."""
    from unikirch.graph import Graph

    edges = set(random_tree_edges(rng, n))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph(n, frozenset(edges))


def relabelled(rng: random.Random, g):
    """g with its vertices renamed by a random permutation."""
    from unikirch.graph import Graph

    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


def matrix_text(mat) -> str:
    """The text that ``resistance.format_resistance_matrix`` writes for mat."""
    from unikirch.resistance import format_resistance_matrix

    parts = []
    format_resistance_matrix(mat, parts.append)
    return "".join(parts)
