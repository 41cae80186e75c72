"""Built-in fixture graphs, in the repository JSON format.

These are the graphs every cross-check in the test suite and the CLI
selftest run against: the worked three-vertex four-point example (fig3),
the primitive four-point bubble (fig4), a host with exactly one
subdivergence (fig5), the one-loop two-leg planar-irregular ribbon graph
(fig6), the derived ribbon fixtures (tadpole, interleaved, bridge,
parallel), and the Hopf stress fixtures (twobubble, nestedchain,
ribbonhost) plus small classics (k3, selfloop).

`write_all` exports them as JSON files; the shipped fixtures/ directory is
generated this way and pinned by a test.
"""

from __future__ import annotations

import json
import os

from .graphs import Graph
from .ribbon import RibbonGraph, load_fixture

FIXTURES: dict[str, dict] = {
    # Three vertices, four internal edges, four legs; the worked U/V example.
    "fig3": {
        "type": "graph",
        "vertices": ["v1", "v2", "v3"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v2"},
            {"id": "e2", "tail": "v1", "head": "v3"},
            {"id": "e3", "tail": "v3", "head": "v2"},
            {"id": "e4", "tail": "v2", "head": "v3"},
        ],
        "external": [
            {"id": "f1", "vertex": "v1", "dir": "in"},
            {"id": "f2", "vertex": "v1", "dir": "in"},
            {"id": "f3", "vertex": "v3", "dir": "out"},
            {"id": "f4", "vertex": "v2", "dir": "out"},
        ],
    },
    # Two vertices joined by a double edge, four legs: the primitive bubble.
    "fig4": {
        "type": "graph",
        "vertices": ["v1", "v2"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v2"},
            {"id": "e2", "tail": "v1", "head": "v2"},
        ],
        "external": [
            {"id": "f1", "vertex": "v1", "dir": "in"},
            {"id": "f2", "vertex": "v1", "dir": "in"},
            {"id": "f3", "vertex": "v2", "dir": "out"},
            {"id": "f4", "vertex": "v2", "dir": "out"},
        ],
    },
    # Six internal edges; the double edge e1/e2 is the only divergent
    # subgraph (4 legs), so the forest list is exactly [empty, {e1,e2}].
    "fig5": {
        "type": "graph",
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v2"},
            {"id": "e2", "tail": "v1", "head": "v2"},
            {"id": "e3", "tail": "v1", "head": "v3"},
            {"id": "e4", "tail": "v2", "head": "v4"},
            {"id": "e5", "tail": "v3", "head": "v4"},
            {"id": "e6", "tail": "v1", "head": "v4"},
        ],
        "external": [
            {"id": "f1", "vertex": "v2", "dir": "in"},
            {"id": "f2", "vertex": "v3", "dir": "in"},
            {"id": "f3", "vertex": "v3", "dir": "out"},
        ],
    },
    # One vertex, one loop, two legs splitting the loop: planar irregular.
    "fig6": {
        "type": "ribbon",
        "vertices": ["v1"],
        "edges": [{"id": "e1", "tail": "v1", "head": "v1"}],
        "external": [
            {"id": "f1", "vertex": "v1", "dir": "in"},
            {"id": "f2", "vertex": "v1", "dir": "out"},
        ],
        "rotation": {"v1": ["e1.t", "f1", "e1.h", "f2"]},
    },
    # One planar self-loop, no legs.
    "tadpole": {
        "type": "ribbon",
        "vertices": ["v1"],
        "edges": [{"id": "e1", "tail": "v1", "head": "v1"}],
        "external": [],
        "rotation": {"v1": ["e1.t", "e1.h"]},
    },
    # Two interleaved self-loops on one vertex: genus one.
    "interleaved": {
        "type": "ribbon",
        "vertices": ["v1"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v1"},
            {"id": "e2", "tail": "v1", "head": "v1"},
        ],
        "external": [],
        "rotation": {"v1": ["e1.t", "e2.t", "e1.h", "e2.h"]},
    },
    # A single edge between two vertices.
    "bridge": {
        "type": "ribbon",
        "vertices": ["v1", "v2"],
        "edges": [{"id": "e1", "tail": "v1", "head": "v2"}],
        "external": [],
        "rotation": {"v1": ["e1.t"], "v2": ["e1.h"]},
    },
    # Two parallel edges between two vertices (planar).
    "parallel": {
        "type": "ribbon",
        "vertices": ["v1", "v2"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v2"},
            {"id": "e2", "tail": "v1", "head": "v2"},
        ],
        "external": [],
        "rotation": {"v1": ["e1.t", "e2.t"], "v2": ["e1.h", "e2.h"]},
    },
    # Necklace of two bubbles: the two divergent subgraphs are disjoint.
    "twobubble": {
        "type": "graph",
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v2"},
            {"id": "e2", "tail": "v1", "head": "v2"},
            {"id": "e3", "tail": "v2", "head": "v3"},
            {"id": "e4", "tail": "v3", "head": "v4"},
            {"id": "e5", "tail": "v3", "head": "v4"},
            {"id": "e6", "tail": "v4", "head": "v1"},
        ],
        "external": [
            {"id": "h1", "vertex": "v1", "dir": "in"},
            {"id": "h2", "vertex": "v2", "dir": "in"},
            {"id": "h3", "vertex": "v3", "dir": "out"},
            {"id": "h4", "vertex": "v4", "dir": "out"},
        ],
    },
    # A two-leg bubble nested inside a four-leg bubble inside the host.
    "nestedchain": {
        "type": "graph",
        "vertices": ["v1", "v2", "v3", "v4", "v5", "v6"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v5"},
            {"id": "e2", "tail": "v5", "head": "v6"},
            {"id": "e3", "tail": "v5", "head": "v6"},
            {"id": "e4", "tail": "v6", "head": "v2"},
            {"id": "e5", "tail": "v1", "head": "v2"},
            {"id": "e6", "tail": "v1", "head": "v3"},
            {"id": "e7", "tail": "v2", "head": "v4"},
            {"id": "e8", "tail": "v3", "head": "v4"},
            {"id": "e9", "tail": "v1", "head": "v4"},
        ],
        "external": [
            {"id": "f1", "vertex": "v2", "dir": "in"},
            {"id": "f2", "vertex": "v3", "dir": "in"},
            {"id": "f3", "vertex": "v3", "dir": "out"},
        ],
    },
    # Ribbon host: a planar-regular tadpole hanging on a double edge.  The
    # double edge itself is planar irregular, so only the tadpole diverges
    # under the gw model.
    "ribbonhost": {
        "type": "ribbon",
        "vertices": ["v1", "v2"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v1"},
            {"id": "e2", "tail": "v1", "head": "v2"},
            {"id": "e3", "tail": "v1", "head": "v2"},
        ],
        "external": [
            {"id": "f1", "vertex": "v2", "dir": "in"},
            {"id": "f2", "vertex": "v2", "dir": "out"},
        ],
        "rotation": {
            "v1": ["e1.t", "e1.h", "e2.t", "e3.t"],
            "v2": ["e2.h", "e3.h", "f1", "f2"],
        },
    },
    # Triangle.
    "k3": {
        "type": "graph",
        "vertices": ["v1", "v2", "v3"],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v2"},
            {"id": "e2", "tail": "v2", "head": "v3"},
            {"id": "e3", "tail": "v3", "head": "v1"},
        ],
        "external": [],
    },
    # One vertex with one self-loop.
    "selfloop": {
        "type": "graph",
        "vertices": ["v1"],
        "edges": [{"id": "e1", "tail": "v1", "head": "v1"}],
        "external": [],
    },
}

# Conserved rational momenta for the fig3 legs (in: f1+f2, out: f3+f4).
FIG3_MOMENTA: dict = {
    "f1": {"p": [1, 0, 0, 0], "dir": "in"},
    "f2": {"p": [0, 1, 0, 0], "dir": "in"},
    "f3": {"p": [0, 0, 1, 0], "dir": "out"},
    "f4": {"p": [1, 1, -1, 0], "dir": "out"},
}


def names() -> list[str]:
    return sorted(FIXTURES)


def build(name: str) -> Graph | RibbonGraph:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    return load_fixture(FIXTURES[name])


def ribbon_fixture_names() -> list[str]:
    return [n for n in names() if FIXTURES[n]["type"] == "ribbon"]


def write_all(directory: str) -> list[str]:
    """Write every fixture (and the fig3 momenta) as pretty JSON files."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name in names():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(FIXTURES[name], fh, indent=2)
            fh.write("\n")
        written.append(path)
    path = os.path.join(directory, "fig3_momenta.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(FIG3_MOMENTA, fh, indent=2)
        fh.write("\n")
    written.append(path)
    return written
