"""Bundled graph fixtures.

* ``k4``                  -- complete graph on 4 vertices (= folded 3-cube)
* ``c5``                  -- 5-cycle (has no disjoint automorphism pair)
* ``clebsch``             -- folded 5-cube on bit words, edge list generated
                             from :func:`qsym.folded_cube` (5)
* ``clebsch_pentagonal``  -- the same graph under the 1-based labeling of the
                             classic pentagonal drawing (outer pentagon 1..5
                             ring, middle and inner rings, center 15),
                             converted to 0-based vertices
"""

from importlib import resources

from ..graphs import Graph

__all__ = [
    "fixture_names",
    "load_graph",
    "fixture_path",
]

_NAMES = ("k4", "c5", "clebsch", "clebsch_pentagonal")


def fixture_names() -> tuple[str, ...]:
    return _NAMES


def fixture_path(name: str):
    """Filesystem path of a bundled fixture (for handing to the CLI)."""
    if name not in _NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(_NAMES)}")
    return resources.files(__package__).joinpath(f"{name}.json")


def load_graph(name: str) -> Graph:
    return Graph.load(fixture_path(name))
