import numpy as np
import pytest

from qsym import folded_cube
from qsym.fixtures import fixture_names, fixture_path, load_graph


def test_fixture_names():
    assert set(fixture_names()) == {"k4", "c5", "clebsch", "clebsch_pentagonal"}
    with pytest.raises(KeyError):
        fixture_path("petersen")


def test_clebsch_fixture_regenerates_from_folded_cube():
    assert load_graph("clebsch") == folded_cube(5)


def test_k4_fixture_is_folded_3_cube():
    assert load_graph("k4") == folded_cube(3)


def test_c5_fixture():
    g = load_graph("c5")
    assert g.n_vertices == 5
    assert set(g.adjacency.sum(axis=1).tolist()) == {2}


def _common_neighbor_profile(g):
    a = g.adjacency.astype(int)
    common = a @ a
    adjacent, non_adjacent = set(), set()
    for i in range(g.n_vertices):
        for j in range(i + 1, g.n_vertices):
            (adjacent if a[i, j] else non_adjacent).add(int(common[i, j]))
    return adjacent, non_adjacent


@pytest.mark.parametrize("name", ["clebsch", "clebsch_pentagonal"])
def test_both_clebsch_labelings_are_srg_16_5_0_2(name):
    # strongly regular (16, 5, 0, 2) pins the graph: triangle-free and
    # every non-adjacent pair has exactly two common neighbors
    g = load_graph(name)
    assert g.n_vertices == 16
    assert set(g.adjacency.sum(axis=1).tolist()) == {5}
    adjacent, non_adjacent = _common_neighbor_profile(g)
    assert adjacent == {0}
    assert non_adjacent == {2}


def test_pentagonal_labeling_has_the_folded_cube_spectrum():
    g = load_graph("clebsch_pentagonal")
    spec = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
    reference = np.sort(np.linalg.eigvalsh(folded_cube(5).adjacency.astype(float)))
    assert np.max(np.abs(spec - reference)) <= 1e-9
