from itertools import product

import pytest

from helpers import ElementList, brute_is_distinguishing
from symbreak import checks
from symbreak.checks import check_restriction
from symbreak.graphs import FamilySpec, Graph, generate_family, induced_subgraph

STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
CLIQUE_WITH_PENDANT = Graph.from_edges(
    5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
)


def test_restriction_samples_colorings_from_eleven_vertices():
    # the inclusion covers every coloring, so no size needs a sample
    assert check_restriction(generate_family(FamilySpec("path", 11)), {5}) is True


def test_restriction_fails_when_an_extension_is_missing(monkeypatch):
    """A group of the 4-star without the swap of leaves 1 and 2: the identity
    extension of that swap of g[{1, 2, 3}] is not found in it."""
    swap = (0, 2, 1, 3)
    real = checks.automorphism_group

    def faulty(g):
        aut = real(g)
        if g != STAR:
            return aut
        assert swap in aut.image_set
        return ElementList(aut.degree, (t for t in aut.images if t != swap))

    monkeypatch.setattr(checks, "automorphism_group", faulty)
    assert check_restriction(STAR, {1, 2, 3}) is False


@pytest.mark.parametrize("g", [STAR, CLIQUE_WITH_PENDANT], ids=["star", "clique_with_pendant"])
def test_restriction_holds_on_every_small_coloring_by_brute_force(g):
    """The lemma as stated on colorings, decided by the brute-force oracle:
    every distinguishing 2- or 3-coloring of g restricts to a distinguishing
    coloring of g[h]."""
    h = (1, 2, 3)
    sub, _ = induced_subgraph(g, h)
    distinguishing = 0
    for k in (2, 3):
        for colors in product(range(k), repeat=g.n):
            if brute_is_distinguishing(g, colors):
                distinguishing += 1
                assert brute_is_distinguishing(sub, tuple(colors[v] for v in h)), colors
    assert distinguishing > 0
