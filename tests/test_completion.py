"""Dedekind-MacNeille completion: enumeration, lattice ops, involution."""

from itertools import permutations

import pytest
from families import family, member
from oracles import assert_compared_in_tier_1, next_closure

from posetkit import corpus
from posetkit.build import generate_small
from posetkit.completion import check_join_meet_density, complete
from posetkit.errors import PosetError, SizeLimitExceeded
from posetkit.poset import FinitePoset, build_poset, is_antitone_involution

# the families, built once a session in the setup of the first test that reads them
pytestmark = pytest.mark.usefixtures("built_families")

WITH_INVOLUTION = tuple(name for name in corpus.member_names()
                        if name != "diamond")


# the tests that name an oracle's posets pin that the registry compares them
@pytest.mark.parametrize("name", ("chain2", "chain3", "ba4", "mo2", "benzene", "diamond"))
def test_lectic_enumeration_matches_brute_force(name):
    assert_compared_in_tier_1("brute-force", [member(name)])


def test_lectic_enumeration_on_generated_posets():
    assert_compared_in_tier_1("brute-force", family("small").values())


def test_completion_sizes_of_the_figures():
    assert len(complete(corpus.load("fig1a"))) == 16
    assert len(complete(corpus.load("fig1b"))) == 16
    assert len(complete(corpus.load("fig2"))) == 18
    assert len(complete(corpus.load("fig3"))) == 20


def test_completion_of_a_lattice_adds_nothing():
    for name in ("ba8", "mo3", "benzene", "twoblocks", "diamond"):
        poset = corpus.load(name)
        assert len(complete(poset)) == poset.n


@pytest.mark.parametrize("name", corpus.member_names())
def test_join_meet_density(name):
    poset = corpus.load(name)
    assert check_join_meet_density(poset, complete(poset)).holds


@pytest.mark.parametrize("name", corpus.member_names())
def test_embedding_preserves_and_reflects_order(name):
    poset = corpus.load(name)
    lattice = complete(poset)
    completed = lattice.as_poset()
    embed = lattice.embed
    for x in range(poset.n):
        assert lattice.closed[embed[x]] == poset.down[x]
        for y in range(poset.n):
            assert poset.leq(x, y) == completed.leq(embed[x], embed[y])


@pytest.mark.parametrize("name", WITH_INVOLUTION)
def test_induced_involution_properties(name):
    poset = corpus.load(name)
    lattice = complete(poset)
    completed = lattice.as_poset()
    inv = lattice.inv
    size = len(lattice)
    for k in range(size):
        assert inv[inv[k]] == k
        for m in range(size):
            if completed.leq(k, m):
                assert completed.leq(inv[m], inv[k])
    base_inv = poset.require_involution()
    for x in range(poset.n):
        assert inv[lattice.embed[x]] == lattice.embed[base_inv[x]]


def test_no_involution_to_induce():
    lattice = complete(corpus.load("diamond"))
    assert lattice.inv is None


def test_no_involution_is_lifted_from_a_non_antitone_one():
    """The lift is antitone because the base involution is, so a base
    involution that is not antitone is not lifted.  Lifted anyway, some
    would pass every other check: the identity on a chain, for one."""
    count = 0
    for poset in generate_small(5, "any", exhaustive=True):
        for perm in permutations(range(poset.n)):
            if any(perm[perm[i]] != i for i in range(poset.n)):
                continue
            flipped = FinitePoset(poset.names, poset.up, perm)
            if not is_antitone_involution(flipped).holds:
                assert complete(flipped).inv is None, (poset.names, perm)
                count += 1
    assert count > 100


def test_completion_meet_sets_agree_with_the_down_rows(population):
    assert_compared_in_tier_1("lattice-tables", [*family("corpus").values(),
                                                 *(row["poset"] for row in population)])


def test_new_elements_are_named_by_their_maximal_members():
    lattice = complete(corpus.load("fig1b"))
    names = set(lattice.names)
    assert {"a∨c", "a∨d", "b∨c", "b∨d"} <= names


def test_clashing_names_are_refused():
    # a and b have no join, so their closed set would be named a∨b too
    poset = build_poset(["0", "a", "b", "c", "a∨b", "1"],
                        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
                         ("a", "a∨b"), ("b", "a∨b"), ("c", "1"), ("a∨b", "1")])
    with pytest.raises(PosetError, match="^duplicate element names$"):
        complete(poset)


def test_size_cap():
    with pytest.raises(SizeLimitExceeded):
        complete(corpus.load("ba16"), max_closed_sets=10)


@pytest.mark.parametrize("name", corpus.member_names())
def test_lectic_order_matches_next_closure_on_the_corpus(name):
    assert_compared_in_tier_1("next-closure", [member(name)])


@pytest.mark.parametrize("label", ("chain2 chain3 chain5 chain9 chain17 ba1 ba2 ba4 ba8 ba16 ba32 "
                                   "crown3 crown4 crown5 crown6 mo1 mo2 mo5 mo8 mo9").split())
def test_lectic_order_matches_next_closure_on_families(label):
    assert_compared_in_tier_1("next-closure", [member(label)])


def test_lectic_order_matches_next_closure_on_generated_posets():
    assert_compared_in_tier_1("next-closure", [*family("small").values(),
                                               *family("complemented").values()])


def closed_sets_or_cap(enumerate_closed, poset, cap):
    try:
        return list(enumerate_closed(poset, cap))
    except SizeLimitExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("label", ["fig3", "diamond", "ba1", "ba16", "chain2", "crown4",
                                   "crown6", "mo8"])
def test_cap_matches_next_closure(label):
    poset = member(label)
    count = len(next_closure(poset))
    assert len(complete(poset, max_closed_sets=count)) == count
    if count > 1:
        with pytest.raises(SizeLimitExceeded):
            complete(poset, max_closed_sets=count - 1)
    for cap in range(-1, count + 2):
        assert (closed_sets_or_cap(lambda p, c: complete(p, c).closed, poset, cap)
                == closed_sets_or_cap(next_closure, poset, cap))
