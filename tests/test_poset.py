"""Core poset construction, cones, and shape predicates."""

import pytest
from families import FAMILIES, family
from oracles import completion_or_none, maximal_orthogonal_subsets, validated

from posetkit import corpus
from posetkit.completion import complete
from posetkit.errors import (
    CycleError,
    MissingBounds,
    MissingInvolution,
    NotAFunction,
    PosetError,
)
from posetkit.poset import (
    _join_irreducibles,
    build_poset,
    is_antitone_involution,
    is_complementation,
    is_lattice,
    labeled_equal,
    lattice_violation,
    orthogonal_subsets,
)

# the families, built once a session in the setup of the first test that reads them
pytestmark = pytest.mark.usefixtures("built_families")


def two_chain():
    return build_poset(["0", "1"], [("0", "1")], involution=[("0", "1")])


def test_covers_mode_takes_transitive_closure():
    p = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")])
    assert p.leq("0", "1")
    assert p.bottom == p.id_of("0") and p.top == p.id_of("1")


def test_duplicate_names_rejected():
    with pytest.raises(PosetError):
        build_poset(["a", "a"], [])


def test_unknown_element_in_relation():
    with pytest.raises(PosetError):
        build_poset(["a", "b"], [("a", "z")])


def test_cycle_detected():
    with pytest.raises(CycleError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_full_mode_requires_transitivity():
    pairs = [("0", "0"), ("m", "m"), ("1", "1"), ("0", "m"), ("m", "1")]
    with pytest.raises(PosetError):
        build_poset(["0", "m", "1"], pairs, mode="full")
    pairs.append(("0", "1"))
    p = build_poset(["0", "m", "1"], pairs, mode="full")
    assert p.leq("0", "1")


def test_missing_bounds():
    p = build_poset(["a", "b"], [])
    with pytest.raises(MissingBounds):
        p.require_bounds()
    with pytest.raises(MissingInvolution):
        p.require_involution()


def test_empty_set_cones_are_the_carrier():
    p = corpus.load("benzene")
    assert p.lower_cone(0) == p.full
    assert p.upper_cone(0) == p.full
    assert p.closure(0) == p.mask("0")


def test_cones_on_benzene():
    p = corpus.load("benzene")
    assert p.names_of(p.upper_cone(p.mask("a"))) == ("a", "b", "1")
    assert p.names_of(p.lower_cone(p.mask(["b", "d"]))) == ("0",)
    assert p.closure(p.mask(["0", "a"])) == p.mask(["0", "a"])


def test_closure_of_an_atom_pair_need_not_be_principal():
    p = corpus.load("fig1b")
    assert p.names_of(p.closure(p.mask(["a", "c"]))) == ("0", "a", "c")


def test_closure_laws():
    p = corpus.load("fig1b")
    subsets = [p.mask(x) for x in ("a", "e", "c'")] + [
        p.mask(["a", "c"]), p.mask(["b", "d"]), p.mask(["a", "b", "c", "d"])]
    for s in subsets:
        c = p.closure(s)
        assert s & ~c == 0
        assert p.closure(c) == c
        for t in subsets:
            if s & ~t == 0:
                assert c & ~p.closure(t) == 0


def test_involution_pairs_are_symmetrized():
    p = two_chain()
    assert p.inv == (1, 0)
    q = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")],
                    involution=[("0", "1"), ("m", "m")])
    assert q.inv[q.id_of("m")] == q.id_of("m")


def test_involution_must_be_total_bijection():
    with pytest.raises(NotAFunction):
        build_poset(["0", "1"], [("0", "1")], involution=[("0", "0")])
    with pytest.raises(NotAFunction):
        build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")],
                    involution=[("0", "1")])
    with pytest.raises(NotAFunction):
        build_poset(["0", "1"], [("0", "1")],
                    involution=[("0", "1"), ("0", "0")])


def test_antitone_check_rejects_identity_on_a_chain():
    p = build_poset(["0", "m", "1"], [("0", "m"), ("m", "1")],
                    involution=[("0", "0"), ("m", "m"), ("1", "1")])
    report = is_antitone_involution(p)
    assert not report.holds and report.witness is not None


def test_complementation_verdicts():
    assert is_complementation(corpus.load("benzene")).holds
    assert is_complementation(corpus.load("fig3")).holds
    chain3 = corpus.load("chain3")
    report = is_complementation(chain3)
    assert not report.holds
    assert report.witness == {"x": "c1"}


def test_lattice_violation_names_the_first_pair():
    fig1b = corpus.load("fig1b")
    bad = lattice_violation(fig1b)
    assert bad == {"x": "a", "y": "c", "missing": "join"}
    assert not is_lattice(fig1b)
    assert is_lattice(corpus.load("diamond"))
    assert lattice_violation(corpus.load("twoblocks")) is None


def test_join_meet_of_masks():
    ba8 = corpus.load("ba8")
    assert ba8.names[ba8.join_of(ba8.mask(["a", "b"]))] == "c'"
    assert ba8.names[ba8.meet_of(ba8.mask(["c'", "b'"]))] == "a"
    fig1b = corpus.load("fig1b")
    assert fig1b.join_of(fig1b.mask(["a", "c"])) is None
    assert fig1b.join_of(fig1b.mask([])) == fig1b.bottom
    assert fig1b.meet_of(fig1b.mask([])) == fig1b.top


def _largest_orthogonal_size(poset):
    """Over P minus {0}: the bottom is orthogonal to everything."""
    nonzero = poset.full & ~(1 << poset.bottom)
    return max(subset.bit_count() for subset in orthogonal_subsets(poset, nonzero))


def test_orthogonal_subsets_of_mo2():
    mo2 = corpus.load("mo2")
    nonzero = mo2.full & ~mo2.mask("0")
    found = sorted(orthogonal_subsets(mo2, nonzero))
    assert len(found) == 8  # empty, five singletons, two complement pairs
    assert _largest_orthogonal_size(mo2) == 2
    assert _largest_orthogonal_size(corpus.load("ba8")) == 3
    # all four atoms of fig1a are pairwise orthogonal: every coatom x'
    # lies above the three atoms other than x
    assert _largest_orthogonal_size(corpus.load("fig1a")) == 4


def test_maximal_orthogonal_subsets_match_filtered_enumeration():
    """The maximal-set search against the subset-maximal members of the
    full enumeration, on every member with an involution and on each
    closed set of its completion."""
    for name in corpus.member_names():
        poset = corpus.load(name)
        if poset.inv is None:
            continue
        for universe in complete(poset).closed:
            every = set(orthogonal_subsets(poset, universe))
            maximal = sorted(s for s in every
                             if not any(s != t and s & ~t == 0 for t in every))
            found = list(maximal_orthogonal_subsets(poset, universe))
            assert sorted(found) == maximal, (name, poset.names_of(universe))


def test_labeled_equal_detects_renames():
    assert labeled_equal(two_chain(), two_chain())
    assert not labeled_equal(two_chain(), corpus.load("chain3"))
    flipped = build_poset(["1", "0"], [("1", "0")], involution=[("0", "1")])
    assert not labeled_equal(two_chain(), flipped)


@pytest.mark.parametrize("family_name", FAMILIES)
def test_dual_is_the_reversed_order(family_name):
    """On every member, and on its completion up to 64 closed sets: the
    dual validates as the order with the rows swapped, is kept, and has
    the meet-irreducibles as its join-irreducibles."""
    for poset in family(family_name).values():
        lattice = completion_or_none(poset)
        small = lattice is not None and len(lattice) <= 64
        for target in (poset, lattice) if small else (poset,):
            dual = target.dual
            flat = validated(dual)
            assert (flat.names, flat.up, flat.down, flat.inv) == (
                target.names, target.down, target.up, target.inv)
            assert (flat.bottom, flat.top) == (dual.bottom, dual.top) == (target.top,
                                                                          target.bottom)
            assert dual is target.dual
            assert (dual.dual.up, dual.dual.down) == (target.up, target.down)
            meet_irreducible = sum(
                1 << x for x, row in enumerate(target.up)
                if target.upper_cone(target.lower_cone(row ^ (1 << x))) != row)
            assert _join_irreducibles(dual) == meet_irreducible
        assert poset.dual.meet_sets == poset.join_sets


def test_dual_shares_the_built_lookups():
    poset = corpus.load("mo2")
    by_up, by_down = poset.by_up, poset.by_down
    assert (poset.dual.by_up, poset.dual.by_down) == (by_down, by_up)
    assert poset.dual.by_up is by_down and poset.dual.by_down is by_up
    fresh = corpus.load("mo2").dual
    assert fresh.by_up == {row: k for k, row in enumerate(fresh.up)}
