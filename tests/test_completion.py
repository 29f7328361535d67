"""Dedekind-MacNeille completion: enumeration, lattice ops, involution."""

from itertools import permutations

import pytest

from posetkit import corpus
from posetkit.build import generate_small
from posetkit.completion import (
    DEFAULT_MAX_CLOSED_SETS,
    check_join_meet_density,
    complete,
)
from posetkit.errors import PosetError, SizeLimitExceeded
from posetkit.poset import FinitePoset, build_poset, is_antitone_involution
from posetkit.residuation import _lattice_tables

SMALL_MEMBERS = ("chain2", "chain3", "ba4", "mo2", "benzene", "diamond")
WITH_INVOLUTION = tuple(name for name in corpus.member_names()
                        if name != "diamond")


def brute_force_closed_sets(poset):
    return {poset.closure(subset) for subset in range(poset.full + 1)}


def next_closure(poset, max_closed_sets=DEFAULT_MAX_CLOSED_SETS):
    """Ganter's NextClosure ("Two basic algorithms in concept analysis",
    1984), the enumeration complete() used before intersection closure.

    The lectic successor of A is closure((A & low_i) | {i}) for the
    largest i not in A whose closure adds nothing below i.
    """
    current = poset.closure(0)
    out = [current]
    while current != poset.full:
        if len(out) >= max_closed_sets:
            raise SizeLimitExceeded(
                f"more than {max_closed_sets} closed sets; raise max_closed_sets")
        for i in reversed(range(poset.n)):
            bit = 1 << i
            if current & bit:
                continue
            low = bit - 1
            candidate = poset.closure((current & low) | bit)
            if candidate & low == current & low:
                break
        else:
            raise AssertionError("lectic successor must exist below the full set")
        current = candidate
        out.append(current)
    return out


def crown(k):
    """S_k: 0 < a_i < b_j < 1 for i != j, with a_i' = b_i; its completion
    is the Boolean algebra on k atoms."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    covers = ([("0", x) for x in a] + [(y, "1") for y in b]
              + [(a[i], b[j]) for i in range(k) for j in range(k) if i != j])
    involution = [("0", "1")] + list(zip(a, b))
    return build_poset(["0"] + a + b + ["1"], covers, involution=involution)


def validated(dm):
    """The completion's rows, names and involution put through the full
    validation of ``FinitePoset``: a plain poset independent of it."""
    return FinitePoset(dm.names, dm.up, dm.inv)


FAMILIES = {
    **{f"chain{k}": corpus.chain(k) for k in (2, 3, 5, 9, 17)},
    **{f"ba{1 << k}": corpus.boolean_algebra(k) for k in range(6)},
    **{f"crown{k}": crown(k) for k in range(3, 7)},
    **{f"mo{n}": corpus.mo(n) for n in (1, 2, 5, 8, 9)},
}


@pytest.mark.parametrize("name", SMALL_MEMBERS)
def test_lectic_enumeration_matches_brute_force(name):
    poset = corpus.load(name)
    lattice = complete(poset)
    assert set(lattice.closed) == brute_force_closed_sets(poset)
    assert len(set(lattice.closed)) == len(lattice.closed)


def test_lectic_enumeration_on_generated_posets():
    for poset in generate_small(5, "any", exhaustive=True):
        assert set(complete(poset).closed) == brute_force_closed_sets(poset)


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


def assert_meet_sets_agree_with_the_down_rows(lattice):
    """The meet table a completion reads through its ``(closed, index)``
    is the one its validated copy reads through ``(down, by_down)``, and
    its join table is the De Morgan dual of that meet table through the
    induced involution, where there is one."""
    assert lattice.meet_sets == (lattice.closed, lattice.index)
    flat = validated(lattice)
    join, meet = _lattice_tables(lattice)
    assert meet == [[flat.by_down[a & b] for b in flat.down] for a in flat.down]
    inv = lattice.inv
    if inv is not None:
        assert join == [[inv[meet[inv[i]][inv[j]]] for j in range(lattice.n)]
                        for i in range(lattice.n)]


def test_completion_meet_sets_agree_with_the_down_rows(population):
    for name in corpus.member_names():
        assert_meet_sets_agree_with_the_down_rows(complete(corpus.load(name)))
    for row in population:
        assert_meet_sets_agree_with_the_down_rows(row["ctx"].dm)


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
    poset = corpus.load(name)
    assert list(complete(poset).closed) == next_closure(poset)


@pytest.mark.parametrize("label", FAMILIES)
def test_lectic_order_matches_next_closure_on_families(label):
    poset = FAMILIES[label]
    assert list(complete(poset).closed) == next_closure(poset)


def test_lectic_order_matches_next_closure_on_generated_posets():
    generated = (list(generate_small(5, "any", exhaustive=True))
                 + list(generate_small(7, "complemented", exhaustive=True)))
    for poset in generated:
        assert list(complete(poset).closed) == next_closure(poset)


def closed_sets_or_cap(enumerate_closed, poset, cap):
    try:
        return list(enumerate_closed(poset, cap))
    except SizeLimitExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("label", ["fig3", "diamond", "ba1", "ba16", "chain2", "crown4",
                                   "crown6", "mo8"])
def test_cap_matches_next_closure(label):
    poset = FAMILIES[label] if label in FAMILIES else corpus.load(label)
    count = len(next_closure(poset))
    assert len(complete(poset, max_closed_sets=count)) == count
    if count > 1:
        with pytest.raises(SizeLimitExceeded):
            complete(poset, max_closed_sets=count - 1)
    for cap in range(-1, count + 2):
        assert (closed_sets_or_cap(lambda p, c: complete(p, c).closed, poset, cap)
                == closed_sets_or_cap(next_closure, poset, cap))
