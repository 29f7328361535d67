"""Residuation on the completion: the corpus, the named families and the
population stay compared by the registry's residuation-walks entry
(``oracles``), and the law-route and commutative-flag entries see both
verdicts often; the column criterion, the flags and the route taken
against the walks on drawn and flipped tables.
"""

from dataclasses import astuple, replace

import pytest
from families import crown, member
from hypothesis import given, settings, strategies as st
from oracles import (
    assert_compared_in_tier_1,
    members,
    pair_set_first_column,
    validated,
    walk_verify,
)

from posetkit import corpus, residuation
from posetkit.checks import PROPERTIES
from posetkit.completion import complete
from posetkit.residuation import (
    ResiduatedOps,
    bdm_transform,
    verify_left_residuated_lattice,
)

# the families, built once a session in the setup of the first test that reads them
pytestmark = pytest.mark.usefixtures("built_families")


def first_failing_column(lattice, odot, arrow):
    """The first y at which some x.y <= z and x <= y->z disagree."""
    for y in range(lattice.n):
        for x in range(lattice.n):
            for z in range(lattice.n):
                if lattice.leq(odot[x][y], z) != lattice.leq(x, arrow[y][z]):
                    return y
    return None


@pytest.mark.parametrize("name", corpus.member_names())
def test_corpus_completions_match_the_walks(name):
    assert_compared_in_tier_1("residuation-walks", [member(name)])


@pytest.mark.parametrize("name", ("ba2 ba4 ba8 ba16 ba32 ba64 crown3 crown4 crown5 crown6 "
                                  "mo1 mo2 mo3 mo5 chain2 chain3 chain5 chain9").split())
def test_families_match_the_walks(name):
    assert_compared_in_tier_1("residuation-walks", [member(name)])


def test_population_matches_the_walks(population):
    assert_compared_in_tier_1("residuation-walks", [row["poset"] for row in population])


def test_associativity_flag_is_unchanged():
    completed = complete(corpus.load("fig2")).as_poset()
    for kind in ("boolean", "pseudo_om"):
        ops = bdm_transform(completed, kind)
        assert (verify_left_residuated_lattice(completed, ops, check_associativity=True)
                == walk_verify(completed, ops, check_associativity=True))


def test_commutative_flag_follows_distributivity(population, comparisons):
    """Over the lattices of the families and their completions, and the
    population's completions."""
    counts = comparisons.tally("commutative-flag", [*members("commutative-flag", "tier-1"),
                                                    *(row["poset"] for row in population)])
    assert counts["boolean", "no"] == 0
    # pseudo_om is both commutative and not, often; counted over distinct
    # posets, the rarest flag comes 49 times
    assert min(counts["boolean", "yes"], counts["pseudo_om", "yes"],
               counts["pseudo_om", "no"]) > 40, counts


SMALL_LATTICES = [complete(poset).as_poset() for poset in (
    corpus.chain(3), corpus.boolean_algebra(3), corpus.mo(2),
    corpus.load("benzene"), crown(3))]


@st.composite
def tables(draw):
    """A small lattice and odot, arrow tables on it: arbitrary entries,
    or the tables of a kind with up to three entries rewritten; the
    unit law is forced on request so the adjunction gets decided."""
    lattice = draw(st.sampled_from(SMALL_LATTICES))
    n = lattice.n
    element = st.integers(0, n - 1)
    if draw(st.booleans()):
        ops = bdm_transform(lattice, draw(st.sampled_from(("boolean", "pseudo_om"))))
        odot, arrow = [list(row) for row in ops.odot], [list(row) for row in ops.arrow]
        for which, r, c, v in draw(st.lists(st.tuples(st.booleans(), element, element,
                                                      element), max_size=3)):
            (odot if which else arrow)[r][c] = v
    else:
        square = st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n)
        odot, arrow = draw(square), draw(square)
    if draw(st.booleans()):
        top = lattice.top
        for x in range(n):
            odot[x][top] = odot[top][x] = x
    return lattice, ResiduatedOps("drawn", tuple(map(tuple, odot)), tuple(map(tuple, arrow)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables())
def test_criterion_matches_the_walk_on_arbitrary_tables(drawn):
    lattice, ops = drawn
    column = residuation._first_unadjoint_column(lattice, ops.odot, ops.arrow)
    assert column == first_failing_column(lattice, ops.odot, ops.arrow)
    assert column == pair_set_first_column(lattice, ops.odot, ops.arrow)
    assert verify_left_residuated_lattice(lattice, ops) == walk_verify(lattice, ops)


@pytest.mark.parametrize("poset, kind", [(corpus.boolean_algebra(4), "boolean"),
                                         (crown(4), "pseudo_om")])
def test_single_flipped_entries_match_the_walk(poset, kind):
    lattice = complete(poset).as_poset()
    ops = bdm_transform(lattice, kind)
    n = lattice.n
    failing = set()
    for which in ("odot", "arrow"):
        for r in range(n):
            for c in range(n):
                table = [list(row) for row in getattr(ops, which)]
                table[r][c] = (table[r][c] + 1) % n
                flipped = ResiduatedOps(kind, **{"odot": ops.odot, "arrow": ops.arrow,
                                                 which: tuple(map(tuple, table))})
                report = verify_left_residuated_lattice(lattice, flipped)
                assert report == walk_verify(lattice, flipped), (which, r, c)
                if report.witness and report.witness["axiom"] == "adjunction":
                    failing.add(report.witness["y"])
    assert len(failing) == n


def count_witness_walks(monkeypatch):
    calls = []
    real = residuation._adjunction_witness

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(residuation, "_adjunction_witness", counted)
    return calls


def test_a_passing_check_walks_no_column(monkeypatch):
    calls = count_witness_walks(monkeypatch)
    completed = complete(corpus.boolean_algebra(6)).as_poset()
    assert verify_left_residuated_lattice(completed, bdm_transform(completed, "boolean")).holds
    assert calls == []


def test_a_failing_check_walks_one_column(monkeypatch):
    calls = count_witness_walks(monkeypatch)
    completed = complete(corpus.load("benzene")).as_poset()
    report = verify_left_residuated_lattice(completed, bdm_transform(completed, "pseudo_om"))
    assert report.witness == {"axiom": "adjunction", "x": "c", "y": "d", "z": "c"}
    assert calls == [completed.id_of("d")]


def test_completion_verdicts_of_the_kinds(population):
    """On the completion, pseudo_om holds exactly on orthomodular ones
    and boolean exactly on distributive orthomodular ones."""
    for row in population:
        ctx = row["ctx"]
        completed = ctx.dm.as_poset()
        distributive = PROPERTIES["completion-distributive"](ctx).holds
        for kind, expected in (("pseudo_om", row["completion_oml"]),
                               ("boolean", row["completion_oml"] and distributive)):
            verdict = verify_left_residuated_lattice(completed, bdm_transform(completed, kind))
            assert verdict.holds == expected, (kind, row["poset"].names)


# -- the lattice laws and the bit-row pass against the table route -------------


def test_law_route_and_bit_rows_match_the_table_route_on_the_families(comparisons):
    verdicts = comparisons.tally("law-route", members("law-route", "tier-1"))
    # both laws both hold and fail; counted over distinct posets, the
    # rarest verdict comes 28 times
    assert min(verdicts[kind, law] for kind in ("boolean", "pseudo_om")
               for law in (True, False)) > 20, verdicts


def test_law_route_and_bit_rows_match_the_table_route_on_the_population(population,
                                                                        comparisons):
    verdicts = comparisons.tally("law-route", [row["poset"] for row in population])
    assert all(verdicts[kind, law] for kind in ("boolean", "pseudo_om")
               for law in (True, False)), verdicts


def test_hand_built_and_replaced_ops_take_the_table_route(monkeypatch):
    calls = []
    real = residuation._first_unadjoint_column
    monkeypatch.setattr(residuation, "_first_unadjoint_column",
                        lambda *args: calls.append(1) or real(*args))
    lattice = complete(corpus.boolean_algebra(4))
    for kind in ("boolean", "pseudo_om"):
        ops = bdm_transform(lattice, kind)
        hand = ResiduatedOps(kind, ops.odot, ops.arrow)
        # the provenance is no field: equality, repr and astuple ignore it
        assert (hand, repr(hand), astuple(hand)) == (ops, repr(ops), astuple(ops))
        arrow = [list(row) for row in ops.arrow]
        arrow[3][5] = (arrow[3][5] + 1) % lattice.n
        flipped = replace(ops, arrow=tuple(map(tuple, arrow)))
        on_a_copy = bdm_transform(validated(lattice), kind)
        assert residuation._law_holds(lattice, ops) is True
        for other in (hand, flipped, on_a_copy):
            assert residuation._law_holds(lattice, other) is None
        calls.clear()
        assert verify_left_residuated_lattice(lattice, ops).holds
        assert calls == []
        for other in (hand, on_a_copy):
            assert verify_left_residuated_lattice(lattice, other).holds
        report = verify_left_residuated_lattice(lattice, flipped)
        assert report == walk_verify(lattice, flipped)
        assert not report.holds
        assert len(calls) == 3

