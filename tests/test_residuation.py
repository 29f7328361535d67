"""Operator pairs, their axioms, and the transformed lattice operations."""

import pytest

from posetkit import corpus, residuation
from posetkit.completion import complete
from posetkit.errors import NoRelativePseudocomplement
from posetkit.residuation import (
    bdm_transform,
    operator_pair,
    pseudocomplement_table,
    relative_pseudocomplement,
    star_on_dm,
    verify_left_residuated_lattice,
    verify_operator_left_residuation,
)

BOOLEAN_MEMBERS = ("chain2", "ba4", "ba8", "ba16", "fig1a", "fig1b")
RELPSEUDO_MEMBERS = ("chain2", "chain3", "ba4", "ba8", "ba16")
PSEUDO_OM_MEMBERS = ("chain2", "ba4", "ba8", "ba16", "mo2", "mo3",
                     "twoblocks", "fig1a", "fig1b", "fig2")


def test_relative_pseudocomplement_values():
    ba8 = corpus.load("ba8")
    a, b = ba8.id_of("a"), ba8.id_of("b")
    star = relative_pseudocomplement(ba8, a, b)
    assert ba8.names[star] == "a'"
    chain3 = corpus.load("chain3")
    table = pseudocomplement_table(chain3)
    one, c1 = chain3.id_of("1"), chain3.id_of("c1")
    assert table[one][c1] == c1
    assert table[c1][one] == one


def test_relative_pseudocomplement_can_be_missing():
    diamond = corpus.load("diamond")
    p, q = diamond.id_of("p"), diamond.id_of("q")
    assert relative_pseudocomplement(diamond, p, q) is None
    with pytest.raises(NoRelativePseudocomplement):
        pseudocomplement_table(diamond)
    with pytest.raises(NoRelativePseudocomplement):
        pseudocomplement_table(corpus.load("mo2"))
    fig1a = corpus.load("fig1a")
    with pytest.raises(NoRelativePseudocomplement):
        pseudocomplement_table(fig1a)


def test_boolean_operator_tables_on_ba4():
    ba4 = corpus.load("ba4")
    pair = operator_pair(ba4, "boolean")
    a, b = ba4.id_of("a"), ba4.id_of("b")
    bottom, top = ba4.require_bounds()
    assert pair.mul[a][b] == 1 << bottom
    assert pair.res[a][bottom] == ba4.down[b]
    assert pair.res[a][a] == ba4.full
    assert pair.mul[a][top] == ba4.down[a]


@pytest.mark.parametrize("name", BOOLEAN_MEMBERS)
def test_boolean_kind_axioms(name):
    report = verify_operator_left_residuation(corpus.load(name), "boolean")
    assert report.holds, report.line()
    assert report.extra == {"kind": "boolean"}


@pytest.mark.parametrize("name", RELPSEUDO_MEMBERS)
def test_relpseudo_kind_axioms(name):
    report = verify_operator_left_residuation(corpus.load(name), "relpseudo")
    assert report.holds, report.line()


@pytest.mark.parametrize("name", PSEUDO_OM_MEMBERS)
def test_pseudo_om_kind_axioms(name):
    report = verify_operator_left_residuation(corpus.load(name), "pseudo_om")
    assert report.holds, report.line()


def test_axioms_fail_where_the_structure_is_wrong():
    assert not verify_operator_left_residuation(
        corpus.load("mo2"), "boolean").holds
    assert not verify_operator_left_residuation(
        corpus.load("fig3"), "pseudo_om").holds


def test_operator_verdict_uses_the_pair_of_its_kind():
    fig2 = corpus.load("fig2")
    assert verify_operator_left_residuation(fig2, "pseudo_om").holds
    report = verify_operator_left_residuation(fig2, "boolean")
    assert not report.holds
    assert report.witness == {"axiom": "adjunction", "x": "a", "y": "a", "z": "f"}


def test_unknown_kind():
    with pytest.raises(ValueError):
        operator_pair(corpus.load("ba4"), "weird")


def test_star_on_dm_extends_the_base_operation():
    for name in RELPSEUDO_MEMBERS:
        poset = corpus.load(name)
        lattice = complete(poset)
        star = star_on_dm(poset, lattice)
        table = pseudocomplement_table(poset)
        for x in range(poset.n):
            for y in range(poset.n):
                assert (star[lattice.embed[x]][lattice.embed[y]]
                        == lattice.embed[table[x][y]])


def test_the_base_pseudocomplements_are_worked_out_once(monkeypatch):
    """Two lifts on one poset and the operator pair read one kept table;
    the public table is a fresh copy each time and still refuses a
    poset without relative pseudocomplements."""
    calls = []
    real = residuation.relative_pseudocomplement

    def counting(poset, x, y):
        calls.append((x, y))
        return real(poset, x, y)

    for name in RELPSEUDO_MEMBERS:
        poset = corpus.load(name)
        expected = [[real(poset, x, y) for y in range(poset.n)] for x in range(poset.n)]
        lattice = complete(poset)
        monkeypatch.setattr(residuation, "relative_pseudocomplement", counting)
        first = star_on_dm(poset, lattice)
        assert star_on_dm(poset, lattice) == first
        table = pseudocomplement_table(poset)
        assert table == expected and table is not pseudocomplement_table(poset)
        table[0][0] = None
        assert pseudocomplement_table(poset) == expected
        assert operator_pair(poset, "relpseudo").res == tuple(
            tuple(poset.down[s] for s in row) for row in expected)
        assert len(calls) == poset.n ** 2, name
        monkeypatch.undo()
        calls.clear()
    diamond = corpus.load("diamond")
    monkeypatch.setattr(residuation, "relative_pseudocomplement", counting)
    for _ in range(2):
        with pytest.raises(NoRelativePseudocomplement, match="does not exist"):
            pseudocomplement_table(diamond)
    assert len(calls) == diamond.n ** 2


def test_transformed_operations_boolean():
    lattice = complete(corpus.load("fig1b")).as_poset()
    ops = bdm_transform(lattice, "boolean")
    report = verify_left_residuated_lattice(lattice, ops,
                                            check_associativity=True)
    assert report.holds
    assert report.extra["commutative"] == "yes"
    assert report.extra["associative"] == "yes"


def test_transformed_operations_pseudo_om():
    lattice = complete(corpus.load("fig2")).as_poset()
    ops = bdm_transform(lattice, "pseudo_om")
    report = verify_left_residuated_lattice(lattice, ops)
    assert report.holds
    assert report.extra["commutative"] == "no"
    assert report.extra["associative"] == "unchecked"
    mo3 = corpus.load("mo3")
    assert verify_left_residuated_lattice(
        mo3, bdm_transform(mo3, "pseudo_om")).holds


def test_transformed_operations_relpseudo():
    poset = corpus.load("chain3")
    lattice = complete(poset)
    star = star_on_dm(poset, lattice)
    ops = bdm_transform(lattice.as_poset(), "relpseudo", star)
    assert verify_left_residuated_lattice(lattice.as_poset(), ops).holds


def test_pseudo_om_operations_fail_on_a_non_orthomodular_lattice():
    benzene = corpus.load("benzene")
    ops = bdm_transform(benzene, "pseudo_om")
    report = verify_left_residuated_lattice(benzene, ops)
    assert not report.holds
    assert report.witness["axiom"] == "adjunction"
