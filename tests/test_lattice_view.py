"""Lattice operations through ``meet_sets`` and ``by_up``: the corpus,
the population and their completions stay compared by the registry
entries (``oracles``) that walk the lattice laws over tables tied to
closures of unions and cone scans; the refusals of non-lattices, and
the laws a passing completion decides with no tables.
"""

import pytest
from families import member
from oracles import assert_compared_in_tier_1, validated

from posetkit import checks, completion, corpus
from posetkit import poset as poset_module
from posetkit.checks import (
    PROPERTIES,
    CheckContext,
    _lattice_ops,
    find_modularity_violation,
    is_distributive_lattice,
    is_distributive_poset,
    run_properties,
)
from posetkit.completion import complete
from posetkit.errors import NotALattice
from posetkit.poset import lattice_violation
from posetkit.residuation import _lattice_tables, bdm_transform

# the families, built once a session in the setup of the first test that reads them
pytestmark = pytest.mark.usefixtures("built_families")


def assert_compared_by_lattice_operations(posets):
    """By the entries whose walks read joins in ``by_up`` and meets in ``meet_sets``."""
    for oracle in ("lattice-laws", "full-walks", "lattice-tables"):
        assert_compared_in_tier_1(oracle, posets)


@pytest.mark.parametrize("name", corpus.member_names())
def test_view_matches_oracles_on_the_corpus(name):
    assert_compared_by_lattice_operations([member(name)])


@pytest.mark.parametrize("name", corpus.member_names())
def test_view_matches_oracles_on_corpus_completions(name):
    assert_compared_by_lattice_operations([validated(complete(member(name)))])


def test_view_matches_oracles_on_the_population(population):
    assert_compared_by_lattice_operations([row["poset"] for row in population])


def test_view_matches_oracles_on_population_completions(population):
    assert_compared_by_lattice_operations([validated(row["ctx"].dm) for row in population])


def test_non_lattices_raise_the_witness_message():
    for name in ("fig1a", "fig1b", "fig2", "fig3"):
        poset = corpus.load(name)
        bad = lattice_violation(poset)
        message = f"{bad['x']}, {bad['y']} have no {bad['missing']}"
        for run in (lambda: _lattice_tables(poset), lambda: _lattice_ops(poset),
                    lambda: find_modularity_violation(poset),
                    lambda: PROPERTIES["orthomodular-lattice"](CheckContext(poset)),
                    lambda: bdm_transform(poset, "boolean")):
            with pytest.raises(NotALattice) as caught:
                run()
            assert str(caught.value) == message


def test_a_non_lattice_view_is_refused_once(monkeypatch):
    calls = []
    real = poset_module.lattice_violation

    def counted(poset):
        calls.append(poset)
        return real(poset)

    # patched where it is looked up: in poset.py and by the lattice property
    monkeypatch.setattr(poset_module, "lattice_violation", counted)
    monkeypatch.setattr(checks, "lattice_violation", counted)
    # the pasting decides latticehood by the kept scan, so loading scans first
    fig3 = corpus.load("fig3")
    assert calls == [fig3]
    ctx = CheckContext(fig3)
    names = ("modular", "orthomodular-lattice", "distributive", "modular", "lattice",
             "orthocomplete")
    assert [exc for _, _, exc in run_properties(ctx, names)].count(None) == 3
    with pytest.raises(NotALattice) as caught:
        fig3.kept(_lattice_tables)
    bad = real(fig3)
    assert str(caught.value) == f"{bad['x']}, {bad['y']} have no {bad['missing']}"
    # the scan while loading found the missing join or meet; the rest reuse it
    assert calls == [fig3]


def test_passing_completion_laws_build_no_tables_and_no_down_rows():
    for name, props in (("fig1a", ("completion-distributive", "completion-orthomodular")),
                        ("ba16", ("completion-distributive", "completion-orthomodular")),
                        ("fig2", ("completion-orthomodular", "strongly-d-continuous"))):
        ctx = CheckContext(corpus.load(name))
        assert all(PROPERTIES[prop](ctx).holds for prop in props), name
        assert _lattice_tables not in ctx.dm._kept, name
        assert completion._down_rows not in ctx.dm._kept, name


def test_distributive_lattice_agrees_with_the_cone_form():
    for name in ("ba16", "mo3", "benzene", "diamond", "twoblocks", "chain3"):
        lattice = corpus.load(name)
        assert is_distributive_lattice(lattice) == is_distributive_poset(lattice)


def test_completion_join_is_the_closure_of_the_union():
    assert_compared_in_tier_1("lattice-tables", [member(name) for name in
                                                 ("fig2", "fig3", "diamond", "benzene")])
