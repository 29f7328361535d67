"""Lattice operations against the routes they replaced.

Completion-level joins used to be closures of unions, and lattice-level
joins and meets cone scans.  Those routes are kept here as oracles:
every check that now reads a join in ``by_up`` and a meet through
``meet_sets`` must give the same report, witness included, and
bdm_transform the same tables.
"""

import pytest
from test_completion import validated

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
from posetkit.completion import DMLattice, complete
from posetkit.errors import MissingInvolution, NotALattice, NotComplemented, PosetError
from posetkit.poset import is_antitone_involution, lattice_violation
from posetkit.report import CheckReport
from posetkit.residuation import KINDS, _lattice_tables, bdm_transform, pseudocomplement_table


class ConeOps:
    """Join, meet and order of a lattice the old way: closures of unions
    on a completion, cone scans on a poset."""

    def __init__(self, lattice):
        if isinstance(lattice, DMLattice):
            dm = lattice
            self.size = len(dm)
            self.names = list(dm.names)
            self.inv = dm.inv
            self.bottom, self.top = dm.bottom, dm.top
            self.join = lambda i, j: dm.index[dm.base.closure(dm.closed[i] | dm.closed[j])]
            self.meet = lambda i, j: dm.index[dm.closed[i] & dm.closed[j]]
            self.leq = validated(dm).leq
        else:
            poset = lattice
            bad = lattice_violation(poset)
            if bad is not None:
                raise NotALattice(f"{bad['x']}, {bad['y']} have no {bad['missing']}")
            self.size = poset.n
            self.names = list(poset.names)
            self.inv = poset.inv
            self.bottom, self.top = poset.bottom, poset.top
            self.join = lambda i, j: poset.join_of((1 << i) | (1 << j))
            self.meet = lambda i, j: poset.meet_of((1 << i) | (1 << j))
            self.leq = poset.leq


def oracle_orthomodular_lattice(lattice):
    if not isinstance(lattice, DMLattice) and lattice.inv is not None:
        anti = is_antitone_involution(lattice)
        if not anti.holds:
            raise NotComplemented("involution is not antitone: " + anti.details)
    ops = ConeOps(lattice)
    if isinstance(lattice, DMLattice):
        if ops.inv is None:
            raise MissingInvolution("completion carries no involution")
    else:
        lattice.require_involution()
        lattice.require_bounds()
    for k in range(ops.size):
        if (ops.meet(k, ops.inv[k]) != ops.bottom
                or ops.join(k, ops.inv[k]) != ops.top):
            raise NotComplemented(f"{ops.names[k]} meets or joins its image improperly")
    identity = next(((x, y) for x in range(ops.size) for y in range(ops.size)
                     if ops.join(ops.meet(ops.join(x, y), ops.inv[y]), y) != ops.join(x, y)),
                    None)
    exchange = next(((x, y) for x in range(ops.size) for y in range(ops.size)
                     if x != y and ops.leq(x, y) and ops.meet(ops.inv[x], y) == ops.bottom),
                    None)
    assert (identity is None) == (exchange is None)
    if identity is None:
        return CheckReport("orthomodular-lattice", True)
    x, y = identity
    return CheckReport("orthomodular-lattice", False,
                       witness={"x": ops.names[x], "y": ops.names[y]},
                       details="((x v y) ^ y') v y differs from x v y")


def oracle_modular_lattice(lattice):
    ops = ConeOps(lattice)
    for x in range(ops.size):
        for z in range(ops.size):
            if x == z or not ops.leq(x, z):
                continue
            for y in range(ops.size):
                if ops.join(x, ops.meet(y, z)) != ops.meet(ops.join(x, y), z):
                    return CheckReport(
                        "modular", False,
                        witness={"x": ops.names[x], "y": ops.names[y], "z": ops.names[z]},
                        details="x v (y ^ z) differs from (x v y) ^ z for x <= z")
    return CheckReport("modular", True)


def oracle_bdm_transform(lattice, kind):
    ops = ConeOps(lattice)
    n = ops.size
    if kind == "relpseudo":
        star = pseudocomplement_table(lattice)
        odot = [[ops.meet(x, y) for y in range(n)] for x in range(n)]
        arrow = [[star[x][y] for y in range(n)] for x in range(n)]
    else:
        inv = lattice.require_involution()
        if kind == "boolean":
            odot = [[ops.meet(x, y) for y in range(n)] for x in range(n)]
            arrow = [[ops.join(inv[x], y) for y in range(n)] for x in range(n)]
        else:
            odot = [[ops.meet(ops.join(x, inv[y]), y) for y in range(n)] for x in range(n)]
            arrow = [[ops.join(ops.meet(x, y), inv[x]) for y in range(n)] for x in range(n)]
    return tuple(map(tuple, odot)), tuple(map(tuple, arrow))


def outcome(fn, *args):
    """A result, or the precondition error it raised."""
    try:
        return fn(*args)
    except PosetError as exc:
        return type(exc).__name__, str(exc)


def renamed(report, name):
    return CheckReport(name, report.holds, report.witness, report.details, report.extra)


def assert_lattice_ops_match_oracles(poset, ctx=None):
    ctx = ctx or CheckContext(poset)
    dm = ctx.dm
    oracles = {
        "orthomodular-lattice": lambda: oracle_orthomodular_lattice(poset),
        "modular": lambda: oracle_modular_lattice(poset),
        "completion-orthomodular": lambda: renamed(
            oracle_orthomodular_lattice(dm), "completion-orthomodular"),
        "completion-modular": lambda: renamed(
            oracle_modular_lattice(dm), "completion-modular"),
        "completion-distributive": lambda: renamed(
            is_distributive_poset(validated(dm)), "completion-distributive"),
    }
    for name, oracle in oracles.items():
        assert outcome(PROPERTIES[name], ctx) == outcome(oracle), name
    for lattice in (poset, validated(dm)):
        for kind in KINDS:
            assert (outcome(lambda: astuple(bdm_transform(lattice, kind)))
                    == outcome(oracle_bdm_transform, lattice, kind)), kind


def astuple(ops):
    return ops.odot, ops.arrow


@pytest.mark.parametrize("name", corpus.member_names())
def test_view_matches_oracles_on_the_corpus(name):
    assert_lattice_ops_match_oracles(corpus.load(name))


@pytest.mark.parametrize("name", corpus.member_names())
def test_view_matches_oracles_on_corpus_completions(name):
    assert_lattice_ops_match_oracles(validated(complete(corpus.load(name))))


def test_view_matches_oracles_on_the_population(population):
    for row in population:
        assert_lattice_ops_match_oracles(row["poset"], row["ctx"])


def test_view_matches_oracles_on_population_completions(population):
    for row in population:
        assert_lattice_ops_match_oracles(validated(row["ctx"].dm))


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
    for name in ("fig2", "fig3", "diamond", "benzene"):
        dm = complete(corpus.load(name))
        ops = ConeOps(dm)
        join, meet = _lattice_tables(dm)
        op_join, op_meet = _lattice_ops(dm)
        for i in range(len(dm)):
            for j in range(len(dm)):
                assert join[i][j] == op_join(i, j) == ops.join(i, j)
                assert meet[i][j] == op_meet(i, j) == ops.meet(i, j)
