"""Acceptance gate: one test per release criterion.

Every criterion is an exact statement, no tolerances: the bundled posets
have the documented structure, generated populations satisfy the
completion equivalences with zero discrepancies, and the operator laws
hold on every applicable corpus member. The terminal summary prints one
pass/fail line per criterion (see conftest).
"""

import random

from families import rename

from posetkit.build import (
    dm_hsum_isomorphism,
    generate_small,
    induced_subposet,
)
from posetkit.checks import (
    doubly_dense_subsets,
    find_modularity_violation,
    is_boolean_poset,
    is_complement_closed_doubly_dense,
    is_distributive_poset,
    is_orthomodular_lattice,
    is_orthomodular_poset,
    is_pseudo_orthomodular,
    is_strongly_d_continuous,
    naive_strongly_d_continuous,
)
from posetkit.completion import complete
from posetkit.corpus import (
    boolean_algebra,
    chain,
    expectations,
    load,
    member_names,
    mo,
)
from posetkit.poset import FinitePoset, is_lattice
from posetkit.residuation import (
    bdm_transform,
    operator_pair,
    pseudocomplement_table,
    star_on_dm,
    verify_left_residuated_lattice,
    verify_operator_left_residuation,
)

BOOLEAN_MEMBERS = ("chain2", "ba4", "ba8", "ba16", "fig1a", "fig1b")
RELPSEUDO_MEMBERS = ("chain2", "chain3", "ba4", "ba8", "ba16")
PSEUDO_OM_MEMBERS = ("chain2", "ba4", "ba8", "ba16", "mo2", "mo3",
                     "twoblocks", "fig1a", "fig1b", "fig2")


def test_criterion_01():
    """Boolean posets that are not lattices complete to Boolean algebras,
    and the meet-style operator pair is residuated and commutative."""
    for name in ("fig1a", "fig1b"):
        poset = load(name)
        assert is_boolean_poset(poset).holds
        assert not is_lattice(poset)

        lattice = complete(poset)
        assert is_orthomodular_lattice(lattice).holds
        # the completion's rows through the full validation, as a plain poset
        assert is_distributive_poset(FinitePoset(lattice.names, lattice.up, lattice.inv)).holds

        assert verify_operator_left_residuation(poset, "boolean").holds

        completed = lattice.as_poset()
        verdict = verify_left_residuated_lattice(
            completed, bdm_transform(completed, "boolean"))
        assert verdict.holds
        assert verdict.extra["commutative"] == "yes"


def test_criterion_02():
    """The bundled horizontal sum is pseudo-orthomodular; its completion
    is an orthomodular lattice that is not modular, and the sasaki-style
    operations on the completion form a left residuated lattice."""
    poset = load("fig2")
    assert is_pseudo_orthomodular(poset).holds

    lattice = complete(poset)
    assert is_orthomodular_lattice(lattice).holds
    assert find_modularity_violation(lattice) is not None

    completed = lattice.as_poset()
    verdict = verify_left_residuated_lattice(
        completed, bdm_transform(completed, "pseudo_om"))
    assert verdict.holds


def test_criterion_03():
    """The four-block loop diagram pastes to an 18-element orthomodular
    poset that is neither a lattice nor pseudo-orthomodular, with the
    documented witness cones, and its completion is not orthomodular."""
    poset = load("fig3")
    assert poset.n == 18
    assert is_orthomodular_poset(poset).holds
    assert not is_lattice(poset)
    assert not is_pseudo_orthomodular(poset).holds

    pair_cone = poset.lower_cone(poset.mask(["s'", "x'"]))
    assert pair_cone & poset.atoms() == poset.mask(["v", "z"])
    assert poset.upper_cone(pair_cone | poset.mask(["x"])) == poset.mask(["1"])

    assert not is_orthomodular_lattice(complete(poset)).holds


def test_criterion_04(population):
    """Strong D-continuity plus pseudo-orthomodularity characterizes the
    posets whose completion is orthomodular, over the whole generated
    population."""
    assert len(population) == 204
    for row in population:
        assert (row["sdc"] and row["pom"]) == row["completion_oml"], \
            row["poset"].names


def test_criterion_05(population):
    """The maximal-orthogonal-subset criterion agrees with completion
    orthomodularity on every generated poset."""
    for row in population:
        assert row["finch"] == row["completion_oml"], row["poset"].names


def test_criterion_06():
    """The closed-pair reduction of strong D-continuity agrees with the
    all-subset-pairs brute force on every complemented poset up to 7
    elements."""
    count = 0
    for poset in generate_small(7, "complemented", exhaustive=True):
        reduced = is_strongly_d_continuous(poset)
        naive = naive_strongly_d_continuous(poset)
        assert reduced.holds == naive.holds, poset.names
        count += 1
    assert count == 4


def test_criterion_07(population):
    """Every generated pseudo-orthomodular poset has an orthomodular
    completion carrying a left residuated structure."""
    checked = 0
    for row in population:
        if not row["pom"]:
            continue
        assert row["completion_oml"], row["poset"].names
        completed = row["ctx"].dm.as_poset()
        verdict = verify_left_residuated_lattice(
            completed, bdm_transform(completed, "pseudo_om"))
        assert verdict.holds, row["poset"].names
        checked += 1
    assert checked > 0


def test_criterion_08():
    """Complement-closed doubly dense subsets of small orthomodular
    lattices induce pseudo-orthomodular posets, and each bundled
    pseudo-orthomodular poset sits doubly densely in its completion."""
    omls = tuple(name for name in member_names()
                 if expectations(name).get("orthomodular-lattice")
                 and load(name).n <= 16)
    assert omls == ("chain2", "ba4", "ba8", "ba16", "mo2", "mo3",
                    "twoblocks")
    for name in omls:
        lattice = load(name)
        subsets = list(doubly_dense_subsets(lattice))
        assert subsets
        for subset in subsets:
            induced = induced_subposet(lattice, subset)
            assert is_pseudo_orthomodular(induced).holds, (name, subset)

    pom_members = tuple(name for name in member_names()
                        if expectations(name).get("pseudo-orthomodular"))
    assert set(pom_members) == set(PSEUDO_OM_MEMBERS)
    for name in pom_members:
        poset = load(name)
        lattice = complete(poset)
        image = 0
        for k in lattice.embed:
            image |= 1 << k
        verdict = is_complement_closed_doubly_dense(lattice.as_poset(), image)
        assert verdict.holds, name


def test_criterion_09():
    """Completion commutes with horizontal sums, edge for edge, on the
    bundled decomposition and on random part combinations."""
    report = dm_hsum_isomorphism([load("fig1b"),
                                  boolean_algebra(2, ("f", "f'"))])
    assert report.holds
    assert report.extra["closed-sets"] == "18"

    pool = [chain(3), chain(4), boolean_algebra(2, ("p1", "p2")),
            boolean_algebra(3, ("q1", "q2", "q3")), mo(2), load("benzene"),
            load("fig1b")]
    rng = random.Random(97)
    for round_no in range(5):
        picks = rng.sample(range(len(pool)), rng.randint(2, 3))
        parts = [rename(pool[i], f"h{round_no}{slot}")
                 for slot, i in enumerate(picks)]
        report = dm_hsum_isomorphism(parts)
        assert report.holds, (picks, report.witness)


def test_criterion_10():
    """The operator axioms, the order law, and the cone form of the
    relative pseudocomplement hold for every kind on every applicable
    corpus member."""
    plans = (("boolean", BOOLEAN_MEMBERS), ("relpseudo", RELPSEUDO_MEMBERS),
             ("pseudo_om", PSEUDO_OM_MEMBERS))
    for kind, members in plans:
        for name in members:
            poset = load(name)
            verdict = verify_operator_left_residuation(poset, kind)
            assert verdict.holds, (kind, name, verdict.witness)

    for name in RELPSEUDO_MEMBERS:
        poset = load(name)
        pair = operator_pair(poset, "relpseudo")
        table = pseudocomplement_table(poset)
        for x in range(poset.n):
            for y in range(poset.n):
                assert pair.res[x][y] == poset.down[table[x][y]], (name, x, y)
        lattice = complete(poset)
        star = star_on_dm(poset, lattice)
        for x in range(poset.n):
            for y in range(poset.n):
                assert star[lattice.embed[x]][lattice.embed[y]] == \
                    lattice.embed[table[x][y]], (name, x, y)


def test_criterion_11():
    """Closure laws, lectic enumeration against brute force, and the
    induced involution on every corpus completion."""
    for name in member_names():
        poset = load(name)
        singletons = [1 << i for i in range(poset.n)]
        for subset in [0] + singletons:
            closed = poset.closure(subset)
            assert subset & closed == subset
            assert poset.closure(closed) == closed
        for s in singletons:
            for t in singletons:
                assert poset.closure(s) & poset.closure(s | t) == \
                    poset.closure(s)

        if poset.n <= 7:
            brute = {poset.closure(subset)
                     for subset in range(poset.full + 1)}
            assert set(complete(poset).closed) == brute

        lattice = complete(poset)
        completed = lattice.as_poset()
        inv = lattice.inv
        if poset.inv is None:
            assert inv is None
            continue
        for i in range(len(lattice)):
            assert inv[inv[i]] == i
            for j in range(len(lattice)):
                if completed.leq(i, j):
                    assert completed.leq(inv[j], inv[i])
        for x in range(poset.n):
            assert inv[lattice.embed[x]] == lattice.embed[poset.inv[x]]
