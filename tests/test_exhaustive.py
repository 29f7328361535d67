"""The paper's equivalences over every complemented poset up to the
exhaustive size cap.  Opt-in: deselected by default, run with
``python -m pytest -m exhaustive``."""

import pytest
from families import crown, family

from posetkit.checks import PROPERTIES, CheckContext, naive_strongly_d_continuous, run_check
from posetkit.corpus import boolean_algebra
from posetkit.residuation import (
    bdm_transform,
    verify_left_residuated_lattice,
    verify_operator_left_residuation,
)

pytestmark = pytest.mark.exhaustive


def test_equivalences_over_every_complemented_poset_up_to_the_cap():
    posets = list(family("complemented").values())
    assert len(posets) == 9
    for poset in posets:
        ctx = CheckContext(poset)
        sdc = PROPERTIES["strongly-d-continuous"](ctx).holds
        pom = PROPERTIES["pseudo-orthomodular"](ctx).holds
        finch = PROPERTIES["finch"](ctx).holds
        oml = PROPERTIES["completion-orthomodular"](ctx).holds
        assert (sdc and pom) == finch == oml, poset.names
        assert sdc == oml, poset.names
        assert naive_strongly_d_continuous(poset).holds == sdc, poset.names


def test_residuation_over_every_complemented_poset_up_to_the_cap():
    """The paper's first half: on the completion the pseudo_om kind is
    left residuated exactly when it is orthomodular, the boolean kind
    exactly when it is also distributive; the pseudo_om operators are
    left residuated on every pseudo-orthomodular poset."""
    pom_count = 0
    for poset in family("complemented").values():
        ctx = CheckContext(poset)
        oml = PROPERTIES["completion-orthomodular"](ctx).holds
        distributive = PROPERTIES["completion-distributive"](ctx).holds
        completed = ctx.dm.as_poset()
        for kind, expected in (("pseudo_om", oml), ("boolean", oml and distributive)):
            verdict = verify_left_residuated_lattice(completed, bdm_transform(completed, kind))
            assert verdict.holds == expected, (kind, poset.names)
        if PROPERTIES["pseudo-orthomodular"](ctx).holds:
            pom_count += 1
            assert verify_operator_left_residuation(poset, "pseudo_om").holds, poset.names
    assert pom_count == 5


def test_lattice_laws_of_the_completion_cliffs():
    """Birkhoff's criterion decides both in milliseconds.  The triple walk
    over the tables took minutes on crown10's completion, so a return to
    it overruns the CI job's timeout."""
    assert run_check("completion-distributive", crown(10)).holds
    assert run_check("distributive", boolean_algebra(7)).holds
