"""The paper's equivalences over every complemented poset up to the
exhaustive size cap.  Opt-in: deselected by default, run with
``python -m pytest -m exhaustive``."""

import pytest

from posetkit.build import EXHAUSTIVE_SIZE_CAP, generate_small
from posetkit.checks import PROPERTIES, CheckContext, naive_strongly_d_continuous

pytestmark = pytest.mark.exhaustive


def test_equivalences_over_every_complemented_poset_up_to_the_cap():
    posets = list(generate_small(EXHAUSTIVE_SIZE_CAP, "complemented", exhaustive=True))
    assert len(posets) == 9
    for poset in posets:
        ctx = CheckContext(poset)
        sdc = PROPERTIES["strongly-d-continuous"](ctx).holds
        pom = PROPERTIES["pseudo-orthomodular"](ctx).holds
        finch = PROPERTIES["finch"](ctx).holds
        oml = PROPERTIES["completion-orthomodular"](ctx).holds
        assert (sdc and pom) == finch == oml, poset.names
        assert naive_strongly_d_continuous(poset).holds == sdc, poset.names
