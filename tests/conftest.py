"""Shared fixtures: the families and the generated poset population, the
session's route oracle comparisons, and a terminal summary that prints
one line per acceptance criterion and one per route oracle."""

import re

import pytest

# before the import, so the oracles' asserts hold under python -O
pytest.register_assert_rewrite("oracles")

import families
from oracles import ORACLES, Comparisons, members

from posetkit.checks import PROPERTIES, CheckContext

COMPARISONS = pytest.StashKey[Comparisons]()


@pytest.fixture(scope="session", autouse=True)
def built_families():
    """Every family, with the completions and size measures that put its
    members in each oracle's tier-1, built before the first test: the
    build is that test's setup, and ``--durations`` reports it as such."""
    for name in ORACLES:
        members(name, "tier-1")


@pytest.fixture(scope="session")
def population():
    """Complemented posets with their equivalence-law verdicts cached.

    Exhaustive up to 7 elements plus a seeded random stream up to 10,
    shared by the acceptance criteria that quantify over generated
    posets so each completion is computed once.
    """
    rows = []
    for poset in families.population():
        ctx = CheckContext(poset)
        rows.append({
            "poset": poset,
            "ctx": ctx,
            "sdc": PROPERTIES["strongly-d-continuous"](ctx).holds,
            "pom": PROPERTIES["pseudo-orthomodular"](ctx).holds,
            "finch": PROPERTIES["finch"](ctx).holds,
            "completion_oml": PROPERTIES["completion-orthomodular"](ctx).holds,
        })
    return rows


@pytest.fixture(scope="session")
def comparisons(request):
    """The route oracle comparisons of this session, each made once."""
    request.config.stash[COMPARISONS] = Comparisons()
    return request.config.stash[COMPARISONS]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key, verdict in (("passed", "pass"), ("failed", "fail"),
                         ("error", "fail")):
        for rep in terminalreporter.stats.get(key, []):
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                              getattr(rep, "nodeid", ""))
            if not match:
                continue
            num = int(match.group(1))
            if verdict == "fail" or num not in outcomes:
                outcomes[num] = verdict
    if outcomes:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for num in sorted(outcomes):
            terminalreporter.write_line(f"  criterion {num:2d}: {outcomes[num]}")
    made = config.stash.get(COMPARISONS, None)
    if made is not None:
        terminalreporter.write_line("")
        terminalreporter.write_line("route oracles, distinct posets compared:")
        for name in ORACLES:
            terminalreporter.write_line(f"  {name}: {len(made.outcomes[name])}")
