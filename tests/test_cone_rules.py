"""The registry of route oracles in ``oracles``; each entry and the
route it keeps as the oracle of a fast route:

- cone-scans: suprema, relative pseudocomplements and cone terms by scans.
- de-morgan: the meets of the orthomodular-poset identity by De Morgan.
- closure-walks: cone distributivity and pseudo-orthomodularity by closures.
- exchange: strong D-continuity and orthomodularity over all pairs.
- lattice-laws: distributivity and orthomodularity over join and meet tables.
- completion: the closed sets by every down-set, read element by element.
- generators: generators by element walks, orthogonal sets by full search.
- orthocomplete: on a lattice, the walk of every orthogonal subset.
- full-walks: distributivity and modularity by full triple walks.
- residuation-walks: the lifted star over all pairs, every column walked.
- law-route: residuation by the table route and the comparable-pair criterion.
- commutative-flag: the commutative flag read off the odot table.
- next-closure: the lectic order by Ganter's NextClosure.
- brute-force: the closed sets as the closures of all subsets.
- lattice-tables: joins as closures of unions, bdm tables composed by entry.

Every entry runs on every member of every family in ``families``: in
tier-1 up to its tier-1 bound, in the ``exhaustive`` tier past it up to
its limit.  Each comparison is made once a session.  The tests below
that name a poset or a family assert that the registry compares it in
tier-1; the others pin the counts and verdicts the comparisons saw.
"""

import random
from collections import Counter

import pytest
from families import FAMILIES, GROWING, crown, family, member
from hypothesis import given, settings, strategies as st
from oracles import (
    ORACLES,
    ORTHOGONALITY_REPORTS,
    TIERS,
    assert_compared_in_tier_1,
    assert_lookups_match,
    chain_operator_pair,
    compare_completion,
    kept_tables,
    members,
    outcome,
    reports,
    scan_join,
    scan_lattice_violation,
    scan_pseudocomplement_table,
    validated,
)

from posetkit import completion as completion_module, corpus
from posetkit import poset as poset_module
from posetkit.checks import PROPERTIES, CheckContext
from posetkit.completion import DMLattice, complete
from posetkit.errors import (
    InternalError,
    MissingBounds,
    MissingInvolution,
    NoRelativePseudocomplement,
    NotComplemented,
)
from posetkit.poset import build_poset, is_lattice
from posetkit.report import CheckReport
from posetkit.residuation import KINDS, operator_pair

# the families, built once a session in the setup of the first test that reads them
pytestmark = pytest.mark.usefixtures("built_families")

# -- the registry ---------------------------------------------------------------------

# distinct posets each entry compares over both tiers, no fewer than the
# comparisons listed in CHANGES.md, so a family that shrinks fails here
FLOOR = {
    "cone-scans": 1448, "de-morgan": 1451, "closure-walks": 1448, "exchange": 1452,
    "lattice-laws": 1450, "completion": 1453, "generators": 1452,
    "orthocomplete": 1406, "full-walks": 1450, "residuation-walks": 1450, "law-route": 1452,
    "commutative-flag": 1450, "next-closure": 1453, "brute-force": 464, "lattice-tables": 1443,
}


def compare_family(comparisons, oracle, family_name, tier):
    posets = members(oracle, tier, [family_name])
    if not posets:
        pytest.skip(f"{oracle} takes no member of {family_name} in the {tier} tier")
    comparisons.tally(oracle, posets)


@pytest.mark.parametrize("oracle, family_name", [(oracle, name) for oracle in ORACLES
                                                 for name in FAMILIES])
def test_route_matches_its_oracle(oracle, family_name, comparisons):
    compare_family(comparisons, oracle, family_name, "tier-1")


@pytest.mark.exhaustive
@pytest.mark.parametrize("oracle, family_name", [
    (oracle, name) for oracle, entry in ORACLES.items() if entry.limit > entry.tier1
    for name in GROWING])
def test_route_matches_its_oracle_past_tier_1(oracle, family_name, comparisons):
    compare_family(comparisons, oracle, family_name, "exhaustive")


def test_every_oracle_compares_at_least_its_floor():
    counts = {name: sum(len(members(name, tier)) for tier in TIERS) for name in ORACLES}
    assert set(FLOOR) == set(ORACLES)
    assert all(counts[name] >= FLOOR[name] for name in ORACLES), counts
    # the exhaustive tier runs on the growing families alone
    generated = [name for name in FAMILIES if name not in GROWING]
    assert not [name for name in ORACLES if members(name, "exhaustive", generated)]


@pytest.mark.exhaustive
@pytest.mark.parametrize("oracle, labels, expected", [
    ("closure-walks", ["ba64"], {"pass": 4}),
    # 2^7, its completion and the completions of S_7 and S_8 are distributive
    # and modular, and the crowns S_7 and S_8 are distributive posets
    ("full-walks", ["ba128", "crown7", "crown8"], {("distributive", True): 12,
                                                   ("modular", True): 4}),
    # both laws hold on 2^10, the completion of S_10
    ("law-route", ["crown10"], {("boolean", True): 1, ("pseudo_om", True): 1}),
])
def test_counts_past_tier_1(oracle, labels, expected, comparisons):
    assert comparisons.tally(oracle, map(member, labels)) == Counter(expected)


def tier1_tally(comparisons, oracle, extra=()):
    return comparisons.tally(oracle, [*members(oracle, "tier-1"), *extra])


# -- cone scans -------------------------------------------------------------------------


@pytest.mark.parametrize("name", corpus.member_names())
def test_corpus_members_match_the_old_routes(name):
    assert_compared_in_tier_1("cone-scans", [member(name)])


@pytest.mark.parametrize("name", ("ba2 ba4 ba8 ba16 ba32 ba64 crown3 crown4 crown5 crown6 "
                                  "mo1 mo2 mo3 mo5 mo8 chain2 chain3 chain5 chain9").split())
def test_families_match_the_old_routes(name):
    assert_compared_in_tier_1("cone-scans", [member(name)])


def test_every_small_poset_matches_the_old_routes():
    posets = family("small").values()
    assert len(posets) == 44
    assert_compared_in_tier_1("cone-scans", posets)


def test_population_matches_the_old_routes(population):
    assert len(population) == 204
    assert_compared_in_tier_1("cone-scans", [row["poset"] for row in population])


def test_orthomodular_poset_lookups_match_de_morgan(comparisons):
    verdicts = tier1_tally(comparisons, "de-morgan")
    # both verdicts and the missing complementation are all exercised
    assert min(verdicts[True], verdicts[False], verdicts["undecided"]), verdicts


def test_the_oracles_see_missing_suprema():
    fig1b = corpus.load("fig1b")
    assert scan_lattice_violation(fig1b) is not None
    assert scan_join(fig1b, fig1b.mask(["a", "c"])) is None
    with pytest.raises(NoRelativePseudocomplement):
        scan_pseudocomplement_table(corpus.load("diamond"))


@st.composite
def strict_orders(draw):
    """A poset on up to 7 points from random pairs i < j; bounds, an
    involution and connectedness are not asked for."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return build_poset(range(n), chosen)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(strict_orders())
def test_lookups_are_none_exactly_where_the_scans_are(poset):
    assert_lookups_match(poset)
    for kind in KINDS:
        found = outcome(operator_pair, poset, kind)
        assert found == outcome(chain_operator_pair, poset, kind)
        if poset.bottom is None or poset.top is None:
            assert found[0] is MissingBounds
        elif kind != "relpseudo":
            assert found[0] is MissingInvolution


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(strict_orders())
def test_completion_matches_the_replaced_routes_on_unbounded_posets(poset):
    """With no bottom the empty set is closed, and L(x) \\ {x} is empty at
    a minimal x: edge cases of the admission rules no family has."""
    compare_completion(poset)


# -- the pair table and the closure memo ----------------------------------------------


def test_pair_table_and_closure_memo_match_the_walks(comparisons):
    counts = tier1_tally(comparisons, "closure-walks")
    # both outcomes are common, so a walk that always passes or always
    # fails at its first triple would not go unseen; counted over distinct
    # posets, the rarer outcome comes 356 times
    assert min(counts["pass"], counts["fail"]) > 300, counts


def test_pair_table_and_closure_memo_match_on_the_exhaustive_population(population,
                                                                        comparisons):
    posets = [row["poset"] for row in population] + list(family("small").values())
    counts = comparisons.tally("closure-walks", posets)
    assert counts["pass"] and counts["fail"], counts


# -- the exchange scan -------------------------------------------------------------------


def test_exchange_scan_meets_the_first_pair_of_the_loops(comparisons):
    counts = tier1_tally(comparisons, "exchange")
    # both outcomes are common, so a scan that always passes or always
    # fails at its first pair would not go unseen
    assert min(counts["pass"], counts["fail"]) > 300, counts


def test_exchange_reports_match_the_loops(comparisons):
    verdicts = tier1_tally(comparisons, "exchange")
    # pass, fail and skip texts are all compared
    assert min(verdicts[True], verdicts[False], verdicts["undecided"]) > 100, verdicts


# -- the lattice laws ---------------------------------------------------------------------


def test_lattice_laws_match_the_table_walks(comparisons):
    verdicts = tier1_tally(comparisons, "lattice-laws")
    # pass, fail and skip texts are all compared
    assert min(verdicts[True], verdicts[False], verdicts["undecided"]) > 300, verdicts


def test_lattice_laws_match_the_table_walks_on_the_population(population, comparisons):
    assert len(population) == 204
    # every member of the population is a lattice, so nothing is undecided
    verdicts = comparisons.tally("lattice-laws", [row["poset"] for row in population])
    assert verdicts[True] and verdicts[False], verdicts


# -- generators, the orthogonality table and the completion ---------------------------


def test_generators_and_orthogonality_table_match_the_element_walks(comparisons):
    verdicts = tier1_tally(comparisons, "generators")
    # pass, fail and skip texts are all compared
    assert min(verdicts[True], verdicts[False], verdicts["undecided"]) > 100, verdicts


# the lower half of a chain is orthogonal, so the walk of orthocomplete would list
# its 2^(n/2) subsets; a chain is a lattice, so orthocomplete holds without it.
# These chains are in no family: the cubic walks of other entries take seconds on each
@pytest.mark.parametrize("n", (40, 60, 80))
def test_generators_match_the_element_walks_on_long_chains(n, comparisons):
    chain = corpus.chain(n)
    comparisons.compare("generators", chain)
    comparisons.compare("completion", chain)
    finch, orthocomplete = reports(chain, ORTHOGONALITY_REPORTS)
    assert finch[0] is NotComplemented
    assert orthocomplete == CheckReport("orthocomplete", True)


def test_generators_and_orthogonality_table_match_on_the_population(population, comparisons):
    verdicts = comparisons.tally("generators", [row["poset"] for row in population])
    assert verdicts[True] and verdicts[False], verdicts


def test_principal_closed_sets_are_read_through_the_embedding(population, comparisons):
    posets = [*members("generators", "tier-1"), *(row["poset"] for row in population)]
    comparisons.tally("generators", posets)
    assert sum(map(is_lattice, posets)) > 500


@pytest.mark.parametrize("k", range(3, 11))
def test_completion_matches_the_replaced_routes_on_crowns(k, comparisons):
    comparisons.compare("completion", member(f"crown{k}"))
    assert len(complete(member(f"crown{k}"))) == 1 << k


def test_orthocomplete_on_lattices_matches_the_walk(population, comparisons):
    """Every lattice of the families and the population gets the walk's
    report or precondition error."""
    verdicts = tier1_tally(comparisons, "orthocomplete",
                           [row["poset"] for row in population])
    # a finite lattice is complete, so none fails; the diamond has no involution
    assert verdicts[True] > 1000 and verdicts["undecided"] and not verdicts[False], verdicts


@pytest.mark.exhaustive
def test_generators_match_the_element_walks_on_crown10(comparisons):
    comparisons.compare("generators", member("crown10"))
    finch, orthocomplete = reports(member("crown10"), ORTHOGONALITY_REPORTS)
    assert finch.holds and not orthocomplete.holds


# -- the skipping walks and semimodularity ------------------------------------------------


def test_skipping_walks_match_the_full_walks(comparisons):
    counts = tier1_tally(comparisons, "full-walks")
    # each walk passes and fails often, so one that always did either would be seen
    assert min(counts[walk, holds] for walk in ("distributive", "modular")
               for holds in (True, False)) > 100, counts


def test_skipping_walks_match_the_full_walks_on_the_population(population, comparisons):
    counts = comparisons.tally("full-walks", [row["poset"] for row in population])
    assert all(counts[walk, holds] for walk in ("distributive", "modular")
               for holds in (True, False)), counts


# -- the transpose, the lift and the covers ---------------------------------------------


def walked_transpose(rows, width):
    """Row j marks the i whose row marks j, every cell read."""
    return tuple(sum(1 << i for i, row in enumerate(rows) if row >> j & 1)
                 for j in range(width))


def transpose_matrices():
    """Bit matrices of 0, 1, 2, 5, 40 and 128 rows by 0, 1, 2, 7, 33 and
    128 columns, empty, full and seeded at three densities."""
    rng = random.Random(20)
    for height in (0, 1, 2, 5, 40, 128):
        for width in (0, 1, 2, 7, 33, 128):
            full = (1 << width) - 1
            yield (0,) * height, width
            yield (full,) * height, width
            for density in (0.03, 0.3, 0.8):
                yield tuple(sum(1 << j for j in range(width) if rng.random() < density)
                            for _ in range(height)), width


def test_transpose_gives_the_walked_transpose():
    for rows, width in transpose_matrices():
        assert poset_module.transposed(rows, width) == walked_transpose(rows, width), (rows, width)


def test_down_rows_are_the_walked_transpose_and_building_transposes_nothing(monkeypatch):
    """The completions of a chain (dense up rows) and of MO_n (sparse
    ones): their down rows are the walked transpose, and ``complete()``
    itself makes no ``transposed`` call."""
    calls = []
    real = completion_module.transposed
    monkeypatch.setattr(completion_module, "transposed",
                        lambda rows, width: calls.append(width) or real(rows, width))
    chain, mo = complete(corpus.chain(17)), complete(corpus.mo(16))
    assert calls == []
    assert chain.down == walked_transpose(chain.up, len(chain))
    assert mo.down == walked_transpose(mo.up, len(mo))
    assert calls == [len(chain), len(mo)]


def test_a_missing_involution_image_is_an_internal_error():
    """The closed sets of S_4 without {0, a2, a3}, the image of the
    closed set {0, a0, a1}: the lift finds that image not closed."""
    poset = crown(4)
    missing = poset.mask(["0", "a2", "a3"])
    closed = [mask for mask in complete(poset).closed if mask != missing]
    with pytest.raises(InternalError, match="^involution image is not closed$"):
        DMLattice(poset, closed)


@pytest.mark.parametrize("k", range(3, 11))
def test_completion_covers_are_the_minimal_elements_of_the_up_rows_on_crowns(k):
    lattice = complete(crown(k))
    assert lattice.upper_covers == poset_module._upper_cover_rows(validated(lattice))
    # the completion is 2^k, whose Hasse diagram is the k-cube
    assert len(lattice.cover_pairs()) == k << (k - 1)


@pytest.mark.parametrize("k", (8, 9, 10))
def test_crown_completions_are_modular_on_covers(k):
    report = PROPERTIES["completion-modular"](CheckContext(crown(k)))
    assert report == CheckReport("completion-modular", True)


@pytest.mark.exhaustive
def test_crown12_completion_is_modular_on_covers():
    ctx = CheckContext(crown(12))
    assert len(ctx.dm) == 1 << 12
    assert PROPERTIES["completion-modular"](ctx).holds
    assert not kept_tables(ctx.dm)
