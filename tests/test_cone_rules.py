"""The two cone rules against the routes they replaced.

Suprema used to come from scanning a cone for its least element, the
relative pseudocomplement from scanning every candidate, composite
cone terms from chains of lower and upper cones, and the meets of the
orthomodular-poset identity from De Morgan chains through joins.  Those
routes are kept here as oracles.  Every lookup must give the same element
or the same None, and every report, witness included, and every operator
table must come out the same.

Cone distributivity used to take two closures per triple, and the
pseudo-orthomodular identity one closure per pair; the pair table and
the closure memo replaced them, and those walks are oracles here too:
both forms must meet the same first violation, or none.

The distributive and boolean reports of 2^6 take about ten seconds on
both routes together, and the closure walk about four, so those
comparisons run with the opt-in ``exhaustive`` tier.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from test_completion import crown

from posetkit import checks, corpus
from posetkit.build import generate_small, greechie_to_omp
from posetkit.checks import PRECONDITION_ERRORS, PROPERTIES, CheckContext
from posetkit.completion import check_join_meet_density, complete
from posetkit.errors import (
    MissingBounds,
    MissingInvolution,
    NoRelativePseudocomplement,
    NotComplemented,
)
from posetkit.formats import parse_greechie
from posetkit.poset import FinitePoset, bits, build_poset, is_complementation, lattice_violation
from posetkit.report import CheckReport
from posetkit.residuation import (
    KINDS,
    OperatorPair,
    operator_pair,
    pseudocomplement_table,
    relative_pseudocomplement,
)

# -- the replaced routes ------------------------------------------------------


def scan_least(poset, subset):
    """Least element of a subset, if it has one."""
    for i in bits(subset):
        if subset & ~poset.up[i] == 0:
            return i
    return None


def scan_greatest(poset, subset):
    for i in bits(subset):
        if subset & ~poset.down[i] == 0:
            return i
    return None


def scan_join(poset, subset):
    return scan_least(poset, poset.upper_cone(subset))


def scan_meet(poset, subset):
    return scan_greatest(poset, poset.lower_cone(subset))


def scan_lattice_violation(poset):
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            if scan_least(poset, poset.up[i] & poset.up[j]) is None:
                return {"x": poset.names[i], "y": poset.names[j], "missing": "join"}
            if scan_greatest(poset, poset.down[i] & poset.down[j]) is None:
                return {"x": poset.names[i], "y": poset.names[j], "missing": "meet"}
    return None


def scan_relative_pseudocomplement(poset, x, y):
    target = poset.down[y]
    candidates = 0
    for c in range(poset.n):
        if poset.down[c] & poset.down[x] & ~target == 0:
            candidates |= 1 << c
    return scan_greatest(poset, candidates)


def scan_pseudocomplement_table(poset):
    table = [[0] * poset.n for _ in range(poset.n)]
    for x in range(poset.n):
        for y in range(poset.n):
            s = scan_relative_pseudocomplement(poset, x, y)
            if s is None:
                raise NoRelativePseudocomplement(
                    f"{poset.names[x]} * {poset.names[y]} does not exist")
            table[x][y] = s
    return table


def chain_distributive_violation(poset, dual):
    n = poset.n
    lo, up = ((poset.lower_cone, poset.upper_cone) if not dual
              else (poset.upper_cone, poset.lower_cone))
    for x in range(n):
        for y in range(n):
            outer = up((1 << x) | (1 << y))
            for z in range(n):
                zbit = 1 << z
                if lo(outer | zbit) != lo(up(lo((1 << x) | zbit) | lo((1 << y) | zbit))):
                    return (x, y, z)
    return None


def chain_pseudo_om_violation(poset, dual):
    inv = poset.inv
    lo, up = ((poset.lower_cone, poset.upper_cone) if not dual
              else (poset.upper_cone, poset.lower_cone))
    for x in range(poset.n):
        for y in range(poset.n):
            below = lo((1 << x) | (1 << y))
            if lo(up(below | (1 << inv[y])) | (1 << y)) != below:
                return (x, y)
    return None


def closure_distributive_violation(poset, dual):
    """Two closures per triple, every triple in order."""
    lo, up, below = ((poset.lower_cone, poset.upper_cone, poset.down) if not dual
                     else (poset.upper_cone, poset.lower_cone, poset.up))
    for x in range(poset.n):
        for y in range(poset.n):
            closed = lo(up((1 << x) | (1 << y)))
            for z in range(poset.n):
                if closed & below[z] != lo(up((below[x] | below[y]) & below[z])):
                    return (x, y, z)
    return None


def closure_pseudo_om_violation(poset, dual):
    """One closure per pair."""
    inv = poset.inv
    lo, up, below = ((poset.lower_cone, poset.upper_cone, poset.down) if not dual
                     else (poset.upper_cone, poset.lower_cone, poset.up))
    for x in range(poset.n):
        for y in range(poset.n):
            pair = below[x] & below[y]
            if lo(up(pair | (1 << inv[y]))) & below[y] != pair:
                return (x, y)
    return None


def chain_operator_pair(poset, kind):
    bottom, _ = poset.require_bounds()
    lo, up = poset.lower_cone, poset.upper_cone
    n = poset.n
    mul = [[0] * n for _ in range(n)]
    res = [[0] * n for _ in range(n)]
    if kind == "relpseudo":
        star = scan_pseudocomplement_table(poset)
        comp = tuple(star[x][bottom] for x in range(n))
        for x in range(n):
            for y in range(n):
                mul[x][y] = lo((1 << x) | (1 << y))
                res[x][y] = poset.down[star[x][y]]
    else:
        inv = poset.require_involution()
        comp = tuple(inv)
        for x in range(n):
            for y in range(n):
                pair = (1 << x) | (1 << y)
                if kind == "boolean":
                    mul[x][y] = lo(pair)
                    res[x][y] = lo(up((1 << inv[x]) | (1 << y)))
                else:
                    mul[x][y] = lo(up((1 << x) | (1 << inv[y])) | (1 << y))
                    res[x][y] = lo(up(lo(pair) | (1 << inv[x])))
    return OperatorPair(kind, tuple(map(tuple, mul)), tuple(map(tuple, res)), comp)


def chain_join_meet_density(poset, lattice):
    for mask in lattice.closed:
        below = poset.closure(mask)
        above = poset.full
        for j in bits(poset.upper_cone(mask)):
            above &= poset.down[j]
        if below != mask or above != mask:
            return CheckReport("join-meet-density", False,
                               witness={"closed-set": poset.names_of(mask)},
                               details="not recovered from embedded elements")
    return CheckReport("join-meet-density", True, details=f"{len(lattice)} closed sets")


def demorgan_orthomodular_poset(poset):
    """The orthomodular-poset check with every meet taken by De Morgan,
    x^y as the image of x' v y'."""
    comp = is_complementation(poset)
    if not comp.holds:
        raise NotComplemented(f"orthomodularity needs a complementation ({comp.details})")
    inv = poset.inv
    names = poset.names

    def join2(a, b):
        return poset.join_of((1 << a) | (1 << b))

    for x in range(poset.n):
        for y in range(poset.n):
            orthogonal = bool((poset.up[x] >> inv[y]) & 1)
            if orthogonal and join2(x, y) is None:
                return CheckReport("orthomodular-poset", False,
                                   witness={"x": names[x], "y": names[y]},
                                   details="orthogonal pair without a join")
            j = join2(inv[x], inv[y])
            if j is not None:
                meet_xy = inv[j]
                j = join2(meet_xy, inv[y])
                if j is not None:
                    outer = join2(inv[j], inv[y])
                    if outer is not None:
                        if inv[outer] != meet_xy:
                            return CheckReport(
                                "orthomodular-poset", False,
                                witness={"x": names[x], "y": names[y]},
                                details="((x^y) v y') ^ y differs from x^y")
                        continue
            if orthogonal:
                return CheckReport("orthomodular-poset", False,
                                   witness={"x": names[x], "y": names[y]},
                                   details="identity subterm undefined on an orthogonal pair")
    return CheckReport("orthomodular-poset", True)


# -- comparisons ----------------------------------------------------------------


def outcome(fn, *args):
    """The result, or the type and text of a precondition error."""
    try:
        return fn(*args)
    except (*PRECONDITION_ERRORS, NoRelativePseudocomplement) as exc:
        return type(exc), str(exc)


def probe_subsets(poset):
    """Every subset up to 7 elements; beyond that the empty set, the
    pairs, the principal sets and 200 seeded random subsets."""
    if poset.n <= 7:
        return range(poset.full + 1)
    rng = random.Random(poset.n)
    pairs = [(1 << i) | (1 << j) for i in range(poset.n) for j in range(i, poset.n)]
    return [0, *pairs, *poset.up, *poset.down,
            *(rng.getrandbits(poset.n) for _ in range(200))]


def assert_lookups_match(poset):
    for subset in probe_subsets(poset):
        assert poset.join_of(subset) == scan_join(poset, subset), subset
        assert poset.meet_of(subset) == scan_meet(poset, subset), subset
    assert lattice_violation(poset) == scan_lattice_violation(poset)
    for x in range(poset.n):
        for y in range(poset.n):
            assert (relative_pseudocomplement(poset, x, y)
                    == scan_relative_pseudocomplement(poset, x, y)), (x, y)
    assert (outcome(pseudocomplement_table, poset)
            == outcome(scan_pseudocomplement_table, poset))


REPORTS = ("distributive", "boolean", "pseudo-orthomodular", "orthomodular-poset")


def reports(poset, names):
    ctx = CheckContext(poset)
    return [outcome(PROPERTIES[name], ctx) for name in names]


def fresh(poset):
    """The same poset with no reports kept on it yet."""
    return FinitePoset(poset.names, poset.up, poset.inv)


def assert_same_as_oracle(poset, names=REPORTS):
    assert_lookups_match(poset)
    new = reports(fresh(poset), names)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FinitePoset, "join_of", scan_join)
        patch.setattr(FinitePoset, "meet_of", scan_meet)
        patch.setattr(checks, "_distributive_violation", chain_distributive_violation)
        patch.setattr(checks, "_pseudo_om_violation", chain_pseudo_om_violation)
        assert reports(fresh(poset), names) == new
    for kind in KINDS:
        assert outcome(operator_pair, poset, kind) == outcome(chain_operator_pair, poset, kind)
    lattice = outcome(complete, poset)
    if not isinstance(lattice, tuple):
        assert check_join_meet_density(poset, lattice) == chain_join_meet_density(poset, lattice)


FAMILIES = {
    **{f"ba{1 << k}": corpus.boolean_algebra(k) for k in range(1, 7)},
    **{f"crown{k}": crown(k) for k in range(3, 7)},
    **{f"mo{n}": corpus.mo(n) for n in (1, 2, 3, 5, 8)},
    **{f"chain{k}": corpus.chain(k) for k in (2, 3, 5, 9)},
}
SLOW = {"ba64": ("distributive", "boolean")}


@pytest.mark.parametrize("name", corpus.member_names())
def test_corpus_members_match_the_old_routes(name):
    assert_same_as_oracle(corpus.load(name))


@pytest.mark.parametrize("name", FAMILIES)
def test_families_match_the_old_routes(name):
    fast = tuple(check for check in REPORTS if check not in SLOW.get(name, ()))
    assert_same_as_oracle(FAMILIES[name], fast)


@pytest.mark.exhaustive
@pytest.mark.parametrize("name", SLOW)
def test_slow_family_reports_match_the_old_routes(name):
    assert_same_as_oracle(FAMILIES[name], SLOW[name])


def test_every_small_poset_matches_the_old_routes():
    posets = list(generate_small(7, "any", exhaustive=True))
    assert len(posets) == 44
    for poset in posets:
        assert_same_as_oracle(poset)


def test_population_matches_the_old_routes(population):
    assert len(population) == 204
    for row in population:
        assert_same_as_oracle(row["poset"])


def orthomodular_population():
    """The corpus, crowns S_3..S_6, 2^1..2^5, MO_1,2,3,5,8, every
    complemented poset up to 8 elements and seeded complemented and
    pseudo-orthomodular streams up to 12."""
    yield from map(corpus.load, corpus.member_names())
    yield from map(crown, range(3, 7))
    yield from map(corpus.boolean_algebra, range(1, 6))
    yield from map(corpus.mo, (1, 2, 3, 5, 8))
    yield from generate_small(8, "complemented", exhaustive=True)
    for constraint, seed in (("complemented", 3), ("pseudo_om", 4)):
        stream = generate_small(12, constraint, seed=seed)
        yield from (next(stream) for _ in range(300))


def test_orthomodular_poset_lookups_match_de_morgan():
    verdicts = {True: 0, False: 0, "undecided": 0}
    for poset in orthomodular_population():
        found = outcome(checks.is_orthomodular_poset, poset)
        assert found == outcome(demorgan_orthomodular_poset, poset), poset.names
        verdicts[found.holds if isinstance(found, CheckReport) else "undecided"] += 1
    # both verdicts and the missing complementation are all exercised
    assert all(verdicts.values()), verdicts


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


# -- the pair table and the closure memo against the walks ----------------------


def greechie_loop(k):
    """The pasting of k three-atom blocks in a loop of order k."""
    atoms = [f"s{i}" for i in range(k)] + [f"p{i}" for i in range(k)]
    blocks = "".join(f"block: s{(i - 1) % k} p{i} s{i}\n" for i in range(k))
    return greechie_to_omp(parse_greechie("atoms: " + " ".join(atoms) + "\n" + blocks))


def walk_families():
    """The corpus, crowns S_3..S_10, 2^1..2^5, MO_1..MO_16, chains,
    Greechie loops of order 4 to 6, and 600 seeded posets from each of
    the ``any`` and ``complemented`` streams up to 12 elements."""
    yield from map(corpus.load, corpus.member_names())
    yield from map(crown, range(3, 11))
    yield from map(corpus.boolean_algebra, range(1, 6))
    yield from map(corpus.mo, range(1, 17))
    yield from map(corpus.chain, (2, 3, 5, 9, 17))
    yield from map(greechie_loop, range(4, 7))
    for constraint, seed in (("any", 5), ("complemented", 6)):
        stream = generate_small(12, constraint, seed=seed)
        yield from (next(stream) for _ in range(600))


def walks_agree(posets):
    """Assert the same first violation from both routes, each form, and
    count the walks that passed and failed."""
    counts = {"pass": 0, "fail": 0}
    for poset in posets:
        walks = [(checks._distributive_violation, closure_distributive_violation)]
        if poset.inv is not None:
            walks.append((checks._pseudo_om_violation, closure_pseudo_om_violation))
        for new, old in walks:
            for dual in (False, True):
                found = new(poset, dual)
                assert found == old(poset, dual), (poset.names, new.__name__, dual)
                counts["pass" if found is None else "fail"] += 1
    return counts


def test_pair_table_and_closure_memo_match_the_walks():
    counts = walks_agree(walk_families())
    # both outcomes are common, so a walk that always passes or always
    # fails at its first triple would not go unseen
    assert min(counts.values()) > 500, counts


def test_pair_table_and_closure_memo_match_on_the_exhaustive_population(population):
    posets = [row["poset"] for row in population]
    posets += generate_small(7, "any", exhaustive=True)
    assert all(walks_agree(posets).values())


@pytest.mark.exhaustive
def test_pair_table_matches_the_walk_on_ba64():
    assert walks_agree([corpus.boolean_algebra(6)]) == {"pass": 4, "fail": 0}
