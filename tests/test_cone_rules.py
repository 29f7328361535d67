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

Strong D-continuity used to walk every pair of closed sets against the
involution images inv(U(X)), and lattice orthomodularity walked every
pair of a meet table for its exchange condition.  One scan over the
up-set rows replaced both; the two loops are oracles here, and must
meet the same first pair and give the same reports.

Lattice distributivity used to walk all triples of the join and meet
tables, on a lattice poset and on a completion; Birkhoff's criterion on
the irreducibles replaced it.  Lattice orthomodularity used to read the
same tables, and the orthomodular-poset identity its meets and joins
through ``meet_of`` and ``join_of``; index and principal lookups
replaced them.  Those walks and loops are oracles here: every report,
witness and precondition error must come out the same, and each form of
the criterion must fail exactly where the walks find a triple.

A completion used to read every element of each closed set: its up-set
rows ANDed the holders of each element, its involution took L(inv X),
and its names came from a scan for the maximal elements.  The
orthogonality rows of ``finch`` and ``orthocomplete`` were tested pair
by pair for every closed set, and Bron-Kerbosch searched every branch.
The generators and one orthogonality table per poset replaced them;
those routes are oracles here, and the rows, involution, names,
maximal orthogonal subsets (in order) and reports must come out the
same.

A completion used to be copied into a second poset that went through
the full validation of ``FinitePoset``, and its lifted involution was
walked for antitonicity up to 2000 closed sets.  It is now a poset built
with nothing checked; the full validation of its rows, its down rows
and the antitone walk of its involution are oracles on every completion
of the generator families and the population, and on the completions of
the crowns S_10 and S_12 in the ``exhaustive`` tier.

A completion used to find the generator, name, up row and involution
image of every closed set through ``maximal_of``, its holders and a
lower cone of inverted generators.  A principal ↓x is now read through
x; on every lattice of the generator families and the population the
completion must be the base renumbered, and the generators of the other
closed sets must be the scan's.

A completion used to grow its closed sets by intersecting the family
with every principal down-set in id order, and then walked each closed
set once for its generators, once for the holder transpose, once for
its name and up row and once for its involution image.  It now takes in
only the rows not already in the family, largest first, and walks each
closed set once; the bit matrix transpose cuts a dense matrix from one
string of digits.  The old routes are oracles on the generator families,
the population and the crowns S_3..S_10, and on S_12 in the
``exhaustive`` tier: closed sets, embedding, generators, names, up rows,
involution and the cap's error must come out the same, and both
transpose routes must give the walked transpose.

``orthocomplete`` used to walk every orthogonal subset for a join.  A
finite lattice is complete, so on a lattice it now holds outright; the
walk is the oracle on every lattice of the generator families and the
population.

Cone distributivity used to build its whole pair table and walk every
triple, a lattice's witness came from a walk over its join and meet
tables, and modularity walked every y against each x < z over the same
tables.  Modularity is now decided by
semimodularity on the cover rows, and the witness walks skip the
triples where the law holds outright; the three full walks are oracles
here and must give the same witness or None, semimodularity must agree
with the modular walk, and a completion's covers must be the minimal
elements of its up rows.

The distributive and boolean reports of 2^6 by the chain walks take
several seconds, and the closure walk about four, so those comparisons
run with the opt-in ``exhaustive`` tier.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st
from test_completion import crown, validated

from posetkit import checks, corpus
from posetkit import poset as poset_module
from posetkit.build import generate_small, greechie_to_omp, horizontal_sum
from posetkit.checks import PRECONDITION_ERRORS, PROPERTIES, CheckContext
from posetkit.completion import (
    DEFAULT_MAX_CLOSED_SETS,
    DMLattice,
    check_join_meet_density,
    complete,
)
from posetkit.errors import (
    InternalError,
    MissingBounds,
    MissingInvolution,
    NoRelativePseudocomplement,
    NotComplemented,
    PosetError,
    SizeLimitExceeded,
)
from posetkit.formats import parse_greechie
from posetkit.poset import (
    FinitePoset,
    bits,
    build_poset,
    is_antitone_involution,
    is_complementation,
    lattice_violation,
    maximal_orthogonal_subsets,
    orthogonal_subsets,
)
from posetkit.report import CheckReport
from posetkit.residuation import (
    KINDS,
    OperatorPair,
    operator_pair,
    _lattice_tables,
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


def closed_pair_sdc_violation(poset, lattice):
    """First closed X inside Y, X != Y, with Y ∩ inv(U(X)) = {0}, as
    index pair: every pair of closed sets in order."""
    bottom_mask = 1 << poset.bottom
    upper_images = [poset.inv_image(poset.upper_cone(mask)) for mask in lattice.closed]
    for i, x_mask in enumerate(lattice.closed):
        # one-line direction: valid outright in any complemented poset
        if x_mask & upper_images[i] != bottom_mask:
            raise InternalError("a complemented poset cannot fail the backward direction")
        for j, y_mask in enumerate(lattice.closed):
            if i == j or x_mask & ~y_mask:
                continue
            if y_mask & upper_images[i] == bottom_mask:
                return i, j
    return None


def closed_pair_strongly_d_continuous(poset, lattice=None):
    poset.require_complementation("strong D-continuity")
    if lattice is None:
        lattice = complete(poset)
    pair = closed_pair_sdc_violation(poset, lattice)
    if pair is None:
        return CheckReport("strongly-d-continuous", True,
                           details="infimum-is-zero read as L(C,B') = {0}")
    i, j = pair
    return CheckReport(
        "strongly-d-continuous", False,
        witness={"B": poset.names_of(lattice.closed[i]),
                 "C": poset.names_of(poset.upper_cone(lattice.closed[j]))},
        details="cone meets in 0 but some lower bound of C "
                "is not below some upper bound of B")


def meet_table_exchange_violation(lattice):
    """First x != y with x ^ y = x and x' ^ y = 0, every pair of ids in
    order, read off a meet table built here: the meet of x and y is the
    element whose down-set is sets[x] & sets[y], the closed sets of a
    completion or the down rows of a lattice poset."""
    sets = lattice.closed if isinstance(lattice, DMLattice) else lattice.down
    inv, bottom = lattice.inv, lattice.bottom
    index = {mask: k for k, mask in enumerate(sets)}
    meet = [[index[a & b] for b in sets] for a in sets]
    for x in range(len(sets)):
        for y in range(len(sets)):
            if x != y and meet[x][y] == x and meet[inv[x]][y] == bottom:
                return x, y
    return None


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
        patch.setattr(checks, "_distributive_poset_report", walked_distributive_poset)
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


def named_families(max_atoms):
    """The corpus, crowns S_3..S_10, 2^1..2^max_atoms, MO_1..MO_16,
    chains and Greechie loops of order 4 to 6."""
    yield from map(corpus.load, corpus.member_names())
    yield from map(crown, range(3, 11))
    yield from map(corpus.boolean_algebra, range(1, max_atoms + 1))
    yield from map(corpus.mo, range(1, 17))
    yield from map(corpus.chain, (2, 3, 5, 9, 17))
    yield from map(greechie_loop, range(4, 7))


def seeded_streams(streams, count):
    """``count`` seeded posets up to 12 elements from each stream."""
    for constraint, seed in streams:
        stream = generate_small(12, constraint, seed=seed)
        yield from (next(stream) for _ in range(count))


def walk_families():
    """The named families up to 2^5, and 600 seeded posets from each of
    the ``any`` and ``complemented`` streams."""
    yield from named_families(5)
    yield from seeded_streams((("any", 5), ("complemented", 6)), 600)


def complemented(poset):
    found = outcome(is_complementation, poset)
    return isinstance(found, CheckReport) and found.holds


def walks_agree(posets):
    """Assert the same first violation from both routes, each form, and
    count the walks that passed and failed.  The pseudo-orthomodular walk
    skips pairs that a complementation decides, so it is compared on
    complemented posets, the only ones its check runs on."""
    counts = {"pass": 0, "fail": 0}
    for poset in posets:
        walks = [(checks._distributive_violation, closure_distributive_violation)]
        if complemented(poset):
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


# -- the exchange scan against the closed-pair and meet-table loops -------------


EXCHANGE_REPORTS = ("orthomodular-lattice", "strongly-d-continuous", "completion-orthomodular")


def exchange_families():
    """The named families up to 2^6, and 300 seeded posets from each of
    the ``any``, ``complemented`` and ``pseudo_om`` streams."""
    yield from named_families(6)
    yield from seeded_streams((("any", 7), ("complemented", 8), ("pseudo_om", 9)), 300)


def exchange_pairs(poset):
    """(found, oracle) first pairs of every exchange scan the poset has:
    strong D-continuity, the completion, and the poset as a lattice."""
    pairs = []
    lattice = outcome(complete, poset)
    if complemented(poset):
        pairs.append((checks._exchange_violation(lattice),
                      closed_pair_sdc_violation(poset, lattice)))
    lattices = []
    if not isinstance(lattice, tuple) and lattice.inv is not None:
        lattices.append(lattice)
    if poset.inv is not None and lattice_violation(poset) is None:
        lattices.append(poset)
    for target in lattices:
        pairs.append((checks._exchange_violation(target), meet_table_exchange_violation(target)))
    return pairs


def test_exchange_scan_meets_the_first_pair_of_the_loops():
    counts = {"pass": 0, "fail": 0}
    for poset in exchange_families():
        for found, oracle in exchange_pairs(poset):
            assert found == oracle, poset.names
            counts["pass" if found is None else "fail"] += 1
    # both outcomes are common, so a scan that always passes or always
    # fails at its first pair would not go unseen
    assert min(counts.values()) > 300, counts


def test_exchange_reports_match_the_loops():
    verdicts = {True: 0, False: 0, "undecided": 0}
    for poset in exchange_families():
        new = reports(fresh(poset), EXCHANGE_REPORTS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checks, "is_strongly_d_continuous", closed_pair_strongly_d_continuous)
            patch.setattr(checks, "_exchange_violation", meet_table_exchange_violation)
            assert reports(fresh(poset), EXCHANGE_REPORTS) == new, poset.names
        for found in new:
            verdicts[found.holds if isinstance(found, CheckReport) else "undecided"] += 1
    # pass, fail and skip texts are all compared
    assert min(verdicts.values()) > 100, verdicts


# -- the lattice laws against the table walks ----------------------------------


def table_distributive_violation(poset, dual):
    """The cone identities over all n³ triples, y < x only left out,
    with the pair table built in full and every cone worked out."""
    lo, up, below = ((poset.lower_cone, poset.upper_cone, poset.down) if not dual
                     else (poset.upper_cone, poset.lower_cone, poset.up))
    n = poset.n
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for z in range(a, n):
            table[a][z] = table[z][a] = up(below[a] & below[z])
    lower = {}
    for x in range(n):
        for y in range(x, n):
            closed = lo(up((1 << x) | (1 << y)))
            for z, mask in enumerate(map(int.__and__, table[x], table[y])):
                rhs = lower.get(mask)
                if rhs is None:
                    rhs = lower[mask] = lo(mask)
                if closed & below[z] != rhs:
                    return (x, y, z)
    return None


def tables_distributive_violation(tables, dual):
    """The lattice forms of the cone identities, (x v y) ^ z against
    (x ^ z) v (y ^ z) and dually, over every triple of the (join, meet)
    tables of :func:`_lattice_tables`."""
    join, meet = tables if not dual else tables[::-1]
    size = len(meet)
    for x in range(size):
        for y in range(size):
            lhs = meet[join[x][y]]
            for z in range(size):
                if lhs[z] != join[meet[x][z]][meet[y][z]]:
                    return (x, y, z)
    return None


def tables_modularity_violation(tables, names):
    """First x <= z, x != z, and y with x v (y ^ z) != (x v y) ^ z over
    the (join, meet) tables of :func:`_lattice_tables`, every y visited."""
    join, meet = tables
    size = len(meet)
    for x in range(size):
        for z in range(size):
            if x == z or meet[x][z] != x:
                continue
            for y in range(size):
                if join[x][meet[y][z]] != meet[join[x][y]][z]:
                    return {"x": names[x], "y": names[y], "z": names[z]}
    return None


def walked_distributive_poset(poset):
    """Cone distributivity by the two full pair-table walks, lattice or not."""
    return checks._distributive_report(table_distributive_violation(poset, dual=False),
                                       table_distributive_violation(poset, dual=True),
                                       poset.names.__getitem__)


def walked_distributive_lattice(lattice):
    """Lattice distributivity by the two first-triple walks over the
    join and meet tables, a completion's through ``validated``."""
    poset = validated(lattice) if isinstance(lattice, DMLattice) else lattice
    tables = _lattice_tables(poset)
    return checks._distributive_report(tables_distributive_violation(tables, dual=False),
                                       tables_distributive_violation(tables, dual=True),
                                       poset.names.__getitem__)


def table_orthomodular_lattice(lattice):
    """Lattice orthomodularity with the complement guard and the identity
    walked over the join and meet tables, a completion's through
    ``validated``."""
    if isinstance(lattice, DMLattice):
        if lattice.inv is None:
            raise MissingInvolution("completion carries no involution")
        inv, bottom, top = lattice.inv, lattice.bottom, lattice.top
        flat = validated(lattice)
        (join, meet), names = _lattice_tables(flat), flat.names
    else:
        if lattice.inv is not None:
            anti = is_antitone_involution(lattice)
            if not anti.holds:
                raise NotComplemented("involution is not antitone: " + anti.details)
        (join, meet), names = _lattice_tables(lattice), lattice.names
        inv = lattice.require_involution()
        bottom, top = lattice.require_bounds()
    size = len(meet)
    for k in range(size):
        if meet[k][inv[k]] != bottom or join[k][inv[k]] != top:
            raise NotComplemented(f"{names[k]} meets or joins its image improperly")
    identity = None
    for x in range(size):
        if identity:
            break
        for y in range(size):
            top_xy = join[x][y]
            if join[meet[top_xy][inv[y]]][y] != top_xy:
                identity = (x, y)
                break
    exchange = checks._exchange_violation(lattice)
    if (identity is None) != (exchange is None):
        raise InternalError("orthomodular identity and exchange condition must agree")
    if identity is None:
        return CheckReport("orthomodular-lattice", True)
    x, y = identity
    return CheckReport("orthomodular-lattice", False,
                       witness={"x": names[x], "y": names[y]},
                       details="((x v y) ^ y') v y differs from x v y")


def suprema_orthomodular_poset(poset):
    """The orthomodular-poset check with every meet and join taken by
    ``meet_of`` and ``join_of`` on a two-element mask."""
    inv = poset.require_complementation("orthomodularity")

    def fail(x, y, details):
        return CheckReport("orthomodular-poset", False,
                           witness={"x": poset.names[x], "y": poset.names[y]},
                           details=details)

    for x in range(poset.n):
        for y in range(poset.n):
            pair = (1 << x) | (1 << y)
            orthogonal = bool((poset.up[x] >> inv[y]) & 1)
            if orthogonal and poset.join_of(pair) is None:
                return fail(x, y, "orthogonal pair without a join")
            meet_xy = poset.meet_of(pair)
            if meet_xy is not None:
                j = poset.join_of((1 << meet_xy) | (1 << inv[y]))
                if j is not None:
                    outer = poset.meet_of((1 << j) | (1 << y))
                    if outer is not None:
                        if outer != meet_xy:
                            return fail(x, y, "((x^y) v y') ^ y differs from x^y")
                        continue
            if orthogonal:
                return fail(x, y, "identity subterm undefined on an orthogonal pair")
    return CheckReport("orthomodular-poset", True)


LATTICE_REPORTS = ("distributive", "boolean", "orthomodular-poset", "orthomodular-lattice",
                   "strongly-d-continuous", "completion-orthomodular",
                   "completion-distributive")


def lattice_law_families():
    """The corpus, crowns S_3..S_8, 2^1..2^6, MO_1..MO_16, chains,
    Greechie loops of order 4 to 6, and 300 seeded posets from each of
    the ``any``, ``complemented`` and ``pseudo_om`` streams."""
    yield from map(corpus.load, corpus.member_names())
    yield from map(crown, range(3, 9))
    yield from map(corpus.boolean_algebra, range(1, 7))
    yield from map(corpus.mo, range(1, 17))
    yield from map(corpus.chain, (2, 3, 5, 9, 17))
    yield from map(greechie_loop, range(4, 7))
    yield from seeded_streams((("any", 10), ("complemented", 11), ("pseudo_om", 12)), 300)


def assert_each_criterion_form_matches(poset, walked):
    """Each form of Birkhoff's criterion fails exactly where the walks
    found a triple: on the poset when it is a lattice, and on its
    completion.  ``walked`` maps report names to the walks' reports."""
    lattices = []
    if lattice_violation(poset) is None:
        lattices.append((poset.down, poset.up, walked["distributive"]))
    lattice = outcome(complete, poset)
    if isinstance(lattice, DMLattice):
        cones = [poset.upper_cone(mask) for mask in lattice.closed]
        lattices.append((lattice.closed, cones, walked["completion-distributive"]))
    for sets, cones, report in lattices:
        for dual in (False, True):
            assert checks._irreducible_not_prime(poset, sets, cones, dual) != report.holds


def assert_lattice_laws_match(posets):
    """The same reports, witnesses and precondition errors by the
    criteria and lookups as by the table walks; returns the count of
    each verdict."""
    verdicts = {True: 0, False: 0, "undecided": 0}
    for poset in posets:
        new = reports(fresh(poset), LATTICE_REPORTS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checks, "_distributive_poset_report", walked_distributive_poset)
            patch.setattr(checks, "is_distributive_lattice", walked_distributive_lattice)
            patch.setattr(checks, "is_orthomodular_lattice", table_orthomodular_lattice)
            patch.setattr(checks, "is_orthomodular_poset", suprema_orthomodular_poset)
            walked = reports(fresh(poset), LATTICE_REPORTS)
        assert walked == new, poset.names
        assert_each_criterion_form_matches(poset, dict(zip(LATTICE_REPORTS, walked)))
        for found in new:
            verdicts[found.holds if isinstance(found, CheckReport) else "undecided"] += 1
    return verdicts


def test_lattice_laws_match_the_table_walks():
    verdicts = assert_lattice_laws_match(lattice_law_families())
    # pass, fail and skip texts are all compared
    assert min(verdicts.values()) > 300, verdicts


def test_lattice_laws_match_the_table_walks_on_the_population(population):
    assert len(population) == 204
    # every member of the population is a lattice, so nothing is undecided
    verdicts = assert_lattice_laws_match(row["poset"] for row in population)
    assert verdicts[True] and verdicts[False], verdicts


# -- generators and the orthogonality table against the element walks ---------


def scan_maximal(poset, subset):
    """The maximal elements of a subset, tested one by one through bits()."""
    out = 0
    for i in bits(subset):
        if subset & poset.up[i] == 1 << i:
            out |= 1 << i
    return out


def element_up_rows(lattice):
    """Row i is the AND of the holders of every element of closed[i]."""
    holders = [0] * lattice.base.n
    for k, mask in enumerate(lattice.closed):
        for e in bits(mask):
            holders[e] |= 1 << k
    rows = []
    for mask in lattice.closed:
        row = (1 << len(lattice)) - 1
        for e in bits(mask):
            row &= holders[e]
        rows.append(row)
    return tuple(rows)


def element_images(lattice):
    """The induced involution as L(inv X) over all of X."""
    base = lattice.base
    return tuple(lattice.index[base.lower_cone(base.inv_image(mask))]
                 for mask in lattice.closed)


def closure_over_all_rows(poset, max_closed_sets=DEFAULT_MAX_CLOSED_SETS):
    """The closed sets in lectic order, grown from {P} by intersecting
    every member with every principal down-set in id order, the cap
    checked at each new set."""
    cap = max(max_closed_sets, 1)
    family = {poset.full}
    for row in poset.down:
        for mask in list(family):
            mask &= row
            if mask not in family:
                family.add(mask)
                if len(family) > cap:
                    raise SizeLimitExceeded(
                        f"more than {max_closed_sets} closed sets; raise max_closed_sets")
    width = f"0{poset.n}b"
    return sorted(family, key=lambda mask: format(mask, width)[::-1])


def walked_transpose(rows, width):
    """Row j marks the i whose row marks j, every cell read."""
    return tuple(sum(1 << i for i, row in enumerate(rows) if row >> j & 1)
                 for j in range(width))


def walked_completion(poset, max_closed_sets=DEFAULT_MAX_CLOSED_SETS):
    """(closed, embed, generators, names, up rows, involution) of the
    completion by the replaced routes: the closure over all rows, then
    the scan ``maximal_of`` made for the generators of each closed set
    that is not principal, the holder walk for its name and up row, and
    L(inv max X) for its involution image; or the error's type and
    text."""
    try:
        closed = closure_over_all_rows(poset, max_closed_sets)
    except SizeLimitExceeded as exc:
        return type(exc), str(exc)
    index = {mask: k for k, mask in enumerate(closed)}
    embed = tuple(index[row] for row in poset.down)
    point = {k: x for x, k in enumerate(embed)}
    generators = tuple(1 << point[k] if k in point else scan_maximal(poset, mask)
                       for k, mask in enumerate(closed))
    holders = [0] * poset.n
    for k, mask in enumerate(closed):
        for e in bits(mask):
            holders[e] |= 1 << k
    names, rows = [], []
    for k, gens in enumerate(generators):
        if k in point:
            names.append(poset.names[point[k]])
            rows.append(holders[point[k]])
            continue
        row = (1 << len(closed)) - 1
        for e in bits(gens):
            row &= holders[e]
        names.append("∨".join(poset.names_of(gens)) or "{}")
        rows.append(row)
    inv = None
    if poset.inv is not None and is_antitone_involution(poset).holds:
        inv = tuple(embed[poset.inv[point[k]]] if k in point
                    else index[poset.lower_cone(poset.inv_image(gens))]
                    for k, gens in enumerate(generators))
    if len(set(names)) != len(names):
        return PosetError, "duplicate element names"
    return tuple(closed), embed, generators, tuple(names), tuple(rows), inv


def completion_parts(poset, max_closed_sets=DEFAULT_MAX_CLOSED_SETS):
    """What :func:`walked_completion` gives, read off ``complete()``."""
    try:
        lattice = complete(fresh(poset), max_closed_sets)
    except (SizeLimitExceeded, PosetError) as exc:
        return type(exc), str(exc)
    return (lattice.closed, lattice.embed, lattice.generators, lattice.names,
            lattice.up, lattice.inv)


def scanned_names(lattice):
    names = lattice.base.names
    return tuple("∨".join(names[i] for i in bits(scan_maximal(lattice.base, mask))) or "{}"
                 for mask in lattice.closed)


def pairwise_orthogonality_rows(poset, universe):
    """Row a marks the members b != a of ``universe`` with a <= b' and
    b <= a', every pair tested."""
    inv = poset.require_involution()
    members = list(bits(universe))
    rows = {}
    for a in members:
        row = 0
        for b in members:
            if a != b and (poset.up[a] >> inv[b]) & 1 and (poset.up[b] >> inv[a]) & 1:
                row |= 1 << b
        rows[a] = row
    return rows


def full_bron_kerbosch(poset, universe):
    """The maximal orthogonal subsets by Bron-Kerbosch on pairwise rows,
    with no branch cut."""
    compat = pairwise_orthogonality_rows(poset, universe)

    def expand(chosen, candidates, excluded):
        if candidates == 0 and excluded == 0:
            yield chosen
            return
        for v in bits(candidates):
            yield from expand(chosen | 1 << v, candidates & compat[v], excluded & compat[v])
            candidates ^= 1 << v
            excluded |= 1 << v

    yield from expand(0, universe, 0)


def assert_rows_pass_full_validation(lattice):
    """The completion's rows, built with nothing checked, pass the full
    validation of ``FinitePoset``; its down rows and bounds are the lazy
    and direct ones, and its lifted involution, not walked when it is
    built, is antitone."""
    flat = validated(lattice)
    assert flat.down == lattice.down
    assert (flat.bottom, flat.top) == (lattice.bottom, lattice.top)
    if lattice.inv is not None:
        assert is_antitone_involution(flat).holds


ORTHOGONALITY_REPORTS = ("finch", "orthocomplete")


def assert_generators_match(poset, names=ORTHOGONALITY_REPORTS):
    """The completion read through generators equals the one read through
    every element; the orthogonality table and the cut search give the
    same maximal orthogonal subsets of each closed set, in the same order,
    and the same reports.  Returns the reports."""
    lattice = outcome(complete, poset)
    assert completion_parts(poset) == walked_completion(poset), poset.names
    if isinstance(lattice, DMLattice):
        rows = element_up_rows(lattice)
        assert lattice.generators == tuple(scan_maximal(poset, mask)
                                           for mask in lattice.closed)
        assert lattice.up == rows
        if lattice.inv is not None:
            assert lattice.inv == element_images(lattice)
        else:
            assert outcome(is_antitone_involution, poset) != CheckReport(
                "antitone-involution", True)
        assert lattice.names == scanned_names(lattice)
        assert lattice.down == tuple(sum(1 << j for j, row in enumerate(rows) if row >> i & 1)
                                     for i in range(len(rows)))
        assert_rows_pass_full_validation(lattice)
    if poset.inv is not None:
        assert dict(enumerate(poset.perp)) == pairwise_orthogonality_rows(poset, poset.full)
    if complemented(poset):
        # the closed sets finch reads; a long chain's would take the full search 2^(n/2) steps
        for mask in getattr(lattice, "closed", ()):
            assert (list(maximal_orthogonal_subsets(poset, mask))
                    == list(full_bron_kerbosch(poset, mask))), mask
    new = reports(fresh(poset), names)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset_module, "_orthogonality_rows", pairwise_orthogonality_rows)
        patch.setattr(checks, "maximal_orthogonal_subsets", full_bron_kerbosch)
        assert reports(fresh(poset), names) == new, poset.names
    return new


def hsums(rename):
    """Horizontal sums of 2 to 4 crowns S_4, of 2 and 3 copies of 2^3, and
    of fig1b with MO_2 and 2^2."""
    for count in (2, 3, 4):
        yield horizontal_sum([rename(crown(4), f"c{i}") for i in range(count)])
    for count in (2, 3):
        yield horizontal_sum([rename(corpus.boolean_algebra(3), f"b{i}")
                              for i in range(count)])
    yield horizontal_sum([corpus.load("fig1b"), rename(corpus.mo(2), "m"),
                          corpus.boolean_algebra(2, ("g", "g'"))])


def generator_families(rename):
    """The corpus, crowns S_3..S_8, 2^1..2^7, MO_1..MO_16, chains up to 17,
    horizontal sums, Greechie loops of order 4 to 6, and 300 seeded posets
    from each of the ``any``, ``complemented`` and ``pseudo_om`` streams."""
    yield from map(corpus.load, corpus.member_names())
    yield from map(crown, range(3, 9))
    yield from map(corpus.boolean_algebra, range(1, 8))
    yield from map(corpus.mo, range(1, 17))
    yield from map(corpus.chain, (2, 3, 5, 9, 17))
    yield from hsums(rename)
    yield from map(greechie_loop, range(4, 7))
    yield from seeded_streams((("any", 13), ("complemented", 14), ("pseudo_om", 15)), 300)


# the lower half of a chain is orthogonal, so the walk of orthocomplete would list
# its 2^(n/2) subsets; a chain is a lattice, so orthocomplete holds without it
LONG_CHAINS = (40, 60, 80)


def count_verdicts(found_reports, verdicts):
    for found in found_reports:
        verdicts[found.holds if isinstance(found, CheckReport) else "undecided"] += 1


def test_generators_and_orthogonality_table_match_the_element_walks(prefixed):
    verdicts = {True: 0, False: 0, "undecided": 0}
    for poset in generator_families(prefixed):
        count_verdicts(assert_generators_match(poset), verdicts)
    # pass, fail and skip texts are all compared
    assert min(verdicts.values()) > 100, verdicts


@pytest.mark.parametrize("n", LONG_CHAINS)
def test_generators_match_the_element_walks_on_long_chains(n):
    finch, orthocomplete = assert_generators_match(corpus.chain(n))
    assert finch[0] is NotComplemented
    assert orthocomplete == CheckReport("orthocomplete", True)


def test_generators_and_orthogonality_table_match_on_the_population(population):
    verdicts = {True: 0, False: 0, "undecided": 0}
    for row in population:
        count_verdicts(assert_generators_match(row["poset"]), verdicts)
    assert verdicts[True] and verdicts[False], verdicts


def assert_principal_reading(poset):
    """A completion reads each principal closed set through its point:
    the generator of closed[embed[x]] is x alone, and every other closed
    set's generators are the scan's.  On a lattice, where every closed
    set is principal, the names, up rows and involution are the base's
    renumbered by closed[embed[x]] = down[x]."""
    lattice = outcome(complete, poset)
    if not isinstance(lattice, DMLattice):
        return
    embed = lattice.embed
    point = {k: x for x, k in enumerate(embed)}
    assert lattice.generators == tuple(
        1 << point[k] if k in point else scan_maximal(poset, mask)
        for k, mask in enumerate(lattice.closed))
    if lattice_violation(poset) is not None:
        return
    assert sorted(embed) == list(range(len(lattice)))
    for x in range(poset.n):
        k = embed[x]
        assert lattice.names[k] == poset.names[x]
        assert lattice.up[k] == sum(1 << embed[y] for y in bits(poset.up[x]))
        if lattice.inv is not None:
            assert lattice.inv[k] == embed[poset.inv[x]]


def test_principal_closed_sets_are_read_through_the_embedding(prefixed, population):
    lattices = 0
    for poset in [*generator_families(prefixed), *(row["poset"] for row in population)]:
        assert_principal_reading(poset)
        lattices += lattice_violation(poset) is None
    assert lattices > 500, lattices


def assert_completion_matches_the_replaced_routes(poset, count):
    """The same completion as the replaced routes, of ``count`` closed
    sets, under a cap of ``count`` too; and the same error under a cap
    of ``count - 1``."""
    parts = completion_parts(poset)
    assert parts == walked_completion(poset) and len(parts[0]) == count
    assert completion_parts(poset, count) == parts
    refused = (SizeLimitExceeded, f"more than {count - 1} closed sets; raise max_closed_sets")
    assert completion_parts(poset, count - 1) == walked_completion(poset, count - 1) == refused


@pytest.mark.parametrize("k", range(3, 11))
def test_completion_matches_the_replaced_routes_on_crowns(k):
    assert_completion_matches_the_replaced_routes(crown(k), 1 << k)


@pytest.mark.exhaustive
def test_completion_matches_the_replaced_routes_on_crown12():
    assert_completion_matches_the_replaced_routes(crown(12), 1 << 12)


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


@contextlib.contextmanager
def transpose_routes():
    """Record, in order, the route each call of ``transposed`` takes;
    yields that list and the unpatched routes by name."""
    taken = []
    real = {name: getattr(poset_module, f"_transposed_by_{name}") for name in ("digits", "bits")}
    with pytest.MonkeyPatch.context() as patch:
        for name in real:
            patch.setattr(poset_module, f"_transposed_by_{name}",
                          lambda rows, width, name=name: taken.append(name) or real[name](rows, width))
        yield taken, real


def test_both_transpose_routes_give_the_walked_transpose():
    with transpose_routes() as (taken, real):
        for rows, width in transpose_matrices():
            expected = walked_transpose(rows, width)
            assert poset_module.transposed(rows, width) == expected, (rows, width)
            assert real["digits"](rows, width) == expected, (rows, width)
            assert real["bits"](rows, width) == expected, (rows, width)
    # the choice sends many of these matrices each way
    assert min(taken.count("digits"), taken.count("bits")) >= 10, taken


def test_transpose_cuts_digits_only_past_its_cost_line():
    """The walk takes a matrix of 3·(rows + width) + rows·width/40 set
    bits, and the digits take one more."""
    for height, width in ((1, 1), (16, 16), (256, 16), (16, 256), (128, 128)):
        line = 3 * (height + width) + height * width // 40
        for extra, route in ((0, "bits"), (1, "digits")):
            cells = [(i, j) for i in range(height) for j in range(width)][:line + extra]
            rows = [0] * height
            for i, j in cells:
                rows[i] |= 1 << j
            if len(cells) < line + extra:
                continue  # too few cells to reach the line
            with transpose_routes() as (taken, _):
                poset_module.transposed(rows, width)
            assert taken == [route], (height, width, extra)


def test_holder_transpose_takes_each_route():
    """A chain's closed sets are dense and cut from digits; those of MO_n
    are sparse and walked."""
    with transpose_routes() as (taken, _):
        complete(corpus.chain(17))
        complete(corpus.mo(16))
    assert taken == ["digits", "bits"]


def test_a_missing_involution_image_is_an_internal_error():
    """The closed sets of S_4 without {0, a2, a3}, the image of the
    closed set {0, a0, a1}: the lift finds that image not closed."""
    poset = crown(4)
    missing = poset.mask(["0", "a2", "a3"])
    closed = [mask for mask in complete(poset).closed if mask != missing]
    with pytest.raises(InternalError, match="^involution image is not closed$"):
        DMLattice(poset, closed)


def walked_orthocomplete(ctx):
    """Orthocompleteness by walking every orthogonal subset for a join,
    lattice or not."""
    poset = ctx.poset
    bottom, _ = poset.require_bounds()
    for subset in orthogonal_subsets(poset, poset.full & ~(1 << bottom)):
        if poset.join_of(subset) is None:
            return CheckReport("orthocomplete", False,
                               witness={"subset": poset.names_of(subset)},
                               details="orthogonal subset without a join")
    return CheckReport("orthocomplete", True)


def test_orthocomplete_on_lattices_matches_the_walk(prefixed, population):
    """Every lattice of the generator families and the population gets
    the walk's report or precondition error."""
    verdicts = {True: 0, False: 0, "undecided": 0}
    posets = [*generator_families(prefixed), *(row["poset"] for row in population)]
    for poset in posets:
        if lattice_violation(poset) is not None:
            continue
        new = reports(fresh(poset), ("orthocomplete",))
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(PROPERTIES, "orthocomplete", walked_orthocomplete)
            assert reports(fresh(poset), ("orthocomplete",)) == new, poset.names
        count_verdicts(new, verdicts)
    # a finite lattice is complete, so none fails; the diamond has no involution
    assert verdicts[True] > 1000 and verdicts["undecided"] and not verdicts[False], verdicts


@pytest.mark.exhaustive
def test_generators_match_the_element_walks_on_crown10():
    finch, orthocomplete = assert_generators_match(crown(10))
    assert finch.holds and not orthocomplete.holds


@pytest.mark.exhaustive
@pytest.mark.parametrize("k", (10, 12))
def test_completion_rows_pass_full_validation_on_large_crowns(k):
    lattice = complete(crown(k))
    assert len(lattice) == 1 << k
    assert_rows_pass_full_validation(lattice)


# -- the skipping walks and semimodularity against the full walks --------------


def lattices_of(poset):
    """The poset, and its completion when it has one within the cap."""
    lattice = outcome(complete, poset)
    return [poset, lattice] if isinstance(lattice, DMLattice) else [poset]


def assert_walks_match_the_full_walks(target, verdicts):
    """The distributivity walk gives the full pair-table walk's triple or
    None, each form; on a lattice, also the lattice-table walk's, and the
    modularity walk the lattice-table walk's witness or None, which
    semimodularity must match.  A completion is compared with its
    ``validated`` copy, whose covers are the minimal elements of its up
    rows.  ``verdicts`` counts the passing and failing walks."""
    flat = validated(target) if isinstance(target, DMLattice) else target
    is_lattice = isinstance(target, DMLattice) or lattice_violation(target) is None
    tables = _lattice_tables(flat) if is_lattice else None
    for dual in (False, True):
        found = checks._distributive_violation(target, dual)
        assert found == table_distributive_violation(flat, dual), (target.names, dual)
        if is_lattice:
            assert found == tables_distributive_violation(tables, dual), (target.names, dual)
        verdicts["distributive", found is None] += 1
    if is_lattice:
        bad = tables_modularity_violation(tables, flat.names)
        assert checks.find_modularity_violation(target) == bad, target.names
        assert checks._semimodular(target) == (bad is None), target.names
        verdicts["modular", bad is None] += 1
    if isinstance(target, DMLattice):
        assert target.upper_covers == poset_module._upper_cover_rows(flat)
        assert target.lower_covers == poset_module._upper_cover_rows(
            FinitePoset(flat.names, flat.down))


def walk_verdicts():
    return {(walk, holds): 0 for walk in ("distributive", "modular") for holds in (True, False)}


# the full walks take n³ steps: 2^7 and the completions of crowns S_7 and
# S_8, of 128 and 256 elements, take about 20 s between them
FULL_WALK_SIZE = 64


def test_skipping_walks_match_the_full_walks(prefixed):
    verdicts = walk_verdicts()
    for poset in generator_families(prefixed):
        for target in lattices_of(poset):
            if target.n <= FULL_WALK_SIZE:
                assert_walks_match_the_full_walks(target, verdicts)
    # each walk passes and fails often, so one that always did either would be seen
    assert min(verdicts.values()) > 100, verdicts


def test_skipping_walks_match_the_full_walks_on_the_population(population):
    verdicts = walk_verdicts()
    for row in population:
        for target in lattices_of(row["poset"]):
            assert_walks_match_the_full_walks(target, verdicts)
    assert all(verdicts.values()), verdicts


@pytest.mark.exhaustive
def test_skipping_walks_match_the_full_walks_on_large_lattices(prefixed):
    verdicts = walk_verdicts()
    for poset in generator_families(prefixed):
        for target in lattices_of(poset):
            if target.n > FULL_WALK_SIZE:
                assert_walks_match_the_full_walks(target, verdicts)
    # 2^7 and the completions of 2^7, S_7 and S_8 are all distributive
    assert verdicts == {("distributive", True): 8, ("distributive", False): 0,
                        ("modular", True): 4, ("modular", False): 0}


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
    assert PROPERTIES["completion-modular"](ctx).holds
    assert _lattice_tables not in ctx.dm._kept
