"""The registry of route oracles: each fast route against the direct
route it replaced, kept here as its oracle.

``ORACLES`` maps each entry to an :class:`Oracle`, whose ``compare``
asserts that both routes give the same results on one poset and returns
a Counter of what it saw.  ``test_cone_rules`` runs every entry on every
member of every family in ``families``; ``conftest`` registers this
module for assertion rewriting, so its asserts also hold under
``python -O``.
"""

import functools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from families import FAMILIES, family, key

from posetkit import checks, residuation
from posetkit import poset as poset_module
from posetkit.checks import PRECONDITION_ERRORS, PROPERTIES, CheckContext, _lattice_ops
from posetkit.completion import (
    DEFAULT_MAX_CLOSED_SETS,
    DMLattice,
    check_join_meet_density,
    complete,
)
from posetkit.errors import (
    InternalError,
    MissingInvolution,
    NoRelativePseudocomplement,
    NotALattice,
    NotComplemented,
    PosetError,
    SizeLimitExceeded,
)
from posetkit.poset import (
    FinitePoset,
    bits,
    is_antitone_involution,
    is_complementation,
    is_lattice,
    lattice_violation,
    orthogonal_subsets,
)
from posetkit.report import CheckReport
from posetkit.residuation import (
    KINDS,
    OperatorPair,
    _lattice_tables,
    bdm_transform,
    operator_pair,
    pseudocomplement_table,
    relative_pseudocomplement,
    star_on_dm,
    verify_left_residuated_lattice,
)

# -- shared helpers ---------------------------------------------------------------


def outcome(fn, *args):
    """The result, or the type and text of a precondition error."""
    try:
        return fn(*args)
    except (*PRECONDITION_ERRORS, NoRelativePseudocomplement) as exc:
        return type(exc), str(exc)


def validated(poset):
    """The rows, names and involution put through the full validation of
    ``FinitePoset``: a plain poset with nothing kept on it yet, and, for
    a completion, one independent of it."""
    return FinitePoset(poset.names, poset.up, poset.inv)


def reports(poset, names):
    """The reports or precondition errors on a fresh copy of the poset."""
    ctx = CheckContext(validated(poset))
    return [outcome(PROPERTIES[name], ctx) for name in names]


def verdict(found):
    return found.holds if isinstance(found, CheckReport) else "undecided"


def complemented(poset):
    found = outcome(is_complementation, poset)
    return isinstance(found, CheckReport) and found.holds


def completion_or_none(poset):
    """The completion, kept on the poset, or None if it has none."""
    return poset.kept(_completion_or_none)


def _completion_or_none(poset):
    lattice = outcome(complete, poset)
    return lattice if isinstance(lattice, DMLattice) else None


# -- cone scans: suprema, relative pseudocomplements and cone terms -------------


def scan_least(poset, subset):
    """Least element of a subset, if it has one."""
    return next((i for i in bits(subset) if subset & ~poset.up[i] == 0), None)


def scan_greatest(poset, subset):
    return next((i for i in bits(subset) if subset & ~poset.down[i] == 0), None)


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
    return scan_greatest(poset, sum(1 << c for c in range(poset.n)
                                    if poset.down[c] & poset.down[x] & ~target == 0))


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


def chain_distributive_violation(poset):
    n, lo, up = poset.n, poset.lower_cone, poset.upper_cone
    for x in range(n):
        for y in range(n):
            outer = up((1 << x) | (1 << y))
            for z in range(n):
                zbit = 1 << z
                if lo(outer | zbit) != lo(up(lo((1 << x) | zbit) | lo((1 << y) | zbit))):
                    return (x, y, z)
    return None


def chain_pseudo_om_violation(poset):
    inv, lo, up = poset.inv, poset.lower_cone, poset.upper_cone
    for x in range(poset.n):
        for y in range(poset.n):
            below = lo((1 << x) | (1 << y))
            if lo(up(below | (1 << inv[y])) | (1 << y)) != below:
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
        above = functools.reduce(int.__and__, map(poset.down.__getitem__,
                                                  bits(poset.upper_cone(mask))), poset.full)
        if below != mask or above != mask:
            return CheckReport("join-meet-density", False,
                               witness={"closed-set": poset.names_of(mask)},
                               details="not recovered from embedded elements")
    return CheckReport("join-meet-density", True, details=f"{len(lattice)} closed sets")


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


CONE_REPORTS = ("distributive", "boolean", "pseudo-orthomodular", "orthomodular-poset")


def compare_cone_scans(poset):
    assert_lookups_match(poset)
    new = reports(poset, CONE_REPORTS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FinitePoset, "join_of", scan_join)
        patch.setattr(FinitePoset, "meet_of", scan_meet)
        patch.setattr(checks, "_distributive_violation", chain_distributive_violation)
        patch.setattr(checks, "_distributive_poset_report", walked_distributive_poset)
        patch.setattr(checks, "_pseudo_om_violation", chain_pseudo_om_violation)
        assert reports(poset, CONE_REPORTS) == new, poset.names
    for kind in KINDS:
        assert outcome(operator_pair, poset, kind) == outcome(chain_operator_pair, poset, kind)
    lattice = completion_or_none(poset)
    if lattice is not None:
        assert check_join_meet_density(poset, lattice) == chain_join_meet_density(poset, lattice)
    return Counter()


# -- the orthomodular-poset identity by De Morgan --------------------------------


def walked_orthomodular_poset(poset, meet2):
    """The orthomodular-poset check over every pair, each join taken by
    ``join_of`` on a two-element mask and each meet by ``meet2``."""
    inv = poset.require_complementation("orthomodularity")

    def join2(a, b):
        return poset.join_of((1 << a) | (1 << b))

    def fail(x, y, details):
        return CheckReport("orthomodular-poset", False,
                           witness={"x": poset.names[x], "y": poset.names[y]},
                           details=details)

    for x in range(poset.n):
        for y in range(poset.n):
            orthogonal = bool((poset.up[x] >> inv[y]) & 1)
            if orthogonal and join2(x, y) is None:
                return fail(x, y, "orthogonal pair without a join")
            meet_xy = meet2(x, y)
            if meet_xy is not None:
                j = join2(meet_xy, inv[y])
                if j is not None:
                    outer = meet2(j, y)
                    if outer is not None:
                        if outer != meet_xy:
                            return fail(x, y, "((x^y) v y') ^ y differs from x^y")
                        continue
            if orthogonal:
                return fail(x, y, "identity subterm undefined on an orthogonal pair")
    return CheckReport("orthomodular-poset", True)


def demorgan_orthomodular_poset(poset):
    """Every meet by De Morgan, x^y as the image of x' v y'."""

    def meet2(a, b):
        j = poset.join_of((1 << poset.inv[a]) | (1 << poset.inv[b]))
        return None if j is None else poset.inv[j]

    return walked_orthomodular_poset(poset, meet2)


def compare_de_morgan(poset):
    found = outcome(checks.is_orthomodular_poset, poset)
    assert found == outcome(demorgan_orthomodular_poset, poset), poset.names
    return Counter([verdict(found)])


# -- the pair table and the closure memo against the closure walks ---------------


def closure_distributive_violation(poset):
    """Two closures per triple, every triple in order."""
    lo, up, below = poset.lower_cone, poset.upper_cone, poset.down
    for x in range(poset.n):
        for y in range(poset.n):
            closed = lo(up((1 << x) | (1 << y)))
            for z in range(poset.n):
                if closed & below[z] != lo(up((below[x] | below[y]) & below[z])):
                    return (x, y, z)
    return None


def closure_pseudo_om_violation(poset):
    """One closure per pair."""
    inv, lo, up, below = poset.inv, poset.lower_cone, poset.upper_cone, poset.down
    for x in range(poset.n):
        for y in range(poset.n):
            pair = below[x] & below[y]
            if lo(up(pair | (1 << inv[y]))) & below[y] != pair:
                return (x, y)
    return None


def compare_closure_walks(poset):
    """The same first violation from both routes, each form, counting the
    walks that pass and fail.  The pseudo-orthomodular walk skips pairs
    that a complementation decides, so it is compared on complemented
    posets, the only ones its check runs on."""
    counts = Counter()
    walks = [(checks._distributive_violation, closure_distributive_violation)]
    if complemented(poset):
        walks.append((checks._pseudo_om_violation, closure_pseudo_om_violation))
    for new, old in walks:
        for form in (poset, poset.dual):
            found = new(form)
            assert found == old(form), (poset.names, new.__name__, form is poset)
            counts["pass" if found is None else "fail"] += 1
    return counts


# -- the exchange scan against the closed-pair and meet-table loops ---------------


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


def closed_pair_strongly_d_continuous(poset, lattice):
    poset.require_complementation("strong D-continuity")
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
    return next(((x, y) for x in range(len(sets)) for y in range(len(sets))
                 if x != y and meet[x][y] == x and meet[inv[x]][y] == bottom), None)


EXCHANGE_REPORTS = ("orthomodular-lattice", "strongly-d-continuous", "completion-orthomodular")


def compare_exchange(poset):
    """The first pair of every exchange scan the poset has, strong
    D-continuity, the completion and the poset as a lattice, counted
    passing or failing; and the reports that read them, by verdict."""
    counts = Counter()
    lattice = completion_or_none(poset)
    pairs = []
    if complemented(poset):
        pairs.append((checks._exchange_violation(lattice),
                      closed_pair_sdc_violation(poset, lattice)))
    lattices = []
    if lattice is not None and lattice.inv is not None:
        lattices.append(lattice)
    if poset.inv is not None and is_lattice(poset):
        lattices.append(poset)
    for target in lattices:
        pairs.append((checks._exchange_violation(target), meet_table_exchange_violation(target)))
    for found, oracle in pairs:
        assert found == oracle, poset.names
        counts["pass" if found is None else "fail"] += 1
    new = reports(poset, EXCHANGE_REPORTS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "is_strongly_d_continuous", closed_pair_strongly_d_continuous)
        patch.setattr(checks, "_exchange_violation", meet_table_exchange_violation)
        assert reports(poset, EXCHANGE_REPORTS) == new, poset.names
    return counts + Counter(map(verdict, new))


# -- the lattice laws against the table walks ------------------------------------


def table_distributive_violation(poset):
    """The cone identity over all n³ triples, y < x only left out,
    with the pair table built in full and every cone worked out."""
    n, lo, up, below = poset.n, poset.lower_cone, poset.upper_cone, poset.down
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


@functools.cache
def tables_distributive_violations(names, up, inv):
    """The lattice forms of the cone identities, (x v y) ^ z against
    (x ^ z) v (y ^ z) and dually, over every triple of the (join, meet)
    tables of :func:`_lattice_tables` of the lattice poset ``(names, up,
    inv)``: each form's first triple, walked once however many entries
    read it."""
    tables = _lattice_tables(FinitePoset(names, up, inv))
    return tuple(_first_undistributed_triple(*pair) for pair in (tables, tables[::-1]))


def _first_undistributed_triple(join, meet):
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
    return checks._distributive_report(table_distributive_violation(poset),
                                       table_distributive_violation(poset.dual),
                                       poset.names.__getitem__)


def walked_distributive_lattice(lattice):
    """Lattice distributivity by the two first-triple walks over the
    join and meet tables of its rows, a completion's too."""
    return checks._distributive_report(*tables_distributive_violations(*key(lattice)),
                                       lattice.names.__getitem__)


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
    identity = next(((x, y) for x in range(size) for y in range(size)
                     if join[meet[join[x][y]][inv[y]]][y] != join[x][y]), None)
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
    """Every meet by ``meet_of`` on a two-element mask."""
    return walked_orthomodular_poset(poset, lambda a, b: poset.meet_of((1 << a) | (1 << b)))


def table_modular_lattice(lattice):
    """Lattice modularity by the walk of every triple of the join and
    meet tables, a completion's through ``validated``."""
    flat = validated(lattice) if isinstance(lattice, DMLattice) else lattice
    bad = tables_modularity_violation(_lattice_tables(flat), flat.names)
    if bad is None:
        return CheckReport("modular", True)
    return CheckReport("modular", False, witness=bad,
                       details="x v (y ^ z) differs from (x v y) ^ z for x <= z")


LATTICE_REPORTS = ("distributive", "boolean", "modular", "orthomodular-poset",
                   "orthomodular-lattice", "strongly-d-continuous", "completion-orthomodular",
                   "completion-distributive", "completion-modular")


def compare_lattice_laws(poset):
    """The same reports, witnesses and precondition errors by the
    criteria, lookups and covers as by the table walks; and each form of
    Birkhoff's criterion fails exactly where the walks found a triple, on
    the poset when it is a lattice and on its completion."""
    new = reports(poset, LATTICE_REPORTS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_distributive_poset_report", walked_distributive_poset)
        patch.setattr(checks, "is_distributive_lattice", walked_distributive_lattice)
        patch.setattr(checks, "is_modular_lattice", table_modular_lattice)
        patch.setattr(checks, "is_orthomodular_lattice", table_orthomodular_lattice)
        patch.setattr(checks, "is_orthomodular_poset", suprema_orthomodular_poset)
        walked = dict(zip(LATTICE_REPORTS, reports(poset, LATTICE_REPORTS)))
    assert list(walked.values()) == new, poset.names
    lattices = []
    if is_lattice(poset):
        lattices.append((poset.down, poset.up, walked["distributive"]))
    lattice = completion_or_none(poset)
    if lattice is not None:
        cones = [poset.upper_cone(mask) for mask in lattice.closed]
        lattices.append((lattice.closed, cones, walked["completion-distributive"]))
    for sets, cones, report in lattices:
        assert checks._irreducible_not_prime(poset, sets, cones) != report.holds
        assert checks._irreducible_not_prime(poset.dual, cones, sets) != report.holds
    return Counter(map(verdict, new))


# -- the completion by all rows and element walks ---------------------------------


def scan_maximal(poset, subset):
    """The maximal elements of a subset, tested one by one through bits()."""
    return sum(1 << i for i in bits(subset) if subset & poset.up[i] == 1 << i)


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
        lattice = complete(validated(poset), max_closed_sets)
    except (SizeLimitExceeded, PosetError) as exc:
        return type(exc), str(exc)
    return (lattice.closed, lattice.embed, lattice.generators, lattice.names,
            lattice.up, lattice.inv)


def compare_completion(poset):
    """The same completion as the replaced routes, under a cap of its
    size too, and the same error under a cap of one less.  Its rows,
    built with nothing checked, pass the full validation of
    ``FinitePoset``; its down rows and bounds are the lazy and direct
    ones, and its lifted involution, not walked when it is built, is
    antitone."""
    parts = completion_parts(poset)
    assert parts == walked_completion(poset), poset.names
    count = len(parts[0])
    assert completion_parts(poset, count) == parts
    if count > 1:
        refused = (SizeLimitExceeded, f"more than {count - 1} closed sets; raise max_closed_sets")
        assert completion_parts(poset, count - 1) == walked_completion(poset, count - 1) == refused
    lattice = complete(poset)
    flat = validated(lattice)
    assert (flat.down, flat.bottom, flat.top) == (lattice.down, lattice.bottom, lattice.top)
    assert lattice.inv is None or is_antitone_involution(flat).holds
    return Counter()


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


def maximal_orthogonal_subsets(poset, universe):
    """The orthogonal subsets of ``universe`` that no other contains: the
    maximal cliques of the orthogonality graph, by Bron-Kerbosch with the
    two cuts of ``checks._first_ungenerating``.  An excluded vertex
    orthogonal to every candidate would extend each clique found below,
    so that branch is cut; it yields nothing, so the order of the cliques
    is the one the full search gives."""
    compat = poset_module._orthogonality_rows(poset, universe)

    def expand(chosen, candidates, excluded):
        if candidates == 0:
            if excluded == 0:
                yield chosen
            return
        rest = excluded
        while rest:
            low = rest & -rest
            rest ^= low
            if candidates & ~compat[low.bit_length() - 1] == 0:
                return
        rest = candidates
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            yield from expand(chosen | low, candidates & compat[v],
                              excluded & compat[v])
            candidates ^= low
            excluded |= low
            rest ^= low
            if candidates & ~compat[v] == 0:
                return

    yield from expand(0, universe, 0)


def enumerated_first_ungenerating(poset, closed, cone):
    """The first maximal orthogonal subset of the full search whose
    closure is not the closed set, one closure per subset; ``cone`` is
    not read."""
    return next((subset for subset in full_bron_kerbosch(poset, closed)
                 if poset.closure(subset) != closed), None)


class LeafCones:
    """A stand-in for U(X) that every upper cone is taken to equal: the
    walk of ``finch`` then passes every maximal orthogonal subset it
    reaches, and this records the U(S) of each, in the walk's order."""

    def __init__(self):
        self.seen = []

    def __ne__(self, upper):
        self.seen.append(upper)
        return False


ORTHOGONALITY_REPORTS = ("finch", "orthocomplete")


def compare_generators(poset):
    """The completion read through generators equals the one read through
    every element, and a principal closed set is read through its point:
    on a lattice, where every closed set is principal, the names, up rows
    and involution are the base's renumbered.  The orthogonality table
    and the cut search give the same maximal orthogonal subsets of each
    closed set, in the same order; on each closed set the walk of
    ``finch`` reaches them all, in that order, with their upper cones,
    and finds the first that does not generate it as the enumeration
    with one closure per subset does; and with the walk swapped for the
    enumeration the reports are the same."""
    lattice = completion_or_none(poset)
    if lattice is not None:
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
        embed = lattice.embed
        if is_lattice(poset):
            assert sorted(embed) == list(range(len(lattice)))
            for x in range(poset.n):
                k = embed[x]
                assert lattice.names[k] == poset.names[x]
                assert lattice.up[k] == sum(1 << embed[y] for y in bits(poset.up[x]))
                if lattice.inv is not None:
                    assert lattice.inv[k] == embed[poset.inv[x]]
    if poset.inv is not None:
        assert dict(enumerate(poset.perp)) == pairwise_orthogonality_rows(poset, poset.full)
    if complemented(poset):
        # the closed sets finch reads; a long chain's would take the full search 2^(n/2) steps
        for mask in getattr(lattice, "closed", ()):
            found = list(full_bron_kerbosch(poset, mask))
            assert list(maximal_orthogonal_subsets(poset, mask)) == found, mask
            assert (checks._first_ungenerating(poset, mask, poset.upper_cone(mask))
                    == next((s for s in found if poset.closure(s) != mask), None)), mask
            leaves = LeafCones()
            assert checks._first_ungenerating(poset, mask, leaves) is None
            assert leaves.seen == [poset.upper_cone(s) for s in found], mask
    new = reports(poset, ORTHOGONALITY_REPORTS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset_module, "_orthogonality_rows", pairwise_orthogonality_rows)
        patch.setattr(checks, "_first_ungenerating", enumerated_first_ungenerating)
        assert reports(poset, ORTHOGONALITY_REPORTS) == new, poset.names
    return Counter(map(verdict, new))


# -- orthocomplete on a lattice against the walk of its orthogonal subsets --------


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


def compare_orthocomplete(poset):
    new = reports(poset, ("orthocomplete",))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(PROPERTIES, "orthocomplete", walked_orthocomplete)
        assert reports(poset, ("orthocomplete",)) == new, poset.names
    return Counter(map(verdict, new))


# -- the skipping walks and semimodularity against the full walks ----------------


def compare_full_walks(poset):
    """On the poset and on its completion: the distributivity walk gives
    the full pair-table walk's triple or None, each form; on a lattice,
    also the lattice-table walk's, and the modularity walk the
    lattice-table walk's witness or None, which semimodularity must
    match.  A completion is compared with its ``validated`` copy, whose
    covers are the minimal elements of its up rows."""
    counts = Counter()
    lattice = completion_or_none(poset)
    for target in (poset, lattice) if lattice is not None else (poset,):
        flat = validated(target) if isinstance(target, DMLattice) else target
        lattice_target = isinstance(target, DMLattice) or is_lattice(target)
        tables = _lattice_tables(flat) if lattice_target else None
        for form, (walked, full) in enumerate(((target, flat), (target.dual, flat.dual))):
            found = checks._distributive_violation(walked)
            assert found == table_distributive_violation(full), (target.names, form)
            if lattice_target:
                assert found == tables_distributive_violations(*key(flat))[form], (target.names,
                                                                                  form)
            counts["distributive", found is None] += 1
        if lattice_target:
            bad = tables_modularity_violation(tables, flat.names)
            assert checks.find_modularity_violation(target) == bad, target.names
            assert checks._semimodular(target) == (bad is None), target.names
            counts["modular", bad is None] += 1
        if isinstance(target, DMLattice):
            assert target.upper_covers == poset_module._upper_cover_rows(flat)
            assert target.lower_covers == poset_module._upper_cover_rows(
                FinitePoset(flat.names, flat.down))
    return counts


# -- residuation on the completion against the walks and the table route ----------


def walk_verify(lattice, ops, check_associativity=False):
    """The full transposed walk over every column."""
    _, top = lattice.require_bounds()
    n = lattice.n
    names = lattice.names
    odot, arrow = ops.odot, ops.arrow
    commutative = all(odot[x][y] == odot[y][x]
                      for x in range(n) for y in range(x + 1, n))
    associative = "unchecked"
    if check_associativity:
        associative = "yes" if all(
            odot[odot[x][y]][z] == odot[x][odot[y][z]]
            for x in range(n) for y in range(n) for z in range(n)) else "no"
    flags = {"kind": ops.kind, "commutative": "yes" if commutative else "no",
             "associative": associative}
    for x in range(n):
        if odot[x][top] != x or odot[top][x] != x:
            return CheckReport("left-residuated-lattice", False,
                               witness={"axiom": "unit", "x": names[x]}, extra=flags)
    for y in range(n):
        below_arrow = [0] * n
        for z in range(n):
            for x in bits(lattice.down[arrow[y][z]]):
                below_arrow[x] |= 1 << z
        for x in range(n):
            if lattice.up[odot[x][y]] != below_arrow[x]:
                z = next(bits(lattice.up[odot[x][y]] ^ below_arrow[x]))
                return CheckReport("left-residuated-lattice", False,
                                   witness={"axiom": "adjunction", "x": names[x],
                                            "y": names[y], "z": names[z]},
                                   extra=flags)
    return CheckReport("left-residuated-lattice", True, extra=flags)


def pair_set_first_column(order, odot, arrow):
    """The Galois criterion over a set of all comparable pairs: for each
    y, x -> x.y and z -> y->z isotone on the cover pairs, (y->z).y <= z
    and x <= y->(x.y) (Davey & Priestley 2002, ch. 7)."""
    leq = {(i, j) for i in range(order.n) for j in bits(order.up[i])}
    covers = order.cover_pairs()
    lows = [i for i, _ in covers]
    highs = [j for _, j in covers]
    ids = range(order.n)

    def isotone(h):
        return leq.issuperset(zip(map(h.__getitem__, lows), map(h.__getitem__, highs)))

    for y, (f, g) in enumerate(zip(zip(*odot), arrow)):
        if not (isotone(f) and isotone(g)
                and leq.issuperset(zip(map(f.__getitem__, g), ids))
                and leq.issuperset(zip(ids, map(g.__getitem__, f)))):
            return y
    return None


def scan_star(poset, lattice):
    """One intersection over all pairs (a, b), then both halves of the
    invariant scanned over every triple of closed sets."""
    star = pseudocomplement_table(poset)
    m = len(lattice)
    closed = lattice.closed
    table = [[0] * m for _ in range(m)]
    for j in range(m):
        upper = poset.upper_cone(closed[j])
        for i in range(m):
            acc = poset.full
            for a in bits(closed[i]):
                for b in bits(upper):
                    acc &= poset.down[star[a][b]]
            table[i][j] = lattice.index[acc]
    for i in range(m):
        for j in range(m):
            best = closed[table[i][j]]
            if best & closed[i] & ~closed[j]:
                raise InternalError("lifted star must satisfy (X*Y) ^ X <= Y")
            for k in range(m):
                if closed[k] & closed[i] & ~closed[j] == 0 and closed[k] & ~best:
                    raise InternalError("lifted star must be the greatest such closed set")
    for x in range(poset.n):
        for y in range(poset.n):
            if table[lattice.embed[x]][lattice.embed[y]] != lattice.embed[star[x][y]]:
                raise InternalError("lifted star must extend the base operation")
    return table


def residuation_outcome(poset, kind, lattice, lift, verify):
    """Star table and report of one kind on the completion, or the type
    of the precondition error that stopped it."""
    completed = lattice.as_poset()
    try:
        star = lift(poset, lattice) if kind == "relpseudo" else None
        return star, verify(completed, bdm_transform(completed, kind, star))
    except (NoRelativePseudocomplement,) + PRECONDITION_ERRORS as exc:
        return type(exc)


def compare_residuation_walks(poset):
    """On the completion, every kind's lifted star table and report by
    ``star_on_dm`` and ``verify_left_residuated_lattice`` as by the
    intersection over all pairs and the transposed walk."""
    lattice = completion_or_none(poset)
    for kind in KINDS:
        assert (residuation_outcome(poset, kind, lattice, star_on_dm,
                                    verify_left_residuated_lattice)
                == residuation_outcome(poset, kind, lattice, scan_star, walk_verify)), kind
    return Counter()


def compare_law_route(poset):
    """On the completion, for every kind's tables that its preconditions
    allow: the same report from the law route as from the table route,
    which a complemented poset's ``boolean`` and ``pseudo_om`` ops take
    no other way, and the same first column from its bit rows as from
    the pair set."""
    counts = Counter()
    lattice = completion_or_none(poset)
    for kind in KINDS:
        try:
            star = star_on_dm(poset, lattice) if kind == "relpseudo" else None
            ops = bdm_transform(lattice, kind, star)
        except (NoRelativePseudocomplement,) + PRECONDITION_ERRORS:
            continue
        law = residuation._law_holds(lattice, ops)
        assert (law is not None) == (ops.kind != "relpseudo" and complemented(poset))
        report = verify_left_residuated_lattice(lattice, ops)
        assert report == verify_left_residuated_lattice(lattice, replace(ops)), ops.kind
        column = residuation._first_unadjoint_column(lattice, ops.odot, ops.arrow)
        assert column == pair_set_first_column(lattice, ops.odot, ops.arrow), ops.kind
        assert report.holds == (column is None)
        if law is not None:
            assert law == report.holds
            counts[ops.kind, law] += 1
    return counts


def compare_commutative_flag(poset):
    """Where the law route decides ``boolean`` and ``pseudo_om``, on the
    poset when it is a lattice and on its completion, the commutative
    flag is yes for ``boolean`` and, for ``pseudo_om``, yes exactly when
    the lattice is distributive."""
    counts = Counter()
    lattices = [poset] if is_lattice(poset) else []
    lattice = completion_or_none(poset)
    for target in lattices + ([lattice] if lattice is not None else []):
        for kind in ("boolean", "pseudo_om"):
            try:
                ops = bdm_transform(target, kind)
            except PRECONDITION_ERRORS:
                break
            if residuation._law_holds(target, ops) is None:
                break
            flag = verify_left_residuated_lattice(target, ops).extra["commutative"]
            assert flag == ("yes" if kind == "boolean" or checks._distributive_law(target)
                            else "no")
            counts[kind, flag] += 1
    return counts


# -- bdm_transform against tables composed from joins and meets --------------------


def composed_tables(lattice, kind):
    """The odot and arrow tables of a kind composed, entry by entry, from
    ``join_of``, ``meet_of`` and the relative pseudocomplements."""
    bad = lattice_violation(lattice)
    if bad is not None:
        raise NotALattice(f"{bad['x']}, {bad['y']} have no {bad['missing']}")
    n = lattice.n

    def join(i, j):
        return lattice.join_of((1 << i) | (1 << j))

    def meet(i, j):
        return lattice.meet_of((1 << i) | (1 << j))

    if kind == "relpseudo":
        star = pseudocomplement_table(lattice)
        odot = [[meet(x, y) for y in range(n)] for x in range(n)]
        arrow = [[star[x][y] for y in range(n)] for x in range(n)]
    else:
        inv = lattice.require_involution()
        if kind == "boolean":
            odot = [[meet(x, y) for y in range(n)] for x in range(n)]
            arrow = [[join(inv[x], y) for y in range(n)] for x in range(n)]
        else:
            odot = [[meet(join(x, inv[y]), y) for y in range(n)] for x in range(n)]
            arrow = [[join(meet(x, y), inv[x]) for y in range(n)] for x in range(n)]
    return tuple(map(tuple, odot)), tuple(map(tuple, arrow))


def op_tables(lattice, kind):
    ops = bdm_transform(lattice, kind)
    return ops.odot, ops.arrow


# -- the enumeration of the closed sets --------------------------------------------


def brute_force_closed_sets(poset):
    return {poset.closure(subset) for subset in range(poset.full + 1)}


def next_closure(poset, max_closed_sets=DEFAULT_MAX_CLOSED_SETS):
    """Ganter's NextClosure ("Two basic algorithms in concept analysis",
    1984), the enumeration complete() used before intersection closure.

    The lectic successor of A is closure((A & low_i) | {i}) for the
    largest i not in A whose closure adds nothing below i.
    """
    current = poset.closure(0)
    out = [current]
    while current != poset.full:
        if len(out) >= max_closed_sets:
            raise SizeLimitExceeded(
                f"more than {max_closed_sets} closed sets; raise max_closed_sets")
        for i in reversed(range(poset.n)):
            bit = 1 << i
            if current & bit:
                continue
            low = bit - 1
            candidate = poset.closure((current & low) | bit)
            if candidate & low == current & low:
                break
        else:
            raise AssertionError("lectic successor must exist below the full set")
        current = candidate
        out.append(current)
    return out


def compare_next_closure(poset):
    assert list(completion_or_none(poset).closed) == next_closure(poset), poset.names
    return Counter()


def compare_brute_force(poset):
    closed = completion_or_none(poset).closed
    assert set(closed) == brute_force_closed_sets(poset), poset.names
    assert len(set(closed)) == len(closed)
    return Counter()


def compare_lattice_tables(poset):
    """The meet table a completion reads through its ``(closed, index)``
    is the one its validated copy reads through ``(down, by_down)``; its
    join table is the closure of the union, and the De Morgan dual of
    that meet table through the induced involution, where there is one;
    ``_lattice_ops`` reads the same joins and meets.  On the poset and on
    the validated copy, bdm_transform gives the composed tables or the
    same precondition error."""
    lattice = completion_or_none(poset)
    assert lattice.meet_sets == (lattice.closed, lattice.index)
    flat = validated(lattice)
    join, meet = _lattice_tables(lattice)
    assert meet == [[flat.by_down[a & b] for b in flat.down] for a in flat.down]
    inv = lattice.inv
    if inv is not None:
        assert join == [[inv[meet[inv[i]][inv[j]]] for j in range(lattice.n)]
                        for i in range(lattice.n)]
    closed, index, base = lattice.closed, lattice.index, lattice.base
    op_join, op_meet = _lattice_ops(lattice)
    for i in range(lattice.n):
        for j in range(lattice.n):
            assert join[i][j] == op_join(i, j) == index[base.closure(closed[i] | closed[j])]
            assert meet[i][j] == op_meet(i, j) == index[closed[i] & closed[j]]
    for target in (poset, flat):
        for kind in KINDS:
            assert (outcome(op_tables, target, kind)
                    == outcome(composed_tables, target, kind)), (target.names, kind)
    return Counter()


# -- the registry --------------------------------------------------------------------


def elements(poset):
    return poset.n


def closed_sets(poset):
    """The size of the completion; a poset with none is compared by no
    oracle that reads it."""
    lattice = completion_or_none(poset)
    return math.inf if lattice is None else len(lattice)


def largest(poset):
    return max(poset.n, closed_sets(poset))


def lattice_height(poset):
    """Elements in the longest chain of a lattice: a chain of 2k elements
    has 2^k orthogonal subsets.  A poset that is no lattice has none."""
    if not is_lattice(poset):
        return math.inf
    longest = [1] * poset.n
    for x in sorted(range(poset.n), key=lambda x: poset.down[x].bit_count()):
        for y in bits(poset.down[x] & ~(1 << x)):
            longest[x] = max(longest[x], longest[y] + 1)
    return max(longest, default=0)


class Oracle:
    """``compare(poset)`` asserts that a fast route agrees with the route it
    replaced and returns a Counter of what it saw.  It runs on every
    family member whose ``size`` is at most ``tier1`` in tier-1, and on
    those past ``tier1`` up to ``limit`` in the ``exhaustive`` tier."""

    def __init__(self, compare, size, tier1, limit=None):
        self.compare, self.size = compare, size
        self.tier1, self.limit = tier1, limit or tier1

    def takes(self, poset, tier):
        size = self.size(poset)
        return size <= self.tier1 if tier == "tier-1" else self.tier1 < size <= self.limit


ORACLES = {
    "cone-scans": Oracle(compare_cone_scans, elements, 64),
    "de-morgan": Oracle(compare_de_morgan, elements, 128),
    "closure-walks": Oracle(compare_closure_walks, elements, 32, 64),
    "exchange": Oracle(compare_exchange, closed_sets, 1024),
    "lattice-laws": Oracle(compare_lattice_laws, closed_sets, 64, 256),
    "completion": Oracle(compare_completion, closed_sets, 1024, 4096),
    "generators": Oracle(compare_generators, closed_sets, 256, 1024),
    "orthocomplete": Oracle(compare_orthocomplete, lattice_height, 17),
    "full-walks": Oracle(compare_full_walks, largest, 64, 256),
    "residuation-walks": Oracle(compare_residuation_walks, closed_sets, 64),
    "law-route": Oracle(compare_law_route, closed_sets, 256, 1024),
    "commutative-flag": Oracle(compare_commutative_flag, closed_sets, 256),
    "next-closure": Oracle(compare_next_closure, closed_sets, 4096),
    "brute-force": Oracle(compare_brute_force, elements, 8),
    "lattice-tables": Oracle(compare_lattice_tables, closed_sets, 64),
}
TIERS = ("tier-1", "exhaustive")


def members(name, tier, among=FAMILIES):
    """The distinct members of the families ``among`` that the oracle
    takes in the tier."""
    found = {}
    for family_name in among:
        for poset in family(family_name).values():
            if ORACLES[name].takes(poset, tier):
                found.setdefault(key(poset), poset)
    return list(found.values())


def assert_compared_in_tier_1(oracle, posets):
    """Each poset is a family member that the oracle takes in tier-1, so
    the registry test of its family makes that comparison."""
    missing = [poset.names for poset in posets if key(poset) not in _tier_1_keys(oracle)]
    assert not missing, (oracle, missing)


@functools.cache
def _tier_1_keys(oracle):
    return frozenset(map(key, members(oracle, "tier-1")))


class Comparisons:
    """Each oracle's Counter on each poset it compared in this session,
    keyed by ``(names, up, inv)``: no comparison is made twice."""

    def __init__(self):
        self.outcomes = {name: {} for name in ORACLES}

    def compare(self, name, poset):
        done = self.outcomes[name]
        if key(poset) not in done:
            done[key(poset)] = ORACLES[name].compare(poset)
        return done[key(poset)]

    def tally(self, name, posets):
        """The sum of the Counters over the distinct posets."""
        distinct = {key(poset): poset for poset in posets}
        return sum((self.compare(name, poset) for poset in distinct.values()), Counter())
