"""The residuation routes against the walks they replaced.

``verify_left_residuated_lattice`` used to transpose every column of the
arrow table and compare each x.y with the transposed column, and
``star_on_dm`` used to intersect L(a*b) over all a in X and b in U(Y) at
once and to check its invariant with two O(m^3) scans.  Both routes are
kept here as oracles: every report, witness and flags included, and
every lifted star table must come out the same.

The columns were then decided by the Galois criterion over a set of all
comparable pairs: both maps isotone on cover pairs, (y->z).y <= z and
x <= y->(x.y).  One pass of bit rows per column replaced it, and the
pair set is an oracle here: the same first failing column, or none, on
drawn tables and on every kind's tables of the generator families of
``test_cone_rules`` and the population.

On an ortholattice the ``boolean`` and ``pseudo_om`` verdicts now rest
on the distributive and orthomodular laws.  The table route, which
``dataclasses.replace`` forces, is the oracle on every completion of
those families and of crown S_10 in the ``exhaustive`` tier: verdict,
witness and flags must be the same.
"""

from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings, strategies as st
from test_completion import crown, validated
from test_cone_rules import complemented, generator_families, lattice_law_families

from posetkit import corpus, residuation
from posetkit.checks import PRECONDITION_ERRORS, PROPERTIES, _distributive_law
from posetkit.completion import complete
from posetkit.errors import InternalError, NoRelativePseudocomplement
from posetkit.poset import bits, lattice_violation
from posetkit.report import CheckReport
from posetkit.residuation import (
    KINDS,
    ResiduatedOps,
    bdm_transform,
    pseudocomplement_table,
    star_on_dm,
    verify_left_residuated_lattice,
)


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


def first_failing_column(lattice, odot, arrow):
    """The first y at which some x.y <= z and x <= y->z disagree."""
    for y in range(lattice.n):
        for x in range(lattice.n):
            for z in range(lattice.n):
                if lattice.leq(odot[x][y], z) != lattice.leq(x, arrow[y][z]):
                    return y
    return None


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


def outcome(poset, kind, lattice, lift, verify):
    """Star table and report of one kind on the completion, or the type
    of the precondition error that stopped it."""
    completed = lattice.as_poset()
    try:
        star = lift(poset, lattice) if kind == "relpseudo" else None
        return star, verify(completed, bdm_transform(completed, kind, star))
    except (NoRelativePseudocomplement,) + PRECONDITION_ERRORS as exc:
        return type(exc)


def assert_same_as_oracle(poset, lattice=None):
    lattice = lattice or complete(poset)
    for kind in KINDS:
        assert (outcome(poset, kind, lattice, star_on_dm, verify_left_residuated_lattice)
                == outcome(poset, kind, lattice, scan_star, walk_verify)), kind


FAMILIES = {
    **{f"ba{1 << k}": corpus.boolean_algebra(k) for k in range(1, 7)},
    **{f"crown{k}": crown(k) for k in range(3, 7)},
    **{f"mo{n}": corpus.mo(n) for n in (1, 2, 3, 5)},
    **{f"chain{k}": corpus.chain(k) for k in (2, 3, 5, 9)},
}


@pytest.mark.parametrize("name", corpus.member_names())
def test_corpus_completions_match_the_walks(name):
    assert_same_as_oracle(corpus.load(name))


@pytest.mark.parametrize("name", FAMILIES)
def test_families_match_the_walks(name):
    assert_same_as_oracle(FAMILIES[name])


def test_population_matches_the_walks(population):
    for row in population:
        assert_same_as_oracle(row["poset"], row["ctx"].dm)


def test_associativity_flag_is_unchanged():
    completed = complete(corpus.load("fig2")).as_poset()
    for kind in ("boolean", "pseudo_om"):
        ops = bdm_transform(completed, kind)
        assert (verify_left_residuated_lattice(completed, ops, check_associativity=True)
                == walk_verify(completed, ops, check_associativity=True))


def assert_commutative_flag_follows_distributivity(lattice, counts):
    """Where the law route decides ``boolean`` and ``pseudo_om``, the
    commutative flag is yes for ``boolean`` and, for ``pseudo_om``, yes
    exactly when the lattice is distributive; ``counts`` counts the flags
    by kind."""
    for kind in ("boolean", "pseudo_om"):
        try:
            ops = bdm_transform(lattice, kind)
        except PRECONDITION_ERRORS:
            return
        if residuation._law_holds(lattice, ops) is None:
            return
        flag = verify_left_residuated_lattice(lattice, ops).extra["commutative"]
        assert flag == ("yes" if kind == "boolean" or _distributive_law(lattice) else "no")
        counts[kind, flag] += 1


def test_commutative_flag_follows_distributivity(population):
    """Over the lattices of ``lattice_law_families`` and their
    completions, and the population's completions."""
    counts = dict.fromkeys(((kind, flag) for kind in ("boolean", "pseudo_om")
                            for flag in ("yes", "no")), 0)
    for poset in lattice_law_families():
        if lattice_violation(poset) is None:
            assert_commutative_flag_follows_distributivity(poset, counts)
        try:
            lattice = complete(poset)
        except PRECONDITION_ERRORS:
            continue
        assert_commutative_flag_follows_distributivity(lattice, counts)
    for row in population:
        assert_commutative_flag_follows_distributivity(row["ctx"].dm, counts)
    assert counts["boolean", "no"] == 0
    # pseudo_om is both commutative and not, often
    assert min(counts["boolean", "yes"], counts["pseudo_om", "yes"],
               counts["pseudo_om", "no"]) > 100, counts


SMALL_LATTICES = [complete(poset).as_poset() for poset in (
    corpus.chain(3), corpus.boolean_algebra(3), corpus.mo(2),
    corpus.load("benzene"), crown(3))]


@st.composite
def tables(draw):
    """A small lattice and odot, arrow tables on it: arbitrary entries,
    or the tables of a kind with up to three entries rewritten; the
    unit law is forced on request so the adjunction gets decided."""
    lattice = draw(st.sampled_from(SMALL_LATTICES))
    n = lattice.n
    element = st.integers(0, n - 1)
    if draw(st.booleans()):
        ops = bdm_transform(lattice, draw(st.sampled_from(("boolean", "pseudo_om"))))
        odot, arrow = [list(row) for row in ops.odot], [list(row) for row in ops.arrow]
        for which, r, c, v in draw(st.lists(st.tuples(st.booleans(), element, element,
                                                      element), max_size=3)):
            (odot if which else arrow)[r][c] = v
    else:
        square = st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n)
        odot, arrow = draw(square), draw(square)
    if draw(st.booleans()):
        top = lattice.top
        for x in range(n):
            odot[x][top] = odot[top][x] = x
    return lattice, ResiduatedOps("drawn", tuple(map(tuple, odot)), tuple(map(tuple, arrow)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables())
def test_criterion_matches_the_walk_on_arbitrary_tables(drawn):
    lattice, ops = drawn
    column = residuation._first_unadjoint_column(lattice, ops.odot, ops.arrow)
    assert column == first_failing_column(lattice, ops.odot, ops.arrow)
    assert column == pair_set_first_column(lattice, ops.odot, ops.arrow)
    assert verify_left_residuated_lattice(lattice, ops) == walk_verify(lattice, ops)


@pytest.mark.parametrize("poset, kind", [(corpus.boolean_algebra(4), "boolean"),
                                         (crown(4), "pseudo_om")])
def test_single_flipped_entries_match_the_walk(poset, kind):
    lattice = complete(poset).as_poset()
    ops = bdm_transform(lattice, kind)
    n = lattice.n
    failing = set()
    for which in ("odot", "arrow"):
        for r in range(n):
            for c in range(n):
                table = [list(row) for row in getattr(ops, which)]
                table[r][c] = (table[r][c] + 1) % n
                flipped = ResiduatedOps(kind, **{"odot": ops.odot, "arrow": ops.arrow,
                                                 which: tuple(map(tuple, table))})
                report = verify_left_residuated_lattice(lattice, flipped)
                assert report == walk_verify(lattice, flipped), (which, r, c)
                if report.witness and report.witness["axiom"] == "adjunction":
                    failing.add(report.witness["y"])
    assert len(failing) == n


def count_witness_walks(monkeypatch):
    calls = []
    real = residuation._adjunction_witness

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(residuation, "_adjunction_witness", counted)
    return calls


def test_a_passing_check_walks_no_column(monkeypatch):
    calls = count_witness_walks(monkeypatch)
    completed = complete(corpus.boolean_algebra(6)).as_poset()
    assert verify_left_residuated_lattice(completed, bdm_transform(completed, "boolean")).holds
    assert calls == []


def test_a_failing_check_walks_one_column(monkeypatch):
    calls = count_witness_walks(monkeypatch)
    completed = complete(corpus.load("benzene")).as_poset()
    report = verify_left_residuated_lattice(completed, bdm_transform(completed, "pseudo_om"))
    assert report.witness == {"axiom": "adjunction", "x": "c", "y": "d", "z": "c"}
    assert calls == [completed.id_of("d")]


def test_completion_verdicts_of_the_kinds(population):
    """On the completion, pseudo_om holds exactly on orthomodular ones
    and boolean exactly on distributive orthomodular ones."""
    for row in population:
        ctx = row["ctx"]
        completed = ctx.dm.as_poset()
        distributive = PROPERTIES["completion-distributive"](ctx).holds
        for kind, expected in (("pseudo_om", row["completion_oml"]),
                               ("boolean", row["completion_oml"] and distributive)):
            verdict = verify_left_residuated_lattice(completed, bdm_transform(completed, kind))
            assert verdict.holds == expected, (kind, row["poset"].names)



# -- the lattice laws and the bit-row pass against the table route -------------


def kind_ops(poset, lattice):
    """The ops of each kind on the completion that its preconditions allow,
    relpseudo with the lifted star."""
    for kind in KINDS:
        try:
            star = star_on_dm(poset, lattice) if kind == "relpseudo" else None
            yield bdm_transform(lattice, kind, star)
        except (NoRelativePseudocomplement,) + PRECONDITION_ERRORS:
            pass


def assert_routes_agree(poset, lattice, verdicts):
    """On the completion: the same first column from the bit rows as from
    the pair set, for every kind's tables; the same report from the law
    route as from the table route, which a complemented poset's
    ``boolean`` and ``pseudo_om`` ops take no other way."""
    for ops in kind_ops(poset, lattice):
        column = residuation._first_unadjoint_column(lattice, ops.odot, ops.arrow)
        assert column == pair_set_first_column(lattice, ops.odot, ops.arrow), ops.kind
        law = residuation._law_holds(lattice, ops)
        assert (law is not None) == (ops.kind != "relpseudo" and complemented(poset))
        report = verify_left_residuated_lattice(lattice, ops)
        assert report == verify_left_residuated_lattice(lattice, replace(ops)), ops.kind
        assert report.holds == (column is None)
        if law is not None:
            assert law == report.holds
            verdicts[ops.kind, law] += 1


def test_law_route_and_bit_rows_match_the_table_route_on_the_families(prefixed):
    verdicts = dict.fromkeys(((kind, law) for kind in ("boolean", "pseudo_om")
                              for law in (True, False)), 0)
    for poset in generator_families(prefixed):
        assert_routes_agree(poset, complete(poset), verdicts)
    # both laws both hold and fail
    assert min(verdicts.values()) > 100, verdicts


def test_law_route_and_bit_rows_match_the_table_route_on_the_population(population):
    verdicts = dict.fromkeys(((kind, law) for kind in ("boolean", "pseudo_om")
                              for law in (True, False)), 0)
    for row in population:
        assert_routes_agree(row["poset"], row["ctx"].dm, verdicts)
    assert all(verdicts.values()), verdicts


@pytest.mark.exhaustive
def test_law_route_matches_the_table_route_on_crown10():
    poset = crown(10)
    lattice = complete(poset)
    verdicts = {("boolean", True): 0, ("pseudo_om", True): 0}
    assert_routes_agree(poset, lattice, verdicts)
    assert verdicts == {("boolean", True): 1, ("pseudo_om", True): 1}


def test_hand_built_and_replaced_ops_take_the_table_route(monkeypatch):
    calls = []
    real = residuation._first_unadjoint_column
    monkeypatch.setattr(residuation, "_first_unadjoint_column",
                        lambda *args: calls.append(1) or real(*args))
    lattice = complete(corpus.boolean_algebra(4))
    for kind in ("boolean", "pseudo_om"):
        ops = bdm_transform(lattice, kind)
        hand = ResiduatedOps(kind, ops.odot, ops.arrow)
        # the provenance is no field: equality, repr and astuple ignore it
        assert (hand, repr(hand), astuple(hand)) == (ops, repr(ops), astuple(ops))
        arrow = [list(row) for row in ops.arrow]
        arrow[3][5] = (arrow[3][5] + 1) % lattice.n
        flipped = replace(ops, arrow=tuple(map(tuple, arrow)))
        on_a_copy = bdm_transform(validated(lattice), kind)
        assert residuation._law_holds(lattice, ops) is True
        for other in (hand, flipped, on_a_copy):
            assert residuation._law_holds(lattice, other) is None
        calls.clear()
        assert verify_left_residuated_lattice(lattice, ops).holds
        assert calls == []
        for other in (hand, on_a_copy):
            assert verify_left_residuated_lattice(lattice, other).holds
        report = verify_left_residuated_lattice(lattice, flipped)
        assert report == walk_verify(lattice, flipped)
        assert not report.holds
        assert len(calls) == 3

