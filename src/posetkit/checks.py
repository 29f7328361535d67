"""Structural property checkers.

Every checker returns a :class:`CheckReport`; a failed report always
carries the first counterexample in canonical element order (ids
ascending, outer variable first).  Checkers that are stated through a
pair of equivalent identities evaluate both forms and raise
:class:`InternalError` when the verdicts disagree, so a divergence
between the two routes is never a silent wrong answer.  Each dual form
is the same walk on ``poset.dual``, the reversed order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .completion import DMLattice, complete, DEFAULT_MAX_CLOSED_SETS
from .errors import (
    InternalError,
    MissingBounds,
    MissingInvolution,
    NotALattice,
    NotComplemented,
    SizeLimitExceeded,
)
from .poset import (
    _join_irreducibles,
    ElementSet,
    FinitePoset,
    bits,
    is_antitone_involution,
    is_complementation,
    is_lattice,
    lattice_violation,
    orthogonal_subsets,
)
from .report import CheckReport


# -- distributivity -----------------------------------------------------


def _distributive_violation(poset: FinitePoset) -> tuple | None:
    """First (x, y, z) with L(U(x,y),z) != LU(L(x,z),L(y,z)), or None;
    on ``poset.dual`` it is the dual form.  The left side is one
    closure, as L(U(A),z) = LU(A) ∩ ↓z.  U turns unions into
    intersections, so the right side is L(T[x][z] ∩ T[y][z]) with the
    pair table T[a][z] = U(↓a ∩ ↓z): one AND per triple, and one lower
    cone per distinct mask.  A principal cone is looked up, not worked
    out: U(↓m) = ↑m and L(↑m) = ↓m, so on a lattice every cone is one
    lookup.  Each row of T is built on first use.

    Only triples where the identity can fail are visited, so the first
    violation is the one the full walk over all x, y, z meets first:

    * both sides are symmetric in x and y, so a pair y < x already
      passed as (y, x);
    * for comparable x, y, with m the larger, LU(x,y) = ↓m and the union
      of L(x,z) and L(y,z) is the lower cone ↓m ∩ ↓z, which is closed:
      both sides are ↓m ∩ ↓z;
    * for z in ↓x ∪ ↓y, say z <= x, ↓z lies in LU(x,y) and L(x,z) = ↓z:
      both sides are ↓z;
    * for z in U(x,y), LU(x,y) lies in ↓z and L(x,z) ∪ L(y,z) = ↓x ∪ ↓y:
      both sides are LU(x,y)."""
    lo, up, below, above = poset.lower_cone, poset.upper_cone, poset.down, poset.up
    by_below, by_above = poset.by_down, poset.by_up

    def upper(mask: int) -> int:
        m = by_below.get(mask)
        return up(mask) if m is None else above[m]

    def lower(mask: int) -> int:
        m = by_above.get(mask)
        return lo(mask) if m is None else below[m]

    table = [None] * poset.n

    def row(a: int) -> list[int]:
        if table[a] is None:
            table[a] = [upper(below[a] & b) for b in below]
        return table[a]

    lowers, full = {}, poset.full
    for x in range(poset.n):
        # the y > x incomparable to x; -(2 << x) marks the ids above x
        for y in bits(full & ~(below[x] | above[x]) & -(2 << x)):
            row_x, row_y = row(x), row(y)
            closed = lower(above[x] & above[y])
            for z in bits(full & ~(below[x] | below[y] | above[x] & above[y])):
                mask = row_x[z] & row_y[z]
                rhs = lowers.get(mask)
                if rhs is None:
                    rhs = lowers[mask] = lower(mask)
                if closed & below[z] != rhs:
                    return (x, y, z)
    return None


def _distributive_report(lower_form: tuple | None, upper_form: tuple | None,
                         name_of) -> CheckReport:
    if (lower_form is None) != (upper_form is None):
        raise InternalError("the two distributivity identities must agree")
    if lower_form is None:
        return CheckReport("distributive", True)
    x, y, z = lower_form
    return CheckReport("distributive", False,
                       witness={"x": name_of(x), "y": name_of(y), "z": name_of(z)},
                       details="L(U(x,y),z) differs from LU(L(x,z),L(y,z))")


def _irreducible_not_prime(base: FinitePoset, sets: Sequence[int], cones: Sequence[int]) -> bool:
    """Whether some join-irreducible of a lattice is not join-prime.  The
    lattice is given by closed sets of ``base`` and their upper cones
    U(X), and its join-irreducibles are principal: the ↓x with
    closure(↓x \\ {x}) != ↓x.  Such a j is join-prime exactly when
    X ∨ ↓j, that is L(U(X) ∩ ↑j), holds no irreducible outside X ∪ ↓j,
    for every closed X not containing j; one lower cone per distinct
    U(X) ∩ ↑j, looked up in ``by_up`` first, as L(↑m) = ↓m.  On
    ``base.dual``, with the sets and cones swapped, it reads the lattice
    through the U(X) and asks the same of the meet-irreducibles.  The
    irreducibles are kept on ``base``."""
    lo, below, above, by_above = base.lower_cone, base.down, base.up, base.by_up
    irreducible = base.kept(_join_irreducibles)
    joins = {}
    for closed, cone in zip(sets, cones):
        for j in bits(irreducible & ~closed):
            mask = cone & above[j]
            joined = joins.get(mask)
            if joined is None:
                m = by_above.get(mask)
                joined = joins[mask] = lo(mask) if m is None else below[m]
            if joined & irreducible & ~(closed | below[j]):
                return True
    return False


def is_distributive_poset(poset: FinitePoset) -> CheckReport:
    """Cone distributivity; kept.  On a lattice the cones are principal and
    the identities are the distributive law, so Birkhoff's criterion
    decides it; otherwise both displayed identities are walked."""
    return poset.kept(_distributive_poset_report)


def _distributive_poset_report(poset: FinitePoset) -> CheckReport:
    if not is_lattice(poset):
        return _distributive_report(_distributive_violation(poset),
                                    _distributive_violation(poset.dual),
                                    poset.names.__getitem__)
    return is_distributive_lattice(poset)


def is_distributive_lattice(lattice: FinitePoset) -> CheckReport:
    """Distributivity of a lattice by Birkhoff's criterion
    (:func:`_distributive_law`).  Only a failure walks the cone
    identities, to name the first triple where they differ; on a lattice
    they are the distributive law, so this is the verdict and witness of
    :func:`is_distributive_poset`."""
    if _distributive_law(lattice):
        return CheckReport("distributive", True)
    report = _distributive_report(_distributive_violation(lattice),
                                  _distributive_violation(lattice.dual),
                                  lattice.names.__getitem__)
    if report.holds:
        raise InternalError("a lattice failing Birkhoff's criterion must have a witness triple")
    return report


def _distributive_law(lattice: FinitePoset) -> bool:
    """Whether a lattice is distributive, with no witness: Birkhoff's
    criterion, every join-irreducible join-prime (Davey & Priestley
    2002), decided once on the join- and once on the meet-irreducibles."""
    if isinstance(lattice, DMLattice):
        base, sets, cones = lattice.base, lattice.closed, lattice.kept(_closed_upper_cones)
    else:
        lattice.require_lattice()
        base, sets, cones = lattice, lattice.down, lattice.up
    fails = _irreducible_not_prime(base, sets, cones)
    if fails != _irreducible_not_prime(base.dual, cones, sets):
        raise InternalError("the join-prime and meet-prime criteria must agree")
    return not fails


def _closed_upper_cones(lattice: DMLattice) -> tuple[int, ...]:
    """U(X) in the base for each closed set X of a completion."""
    return tuple(map(lattice.base.upper_cone, lattice.closed))


def is_boolean_poset(poset: FinitePoset) -> CheckReport:
    comp = is_complementation(poset)
    if not comp.holds:
        return CheckReport("boolean", False, witness=comp.witness,
                           details="involution is not a complementation: " + comp.details)
    dist = is_distributive_poset(poset)
    if not dist.holds:
        return CheckReport("boolean", False, witness=dist.witness,
                           details=dist.details)
    return CheckReport("boolean", True)


# -- orthomodularity ----------------------------------------------------


def is_orthomodular_poset(poset: FinitePoset) -> CheckReport:
    """Orthogonal pairs have joins and ((x^y) v y')^ y = x^y holds; kept,
    so the check ``greechie_to_omp`` makes on a pasted poset is the
    report its ``orthomodular-poset`` property reads.  The cones of a
    pair are ↓a ∩ ↓b and ↑a ∩ ↑b, so each meet and join is one principal
    lookup.

    The identity is evaluated only where its subterms exist; a missing
    subterm counts as a failure exactly on orthogonal pairs (where the
    axioms promise existence) and skips the pair otherwise.
    """
    return poset.kept(_orthomodular_poset_report)


def _orthomodular_poset_report(poset: FinitePoset) -> CheckReport:
    inv = poset.require_complementation("orthomodularity")
    up, down, by_up, by_down = poset.up, poset.down, poset.by_up, poset.by_down

    def fail(x: int, y: int, details: str) -> CheckReport:
        return CheckReport("orthomodular-poset", False,
                           witness={"x": poset.names[x], "y": poset.names[y]},
                           details=details)

    for x in range(poset.n):
        for y in range(poset.n):
            orthogonal = bool((up[x] >> inv[y]) & 1)
            if orthogonal and up[x] & up[y] not in by_up:
                return fail(x, y, "orthogonal pair without a join")
            meet_xy = by_down.get(down[x] & down[y])
            if meet_xy is not None:
                j = by_up.get(up[meet_xy] & up[inv[y]])
                if j is not None:
                    outer = by_down.get(down[j] & down[y])
                    if outer is not None:
                        if outer != meet_xy:
                            return fail(x, y, "((x^y) v y') ^ y differs from x^y")
                        continue
            if orthogonal:
                return fail(x, y, "identity subterm undefined on an orthogonal pair")
    return CheckReport("orthomodular-poset", True)


def _exchange_violation(lattice: FinitePoset) -> tuple[int, int] | None:
    """First x < y in the order, ids ascending, with x' ^ y = 0, or None,
    read through ``meet_sets``.  Its readers keep it on the lattice, so
    strong D-continuity and completion orthomodularity scan once."""
    sets, _ = lattice.meet_sets
    inv, zero = lattice.inv, sets[lattice.bottom]
    for x, row in enumerate(lattice.up):
        image = sets[inv[x]]
        for y in bits(row & ~(1 << x)):
            if sets[y] & image == zero:
                return x, y
    return None


def is_orthomodular_lattice(lattice: FinitePoset) -> CheckReport:
    """Lattice orthomodularity by :func:`_orthomodular_law`.  Only a
    failure walks all pairs (x, y) in order, to name the first with
    ((x v y) ^ y') v y != x v y."""
    _orthocomplemented(lattice)
    if _orthomodular_law(lattice):
        return CheckReport("orthomodular-lattice", True)
    sets, index = lattice.meet_sets
    primes = [sets[k] for k in lattice.inv]
    for x, prime_x in enumerate(primes):
        for y, prime_y in enumerate(primes):
            a = prime_x & prime_y
            if primes[index[primes[index[a]] & prime_y]] & prime_y != a:
                return CheckReport("orthomodular-lattice", False,
                                   witness={"x": lattice.names[x], "y": lattice.names[y]},
                                   details="((x v y) ^ y') v y differs from x v y")
    raise InternalError("a failed orthomodular identity must have a witness pair")


def _orthocomplemented(lattice: FinitePoset) -> None:
    """Return only once the lattice's involution is an
    orthocomplementation.  A completion's lifted involution is antitone
    by construction; a lattice poset's is checked (kept).  Then each k
    must meet k' in 0 and join it in 1, O(m) lookups in ``meet_sets``.
    Raises MissingInvolution, NotComplemented, NotALattice or
    MissingBounds where that fails."""
    if isinstance(lattice, DMLattice):
        if lattice.inv is None:
            raise MissingInvolution("completion carries no involution")
    else:
        if lattice.inv is not None:
            anti = is_antitone_involution(lattice)
            if not anti.holds:
                raise NotComplemented("involution is not antitone: " + anti.details)
        lattice.require_lattice()
        lattice.require_involution()
        lattice.require_bounds()
    sets, index = lattice.meet_sets
    inv, bottom, top = lattice.inv, lattice.bottom, lattice.top
    for k, row in enumerate(sets):
        meet = index[row & sets[inv[k]]]
        if meet != bottom or inv[meet] != top:
            raise NotComplemented(f"{lattice.names[k]} meets or joins its image improperly")


def _orthomodular_law(lattice: FinitePoset) -> bool:
    """Whether a lattice that passed :func:`_orthocomplemented` satisfies
    x v y = ((x v y) ^ y') v y, with no witness; cross checked against
    the x <= y, x' ^ y = 0 implies x = y condition.

    A meet is index[sets[a] & sets[b]] of ``meet_sets`` and a join, by
    De Morgan through the involution, inv[index[sets[a'] & sets[b']]]:
    no table is built.  Through the involution the identity reads
    (a v y) ^ y' = a for a = x' ^ y', and every a <= y' is such a meet
    (take x = a'), so it is decided on the comparable pairs a <= y' alone.
    """
    sets, index = lattice.meet_sets
    inv, bottom, top = lattice.inv, lattice.bottom, lattice.top
    primes = [sets[k] for k in inv]  # primes[k] is the down-set of k'
    # a v y is the image of a' ^ y', and z stands for y'; as k ^ k' = 0
    # and k v k' = 1, the law holds outright where a = z, a = 0 or z = 1
    skip = 1 << top
    law = all(primes[index[primes[a] & sets[z]]] & sets[z] == sets[a]
              for a, row in enumerate(lattice.up) if a != bottom
              for z in bits(row & ~(1 << a | skip)))
    if law != (lattice.kept(_exchange_violation) is None):
        raise InternalError("orthomodular identity and exchange condition must agree")
    return law


def _lattice_ops(lattice: FinitePoset) -> tuple:
    """Element-valued join and meet of a lattice, with no table: a join
    is the principal up-set ↑a ∩ ↑b looked up in ``by_up``, a meet
    ``index[sets[a] & sets[b]]`` of ``meet_sets``.  Raises NotALattice
    on a poset that is not one."""
    lattice.require_lattice()
    up, by_up = lattice.up, lattice.by_up
    sets, index = lattice.meet_sets

    def join(a: int, b: int) -> int:
        return by_up[up[a] & up[b]]

    def meet(a: int, b: int) -> int:
        return index[sets[a] & sets[b]]

    return join, meet


def find_modularity_violation(lattice: FinitePoset) -> dict | None:
    """First x < z and y with x v (y ^ z) != (x v y) ^ z, or None.

    x = z passes outright, and so does every y comparable to x or to z,
    so only the y incomparable to both are visited and the first
    violation is the one the walk over all y meets first:

    * y <= x: y ^ z = y, and both sides are x;
    * y >= x: x v y = y, and both sides are y ^ z;
    * y <= z: y ^ z = y, and both sides are x v y;
    * y >= z: x v y >= z, and both sides are z.
    """
    join, meet = _lattice_ops(lattice)
    up, down, full, names = lattice.up, lattice.down, lattice.full, lattice.names
    for x in range(lattice.n):
        for z in bits(up[x] & ~(1 << x)):
            for y in bits(full & ~(up[x] | down[x] | up[z] | down[z])):
                if join(x, meet(y, z)) != meet(join(x, y), z):
                    return {"x": names[x], "y": names[y], "z": names[z]}
    return None


def _semimodular(lattice: FinitePoset) -> bool:
    """Whether a lattice is upper and lower semimodular, which in finite
    length is modularity (Grätzer, Lattice Theory: Foundation, 2011).
    Upper: two upper covers a, b of one element have a join covering
    both; lower, dually, two lower covers have a meet covered by both.
    Read on the kept cover rows, one join or meet per pair of covers."""
    join, meet = _lattice_ops(lattice)
    for rows, op in ((lattice.upper_covers, join), (lattice.lower_covers, meet)):
        for row in rows:
            covers = list(bits(row))
            for i, a in enumerate(covers):
                for b in covers[i + 1:]:
                    c = 1 << op(a, b)
                    if not rows[a] & rows[b] & c:
                        return False
    return True


def is_modular_lattice(lattice: FinitePoset) -> CheckReport:
    """Modularity by semimodularity on covers (:func:`_semimodular`).
    Only a failure walks the triples of
    :func:`find_modularity_violation`, to name the first witness; a walk
    that finds none raises InternalError."""
    if _semimodular(lattice):
        return CheckReport("modular", True)
    bad = find_modularity_violation(lattice)
    if bad is None:
        raise InternalError("semimodularity and the modular law must agree")
    return CheckReport("modular", False, witness=bad,
                       details="x v (y ^ z) differs from (x v y) ^ z for x <= z")


# -- pseudo-orthomodularity ---------------------------------------------


def _pseudo_om_violation(poset: FinitePoset) -> tuple | None:
    """First (x, y) with L(U(L(x,y),y'),y) != L(x,y), or None; on
    ``poset.dual`` it is the dual form.  The outer term is one closure,
    LU(L(x,y),y') ∩ ↓y, worked out once per distinct L(x,y) ∪ {y'}.
    The poset is complemented, so the identity holds outright where
    L(x,y) is ↓y (U(y,y') is {1}) or {0} (LU(0,y') ∩ ↓y is L(y',y)),
    and those pairs are skipped."""
    inv, lo, up, below = poset.inv, poset.lower_cone, poset.upper_cone, poset.down
    zero = 1 << poset.bottom
    closures = {}
    for x in range(poset.n):
        for y in range(poset.n):
            pair = below[x] & below[y]
            if pair == below[y] or pair == zero:
                continue
            key = pair | 1 << inv[y]
            closed = closures.get(key)
            if closed is None:
                closed = closures[key] = lo(up(key))
            if closed & below[y] != pair:
                return (x, y)
    return None


def is_pseudo_orthomodular(poset: FinitePoset) -> CheckReport:
    """L(U(L(x,y),y'),y) = L(x,y) for all pairs, plus the dual form."""
    poset.require_complementation("pseudo-orthomodularity")
    lower_form = _pseudo_om_violation(poset)
    upper_form = _pseudo_om_violation(poset.dual)
    if (lower_form is None) != (upper_form is None):
        raise InternalError("the two pseudo-orthomodularity identities must agree")
    if lower_form is None:
        return CheckReport("pseudo-orthomodular", True)
    x, y = lower_form
    return CheckReport("pseudo-orthomodular", False,
                       witness={"x": poset.names[x], "y": poset.names[y]},
                       details="L(U(L(x,y),y'),y) differs from L(x,y)")


# -- strong D-continuity -------------------------------------------------


def is_strongly_d_continuous(poset: FinitePoset,
                             lattice: DMLattice | None = None) -> CheckReport:
    """For every B <= C: the elements of C together with the involution
    images of B meet only in 0 exactly when every lower bound of C is
    below every upper bound of B.

    The infimum-is-zero premise is read as a lower cone condition,
    L(C united with B-images) = {0}.  The quantification is reduced to
    closed representatives: (B, C) = (X, U(Y)) over closed X inside Y,
    which covers all subset pairs because both sides depend on (B, C)
    only through LU(B) and L(C).  As inv(U(X)) = L(X-images) is X' in
    the completion, this is its exchange condition, scanned over
    the completion's up rows: on a complemented poset it equals
    ``completion-orthomodular``, with no use of pseudo-orthomodularity.
    """
    poset.require_complementation("strong D-continuity")
    if lattice is None:
        lattice = complete(poset)
    closed, inv = lattice.closed, lattice.inv
    zero = closed[lattice.bottom]
    for k, mask in enumerate(closed):
        # one-line direction: valid outright in any complemented poset
        if mask & closed[inv[k]] != zero:
            raise InternalError("a complemented poset cannot fail the backward direction")
    pair = lattice.kept(_exchange_violation)
    if pair is None:
        return CheckReport("strongly-d-continuous", True,
                           details="infimum-is-zero read as L(C,B') = {0}")
    x, y = pair
    return CheckReport(
        "strongly-d-continuous", False,
        witness={"B": poset.names_of(closed[x]),
                 "C": poset.names_of(poset.upper_cone(closed[y]))},
        details="cone meets in 0 but some lower bound of C "
                "is not below some upper bound of B")


def naive_strongly_d_continuous(poset: FinitePoset) -> CheckReport:
    """Every-subset-pair version, for cross validation on small posets."""
    poset.require_complementation("strong D-continuity")
    if poset.n > 14:
        raise SizeLimitExceeded(
            f"naive quantification is exponential; {poset.n} elements, at most 14")
    bottom_mask = 1 << poset.bottom
    for b_set in range(poset.full + 1):
        upper_b = poset.upper_cone(b_set)
        shifted = poset.lower_cone(poset.inv_image(b_set))
        for c_set in range(poset.full + 1):
            if c_set & ~upper_b:
                continue  # not B <= C
            lower_c = poset.lower_cone(c_set)
            zero_meet = lower_c & shifted == bottom_mask
            dominated = lower_c & ~poset.lower_cone(upper_b) == 0
            if zero_meet != dominated:
                return CheckReport(
                    "strongly-d-continuous", False,
                    witness={"B": poset.names_of(b_set), "C": poset.names_of(c_set)},
                    details="naive quantification")
    return CheckReport("strongly-d-continuous", True, details="naive quantification")


# -- completion orthomodularity through maximal orthogonal sets ----------


def finch_criterion(poset: FinitePoset, lattice: DMLattice | None = None) -> CheckReport:
    """Every maximal orthogonal subset of a closed set generates it.

    Equivalent to the completion being an orthomodular lattice; the
    closed set of 0 alone is excluded from the quantification.  The
    witness is the first maximal orthogonal subset that fails, in the
    order of :func:`_first_ungenerating`'s search.
    """
    poset.require_complementation("the criterion")
    if lattice is None:
        lattice = complete(poset)
    zero_closed = lattice.closed[lattice.bottom]
    for mask, gens in zip(lattice.closed, lattice.generators):
        if mask == zero_closed:
            continue
        subset = _first_ungenerating(poset, mask, poset.upper_cone(gens))
        if subset is not None:
            return CheckReport(
                "finch", False,
                witness={"closed-set": poset.names_of(mask),
                         "maximal-orthogonal": poset.names_of(subset)},
                details="maximal orthogonal subset generates a smaller closed set")
    return CheckReport("finch", True)


def _first_ungenerating(poset: FinitePoset, closed: ElementSet,
                        cone: ElementSet) -> ElementSet | None:
    """The first maximal orthogonal subset S of a closed set X with
    U(S) != U(X), given ``cone`` = U(X), or None.

    The maximal orthogonal subsets are the maximal cliques of the
    ``perp`` graph on X, found by Bron-Kerbosch (CACM 16, 1973) with
    both of its cuts: an excluded vertex orthogonal to every candidate
    would extend each clique found below, so that branch holds none,
    and once the vertex just taken out is such a vertex the rest of the
    branch is cut too.  The candidates and excluded vertices always lie
    inside X, so a ``perp`` row needs no cutting down to X.  U(chosen)
    is carried down the search, one AND per step.

    U(S) = U(X) exactly when S generates X, that is LU(S) = X: S lies
    inside X, so U(S) contains U(X); if they are equal then
    LU(S) = LU(X) = X, as X is closed, and if LU(S) = X then
    U(S) = ULU(S) = U(X)."""
    perp, above = poset.perp, poset.up

    def expand(chosen: int, candidates: int, excluded: int, upper: int) -> int | None:
        if candidates == 0:
            return chosen if excluded == 0 and upper != cone else None
        rest = excluded
        while rest:
            low = rest & -rest
            rest ^= low
            if candidates & ~perp[low.bit_length() - 1] == 0:
                return None
        rest = candidates
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            row = perp[v]
            found = expand(chosen | low, candidates & row, excluded & row, upper & above[v])
            if found is not None:
                return found
            candidates ^= low
            excluded |= low
            rest ^= low
            if candidates & ~row == 0:
                return None
        return None

    return expand(0, closed, 0, poset.full)


# -- doubly dense subsets ------------------------------------------------


def is_complement_closed_doubly_dense(lattice: FinitePoset, subset: ElementSet) -> CheckReport:
    """subset contains the bounds, is involution closed, and every
    lattice element is both a join and a meet of subset elements."""
    lattice.require_lattice()
    comp = is_complementation(lattice)
    if not comp.holds:
        raise NotComplemented("doubly dense subsets live in complemented lattices")
    bottom, top = lattice.require_bounds()
    name = "complement-closed-doubly-dense"
    for k in (bottom, top):
        if not (subset >> k) & 1:
            return CheckReport(name, False, witness={"missing": lattice.names[k]},
                               details="subset must contain the bounds")
    if lattice.inv_image(subset) != subset:
        stray = subset & ~lattice.inv_image(subset)
        culprit = next(bits(stray | (lattice.inv_image(subset) & ~subset)))
        return CheckReport(name, False, witness={"x": lattice.names[culprit]},
                           details="subset is not closed under the involution")
    for a in range(lattice.n):
        if lattice.join_of(lattice.down[a] & subset) != a:
            return CheckReport(name, False, witness={"a": lattice.names[a]},
                               details="element is not the join of subset elements below it")
        if lattice.meet_of(lattice.up[a] & subset) != a:
            return CheckReport(name, False, witness={"a": lattice.names[a]},
                               details="element is not the meet of subset elements above it")
    return CheckReport(name, True)


def doubly_dense_subsets(lattice: FinitePoset) -> Iterator[ElementSet]:
    """Exhaustively enumerate complement-closed doubly dense subsets."""
    bottom, top = lattice.require_bounds()
    inv = lattice.require_involution()
    base = (1 << bottom) | (1 << top)
    orbits = []
    seen = base
    for i in range(lattice.n):
        if not (seen >> i) & 1:
            orbit = (1 << i) | (1 << inv[i])
            orbits.append(orbit)
            seen |= orbit
    for combo in range(1 << len(orbits)):
        mask = base
        for k in bits(combo):
            mask |= orbits[k]
        if is_complement_closed_doubly_dense(lattice, mask).holds:
            yield mask


# -- named check registry ------------------------------------------------


class CheckContext:
    """Carries a poset and computes its completion at most once."""

    def __init__(self, poset: FinitePoset, max_closed_sets: int = DEFAULT_MAX_CLOSED_SETS):
        self.poset = poset
        self.max_closed_sets = max_closed_sets
        self._dm: DMLattice | SizeLimitExceeded | None = None

    @property
    def dm(self) -> DMLattice:
        """The completion; a hit cap is kept and raised again on every
        later access rather than recomputed."""
        if self._dm is None:
            try:
                self._dm = complete(self.poset, self.max_closed_sets)
            except SizeLimitExceeded as exc:
                self._dm = exc
        if isinstance(self._dm, SizeLimitExceeded):
            raise self._dm.with_traceback(None)
        return self._dm


def _atomic_report(ctx: CheckContext) -> CheckReport:
    poset = ctx.poset
    bottom, _ = poset.require_bounds()
    atom_mask = poset.atoms()
    for i in range(poset.n):
        if i != bottom and poset.down[i] & atom_mask == 0:
            return CheckReport("atomic", False, witness={"x": poset.names[i]},
                               details="no atom below a nonzero element")
    return CheckReport("atomic", True)


def _atomistic_report(ctx: CheckContext) -> CheckReport:
    poset = ctx.poset
    atom_mask = poset.atoms()
    for i in range(poset.n):
        if poset.join_of(poset.down[i] & atom_mask) != i:
            return CheckReport("atomistic", False, witness={"x": poset.names[i]},
                               details="element is not the join of the atoms below it")
    return CheckReport("atomistic", True)


def _orthocomplete_report(ctx: CheckContext) -> CheckReport:
    """Every orthogonal subset has a join.  A finite lattice is complete
    (Davey & Priestley 2002, ch. 2), so only a non-lattice walks them."""
    poset = ctx.poset
    bottom, _ = poset.require_bounds()
    poset.require_involution()
    if is_lattice(poset):
        return CheckReport("orthocomplete", True)
    for subset in orthogonal_subsets(poset, poset.full & ~(1 << bottom)):
        if poset.join_of(subset) is None:
            return CheckReport("orthocomplete", False,
                               witness={"subset": poset.names_of(subset)},
                               details="orthogonal subset without a join")
    return CheckReport("orthocomplete", True)


def _lattice_report(ctx: CheckContext) -> CheckReport:
    bad = ctx.poset.kept(lattice_violation)
    if bad is None:
        return CheckReport("lattice", True)
    return CheckReport("lattice", False,
                       witness={"x": bad["x"], "y": bad["y"]},
                       details=f"pair has no {bad['missing']}")


def _renamed(report: CheckReport, name: str) -> CheckReport:
    return CheckReport(name, report.holds, report.witness, report.details, report.extra)


PROPERTIES = {
    "antitone-involution": lambda ctx: is_antitone_involution(ctx.poset),
    "complementation": lambda ctx: is_complementation(ctx.poset),
    "lattice": _lattice_report,
    "atomic": _atomic_report,
    "atomistic": _atomistic_report,
    "orthocomplete": _orthocomplete_report,
    "distributive": lambda ctx: is_distributive_poset(ctx.poset),
    "boolean": lambda ctx: is_boolean_poset(ctx.poset),
    "modular": lambda ctx: is_modular_lattice(ctx.poset),
    "orthomodular-poset": lambda ctx: is_orthomodular_poset(ctx.poset),
    "orthomodular-lattice": lambda ctx: is_orthomodular_lattice(ctx.poset),
    "pseudo-orthomodular": lambda ctx: is_pseudo_orthomodular(ctx.poset),
    "strongly-d-continuous": lambda ctx: is_strongly_d_continuous(ctx.poset, ctx.dm),
    "finch": lambda ctx: finch_criterion(ctx.poset, ctx.dm),
    "completion-orthomodular": lambda ctx: _renamed(
        is_orthomodular_lattice(ctx.dm), "completion-orthomodular"),
    "completion-distributive": lambda ctx: _renamed(
        is_distributive_lattice(ctx.dm), "completion-distributive"),
    "completion-modular": lambda ctx: _renamed(
        is_modular_lattice(ctx.dm), "completion-modular"),
}


def run_check(name: str, poset: FinitePoset,
              max_closed_sets: int = DEFAULT_MAX_CLOSED_SETS) -> CheckReport:
    if name not in PROPERTIES:
        raise KeyError(f"unknown property {name!r}")
    return PROPERTIES[name](CheckContext(poset, max_closed_sets))


# Errors that leave a property undecided rather than failed: the input
# lacks what the property presupposes, or its completion hit the cap.
PRECONDITION_ERRORS = (
    MissingInvolution,
    MissingBounds,
    NotComplemented,
    NotALattice,
    SizeLimitExceeded,
)


def run_properties(ctx: CheckContext, names: Iterable[str]):
    """Evaluate properties in order, yielding (name, report, None), or
    (name, None, exc) when a precondition error left the property
    undecided.  Each entry is read from PROPERTIES as it runs."""
    for name in names:
        try:
            yield name, PROPERTIES[name](ctx), None
        except PRECONDITION_ERRORS as exc:
            yield name, None, exc
