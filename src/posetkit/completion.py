"""Dedekind-MacNeille completion of a finite poset.

A subset B is closed when L(U(B)) = B.  The closed sets ordered by
inclusion form a complete lattice into which the poset embeds via
x -> L(x); the embedding preserves all existing joins and meets.  The
closed sets are exactly the carrier together with every intersection of
principal down-sets L(x), and the meet-irreducible ones alone generate
them, so they are grown as an intersection-closed family from those rows
in O(|M|·m) set operations, for |M| meet-irreducibles and m closed sets,
and then sorted into lectic order; the position in that order is the
canonical order on completion elements.  Each closed set that is not
principal is then walked once for its generators, name, up row and
involution image.
"""

from __future__ import annotations

from .errors import InternalError, SizeLimitExceeded
from .poset import FinitePoset, _join_irreducibles, bits, is_antitone_involution, transposed
from .report import CheckReport

DEFAULT_MAX_CLOSED_SETS = 100_000


class DMLattice(FinitePoset):
    """Completion of ``base``: all closed subsets in lectic order, as a
    poset whose element k is the closed set ``closed[k]``.  Its rows
    record inclusion among distinct sets, so they are reflexive,
    antisymmetric and transitive by construction and are not validated
    again; only the names are checked to be distinct."""

    __slots__ = ("base", "closed", "index", "embed", "generators")

    def __init__(self, base: FinitePoset, closed: list[int]):
        """One walk over each closed set X that is not principal.  X is a
        down-set, so its maximal elements, its generators, decide
        inclusion (X inside Y exactly when max X is): a bit e of X is a
        generator when ``X & up[e]`` is e alone, and each ANDs the closed
        sets holding it into the up row of X, adds its name and ANDs ↓e'
        into the involution image.  A principal ↓x is read through x, its
        one generator."""
        self.base = base
        self.closed = tuple(closed)
        self.index = index = {mask: k for k, mask in enumerate(closed)}
        self.embed = embed = tuple(index[row] for row in base.down)
        # point[k] is the x with closed[k] = ↓x, or None
        point = [None] * len(closed)
        for x, k in enumerate(embed):
            point[k] = x
        inv = base.inv if base.inv is not None and is_antitone_involution(base).holds else None
        # below_inv[e] is ↓e'; with no involution to lift it cuts nothing
        below_inv = [base.full] * base.n if inv is None else [base.down[i] for i in inv]
        holders = transposed(self.closed, base.n)
        base_names, base_up, full = base.names, base.up, (1 << len(closed)) - 1
        names, rows, generators, star = [], [], [], []
        for x, mask in zip(point, closed):
            if x is not None:
                names.append(base_names[x])
                rows.append(holders[x])
                generators.append(1 << x)
                if inv is not None:
                    star.append(embed[inv[x]])
                continue
            row, parts, gens, image, rest = full, [], 0, base.full, mask
            while rest:
                low = rest & -rest
                rest ^= low
                e = low.bit_length() - 1
                if mask & base_up[e] == low:
                    gens |= low
                    row &= holders[e]
                    parts.append(base_names[e])
                    image &= below_inv[e]
            names.append("∨".join(parts) or "{}")
            rows.append(row)
            generators.append(gens)
            if inv is not None:
                if image not in index:
                    raise InternalError("involution image is not closed")
                star.append(index[image])
        self.generators = tuple(generators)
        self._store(tuple(names), tuple(rows),
                    None if inv is None else self._lifted_involution(star))
        self.bottom = index[base.closure(0)]
        self.top = index[base.full]

    def __len__(self):
        return len(self.closed)

    def _lifted_involution(self, star: list[int]) -> tuple[int, ...]:
        """X -> L(inv max X), the images found by the constructor's walk,
        checked to be involutive and to extend the base involution before
        it is trusted.  The base involution is antitone, so L(inv max X)
        is L(inv X), and the image of a principal ↓x is ↓x'.

        The lift is antitone by construction.  If X is inside Y, each g in
        max X lies below some h in max Y, so h' <= g' as the base
        involution is antitone; every lower bound of the h' is then below
        each g', and L(inv max Y) is inside L(inv max X)."""
        base, embed = self.base, self.embed
        for k in range(len(self.closed)):
            if star[star[k]] != k:
                raise InternalError("induced involution is not involutive")
        for i in range(base.n):
            if self.closed[star[embed[i]]] != base.down[base.inv[i]]:
                raise InternalError("induced involution does not extend the base involution")
        return tuple(star)

    @property
    def down(self) -> tuple[int, ...]:
        """Row k marks, by index, the closed sets inside closed[k]: the up
        rows transposed, built on first use and kept.  Only the witness
        walks and serialisation read them; meets read :attr:`meet_sets`."""
        return self.kept(_down_rows)

    @property
    def meet_sets(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """The closed sets and ``index``: a meet reads no down rows."""
        return self.closed, self.index

    @property
    def join_sets(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """U(X) in the base for each closed set X, from its generators, and
        the index of each cone, built on first use and kept: X = LU(X),
        and U(X v Y) = U(X) ∩ U(Y), so a join reads no up rows."""
        return self.kept(_join_sets)

    @property
    def upper_covers(self) -> tuple[int, ...]:
        """Row k marks, by index, the closed sets covering closed[k], found
        by joins with the join-irreducibles (:func:`_cover_rows`); kept."""
        return self.kept(_cover_rows)

    def require_lattice(self) -> None:
        """Nothing to check: the closed sets of any poset form a complete
        lattice under inclusion, meets being intersections."""

    def as_poset(self) -> "DMLattice":
        """The completion itself, which is already a poset; element ids
        equal the lectic enumeration indices."""
        return self


def _down_rows(lattice: DMLattice) -> tuple[int, ...]:
    return transposed(lattice.up, len(lattice))


def _join_sets(lattice: DMLattice) -> tuple[tuple[int, ...], dict[int, int]]:
    # a principal ↓x, the one closed set generated by x alone, has U = ↑x
    up, upper = lattice.base.up, lattice.base.upper_cone
    cones = tuple(up[g.bit_length() - 1] if g.bit_count() == 1 else upper(g)
                  for g in lattice.generators)
    return cones, {cone: k for k, cone in enumerate(cones)}


def _cover_rows(lattice: DMLattice) -> tuple[int, ...]:
    """Row k marks, by index, the closed sets covering X = closed[k].
    Every closed Y above X is the join of the join-irreducibles below it,
    which are principal, the ↓j with j in the kept mask J of the base
    (see ``poset._join_irreducibles``), and one of them is not inside X;
    so Y holds C_j = X v ↓j = closure(X ∪ ↓j) for some j in J outside X,
    and the covers of X are the minimal C_j (Ganter & Wille, Formal
    Concept Analysis, 1999).  A C_j is minimal exactly when every j' of
    J in C_j \\ X gives C_j again: a j' whose C_j' differs has C_j'
    inside C_j, and properly so.  Each C_j is one join of ``join_sets``,
    ``index[U(X) & up[j]]`` on base rows: O(m·|J|) of them."""
    base = lattice.base
    irreducible = base.kept(_join_irreducibles)
    points = [(1 << j, base.up[j]) for j in bits(irreducible)]
    closed, (cones, index) = lattice.closed, lattice.join_sets
    rows = []
    for mask, cone in zip(closed, cones):
        found = {}
        for low, above in points:
            if not mask & low:
                c = index[cone & above]
                found[c] = found.get(c, 0) | low
        row = 0
        for c, outside in found.items():
            if outside == closed[c] & irreducible & ~mask:
                row |= 1 << c
        rows.append(row)
    return tuple(rows)


def complete(poset: FinitePoset,
             max_closed_sets: int = DEFAULT_MAX_CLOSED_SETS) -> DMLattice:
    """All closed subsets in lectic order.

    The family starts as {P} and takes in the principal down-sets L(x)
    largest first, which puts L(y) before L(x) whenever y > x.  A row
    already in the family is skipped; any other is intersected with
    every member, ``family |= {mask & row for mask in family}``.  The
    family stays closed under intersection and holds every row seen so
    far, so a row already in it is an intersection of earlier rows and
    adds nothing, and in the end it holds every intersection of principal
    down-sets.  L(x) is in the family when it comes exactly when it is
    the intersection of some earlier rows; those all contain x, so they
    are the L(y) of some y > x, and that is L(x) being meet-reducible in
    DM(P) (the top, the empty meet, included).  So only the |M|
    meet-irreducible rows are taken in, O(|M|·m) set operations for m
    closed sets (Ganter & Wille, Formal Concept Analysis, 1999).

    Lectic order puts A before B when the lowest element where they
    differ lies in B, so the family is sorted on its bit-reversed masks.
    Raises SizeLimitExceeded when there are more than max(cap, 1) closed
    sets, a completion of one closed set passing any cap.  The family
    only grows, so that is the size after some row; it is checked after
    each row taken in, which may at most double it, so the family can
    overshoot the cap by up to a factor of 2 before it is refused.
    """
    cap = max(max_closed_sets, 1)
    family = {poset.full}
    for row in sorted(poset.down, key=int.bit_count, reverse=True):
        if row in family:
            continue
        family |= {mask & row for mask in family}
        if len(family) > cap:
            raise SizeLimitExceeded(
                f"more than {max_closed_sets} closed sets; raise max_closed_sets")
    width = f"0{poset.n}b"
    return DMLattice(poset, sorted(family, key=lambda mask: format(mask, width)[::-1]))


def check_join_meet_density(poset: FinitePoset, lattice: DMLattice) -> CheckReport:
    """Every closed set is the join of embedded elements below it and the
    meet of embedded elements above it; both of these are LU(X)."""
    for mask in lattice.closed:
        if poset.closure(mask) != mask:
            return CheckReport("join-meet-density", False,
                               witness={"closed-set": poset.names_of(mask)},
                               details="not recovered from embedded elements")
    return CheckReport("join-meet-density", True,
                       details=f"{len(lattice)} closed sets")
