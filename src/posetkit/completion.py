"""Dedekind-MacNeille completion of a finite poset.

A subset B is closed when L(U(B)) = B.  The closed sets ordered by
inclusion form a complete lattice into which the poset embeds via
x -> L(x); the embedding preserves all existing joins and meets.  The
closed sets are exactly the carrier together with every intersection of
principal down-sets L(x), so they are grown as an intersection-closed
family and then sorted into lectic order; the position in that order is
the canonical order on completion elements.
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
        self.base = base
        self.closed = tuple(closed)
        self.index = {mask: k for k, mask in enumerate(closed)}
        self.embed = tuple(self.index[row] for row in base.down)
        # point[k] is the x with closed[k] = ↓x, or None: a principal set
        # is read through x, its one maximal element
        point = [None] * len(closed)
        for x, k in enumerate(self.embed):
            point[k] = x
        # closed sets are down-sets, so their maximal elements decide
        # inclusion (X inside Y exactly when max X is) and name them
        self.generators = tuple(base.maximal_of(mask) if x is None else 1 << x
                                for x, mask in zip(point, closed))
        inv = None
        if base.inv is not None and is_antitone_involution(base).holds:
            inv = self._lifted_involution(point)
        self._store(*self._names_and_up_rows(point), inv)
        self.bottom = self.index[base.closure(0)]
        self.top = self.index[base.full]

    def __len__(self):
        return len(self.closed)

    def _lifted_involution(self, point: list) -> tuple[int, ...]:
        """X -> L(X'-image), checked to be closed, involutive and to
        extend the base involution before it is trusted.  The base
        involution is antitone, so the images of the generators of X
        already have the lower cone of all of X'-image, and the image of
        a principal ↓x is ↓x'.

        The lift is antitone by construction.  If X is inside Y, each g in
        max X lies below some h in max Y, so h' <= g' as the base
        involution is antitone; every lower bound of the h' is then below
        each g', and L(inv max Y) is inside L(inv max X)."""
        base, embed = self.base, self.embed
        star = []
        for x, gens in zip(point, self.generators):
            if x is not None:
                star.append(embed[base.inv[x]])
                continue
            image = base.lower_cone(base.inv_image(gens))
            if image not in self.index:
                raise InternalError("involution image is not closed")
            star.append(self.index[image])
        for k in range(len(self.closed)):
            if star[star[k]] != k:
                raise InternalError("induced involution is not involutive")
        for i in range(base.n):
            if self.closed[star[embed[i]]] != base.down[base.inv[i]]:
                raise InternalError("induced involution does not extend the base involution")
        return tuple(star)

    def _names_and_up_rows(self, point: list) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """One pass over the generators of each closed set, which name it
        and give its up row: row i marks, by index, the closed sets that
        contain closed[i], the AND over the generators g of closed[i] of
        the closed sets holding g.  A principal ↓x takes the plain name of
        x and the holders of x as they are."""
        base_names, holders = self.base.names, [0] * self.base.n
        for k, mask in enumerate(self.closed):
            bit = 1 << k
            while mask:
                low = mask & -mask
                mask ^= low
                holders[low.bit_length() - 1] |= bit
        names, rows, full = [], [], (1 << len(self.closed)) - 1
        for x, mask in zip(point, self.generators):
            if x is not None:
                names.append(base_names[x])
                rows.append(holders[x])
                continue
            row, parts = full, []
            while mask:
                low = mask & -mask
                mask ^= low
                e = low.bit_length() - 1
                row &= holders[e]
                parts.append(base_names[e])
            names.append("∨".join(parts) or "{}")
            rows.append(row)
        return tuple(names), tuple(rows)

    @property
    def down(self) -> tuple[int, ...]:
        """Row k marks, by index, the closed sets inside closed[k]: the up
        rows transposed, built on first use and kept.  Only the tables, the
        witness walks and serialisation read them."""
        return self.kept(_down_rows)

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
    return transposed(lattice.up)


def _cover_rows(lattice: DMLattice) -> tuple[int, ...]:
    """Row k marks, by index, the closed sets covering X = closed[k].
    Every closed Y above X is the join of the join-irreducibles below it,
    which are principal, the ↓j with j in the kept mask J of the base
    (see ``poset._join_irreducibles``), and one of them is not inside X;
    so Y holds C_j = X v ↓j = closure(X ∪ ↓j) for some j in J outside X,
    and the covers of X are the minimal C_j (Ganter & Wille, Formal
    Concept Analysis, 1999).  A C_j is minimal exactly when every j' of
    J in C_j \\ X gives C_j again: a j' whose C_j' differs has C_j'
    inside C_j, and properly so.  Each C_j is one join, the up rows of X
    and ↓j ANDed and looked up in ``by_up``: O(m·|J|) of them."""
    irreducible = lattice.base.kept(_join_irreducibles)
    points = [(1 << j, lattice.embed[j]) for j in bits(irreducible)]
    closed, up, by_up = lattice.closed, lattice.up, lattice.by_up
    rows = []
    for mask, row_x in zip(closed, up):
        found = {}
        for low, k in points:
            if not mask & low:
                c = by_up[row_x & up[k]]
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

    The family starts as {P} and takes in the intersection of each member
    with each principal down-set L(x) in turn, which leaves it holding
    every intersection of principal down-sets: O(n*m) word ANDs for m
    closed sets.  Lectic order puts A before B when the lowest element
    where they differ lies in B, so the family is sorted on its
    bit-reversed masks.  Raises SizeLimitExceeded as soon as the family
    outgrows the cap; a completion of one closed set passes any cap.
    """
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
