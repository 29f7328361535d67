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
from .poset import FinitePoset, LatticeView, bits, is_antitone_involution
from .report import CheckReport

DEFAULT_MAX_CLOSED_SETS = 100_000


class DMLattice:
    """Completion of ``base``: all closed subsets in lectic order."""

    __slots__ = ("base", "closed", "index", "embed", "inv", "bottom", "top",
                 "_up", "_poset", "_view")

    def __init__(self, base: FinitePoset, closed: list[int]):
        self.base = base
        self.closed = tuple(closed)
        self.index = {mask: k for k, mask in enumerate(closed)}
        self.embed = tuple(self.index[base.down[i]] for i in range(base.n))
        self.bottom = self.index[base.closure(0)]
        self.top = self.index[base.full]
        self.inv = None
        self._up = None
        self._poset = None
        self._view = None
        if base.inv is not None and is_antitone_involution(base).holds:
            self.inv = self._lifted_involution()

    def __len__(self):
        return len(self.closed)

    def _lifted_involution(self) -> tuple[int, ...]:
        """X -> L(X'-image), checked to be an involutive antitone
        extension of the base involution before it is trusted."""
        base = self.base
        star = []
        for mask in self.closed:
            image = base.lower_cone(base.inv_image(mask))
            if image not in self.index:
                raise InternalError("involution image is not closed")
            star.append(self.index[image])
        for k in range(len(self.closed)):
            if star[star[k]] != k:
                raise InternalError("induced involution is not involutive")
        for i in range(base.n):
            if self.closed[star[self.embed[i]]] != base.down[base.inv[i]]:
                raise InternalError("induced involution does not extend the base involution")
        if len(self.closed) <= 2000:
            up = self._up_rows()
            for i in range(len(self.closed)):
                for j in bits(up[i]):
                    if not (up[star[j]] >> star[i]) & 1:
                        raise InternalError("induced involution is not antitone")
        return tuple(star)

    def _up_rows(self) -> tuple[int, ...]:
        """Row i marks, by index, the closed sets that contain closed[i]:
        the AND over e in closed[i] of the closed sets holding e."""
        if self._up is None:
            holders = [0] * self.base.n
            for k, mask in enumerate(self.closed):
                for e in bits(mask):
                    holders[e] |= 1 << k
            rows = []
            for mask in self.closed:
                row = (1 << len(self.closed)) - 1
                for e in bits(mask):
                    row &= holders[e]
                rows.append(row)
            self._up = tuple(rows)
        return self._up

    @property
    def view(self) -> LatticeView:
        """Join and meet tables, built on first use: meet is intersection,
        join is De Morgan through the induced involution when there is
        one, the closure of the union otherwise."""
        if self._view is None:
            index, closed = self.index, self.closed
            meet = [[index[x & y] for y in closed] for x in closed]
            if self.inv is not None:
                inv = self.inv
                join = [[inv[meet[inv[i]][inv[j]]] for j in range(len(closed))]
                        for i in range(len(closed))]
            else:
                base = self.base
                join = [[index[base.closure(x | y)] for y in closed] for x in closed]
            self._view = LatticeView(join, meet, self.name_of)
        return self._view

    def name_of(self, k: int) -> str:
        """Closed sets are down-sets, so the maximal elements identify
        them; principal sets get their generator's plain name."""
        mask = self.closed[k]
        if mask == 0:
            return "{}"
        tops = self.base.maximal_of(mask)
        return "∨".join(self.base.names[i] for i in bits(tops))

    def as_poset(self) -> FinitePoset:
        """The completion as a plain FinitePoset; element ids equal the
        lectic enumeration indices."""
        if self._poset is None:
            names = tuple(self.name_of(k) for k in range(len(self.closed)))
            self._poset = FinitePoset(names, self._up_rows(), self.inv)
        return self._poset


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
    meet of embedded elements above it."""
    for k, mask in enumerate(lattice.closed):
        below = poset.closure(mask)  # join of {L(x) : x in mask}
        above = poset.full
        for j in bits(poset.upper_cone(mask)):
            above &= poset.down[j]
        if below != mask or above != mask:
            return CheckReport("join-meet-density", False,
                               witness={"closed-set": poset.names_of(mask)},
                               details="not recovered from embedded elements")
    return CheckReport("join-meet-density", True,
                       details=f"{len(lattice)} closed sets")
