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
from .poset import FinitePoset, bits, is_antitone_involution
from .report import CheckReport

DEFAULT_MAX_CLOSED_SETS = 100_000


class DMLattice:
    """Completion of ``base``: all closed subsets in lectic order."""

    __slots__ = ("base", "closed", "index", "embed", "inv", "bottom", "top",
                 "_gens", "_up", "_poset", "_kept")

    def __init__(self, base: FinitePoset, closed: list[int]):
        self.base = base
        self.closed = tuple(closed)
        self.index = {mask: k for k, mask in enumerate(closed)}
        self.embed = tuple(self.index[base.down[i]] for i in range(base.n))
        self.bottom = self.index[base.closure(0)]
        self.top = self.index[base.full]
        self.inv = None
        self._gens = None
        self._up = None
        self._poset = None
        self._kept = {}
        if base.inv is not None and is_antitone_involution(base).holds:
            self.inv = self._lifted_involution()

    def __len__(self):
        return len(self.closed)

    def _lifted_involution(self) -> tuple[int, ...]:
        """X -> L(X'-image), checked to be an involutive antitone
        extension of the base involution before it is trusted.  The base
        involution is antitone, so the images of the generators of X
        already have the lower cone of all of X'-image."""
        base = self.base
        star = []
        for gens in self.generators():
            image = base.lower_cone(base.inv_image(gens))
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
            up = self.up_rows()
            for i, row in enumerate(up):
                image = 1 << star[i]
                while row:
                    low = row & -row
                    row ^= low
                    if not up[star[low.bit_length() - 1]] & image:
                        raise InternalError("induced involution is not antitone")
        return tuple(star)

    def kept(self, compute):
        """The result ``compute(self)``, worked out once and kept on the
        completion."""
        if compute not in self._kept:
            self._kept[compute] = compute(self)
        return self._kept[compute]

    def generators(self) -> tuple[int, ...]:
        """The maximal elements of each closed set, worked out once.  A
        closed set is a down-set, so they decide inclusion in it: X is
        inside Y exactly when max X is."""
        if self._gens is None:
            self._gens = tuple(map(self.base.maximal_of, self.closed))
        return self._gens

    def up_rows(self) -> tuple[int, ...]:
        """Row i marks, by index, the closed sets that contain closed[i]:
        the AND over the generators g of closed[i] of the closed sets
        holding g."""
        if self._up is None:
            holders = [0] * self.base.n
            for k, mask in enumerate(self.closed):
                bit = 1 << k
                while mask:
                    low = mask & -mask
                    mask ^= low
                    holders[low.bit_length() - 1] |= bit
            rows = []
            for mask in self.generators():
                row = (1 << len(self.closed)) - 1
                while mask:
                    low = mask & -mask
                    mask ^= low
                    row &= holders[low.bit_length() - 1]
                rows.append(row)
            self._up = tuple(rows)
        return self._up

    def name_of(self, k: int) -> str:
        """Closed sets are down-sets, so their generators identify them;
        principal sets get their generator's plain name."""
        gens = self.generators()[k]
        if gens == 0:
            return "{}"
        return "∨".join(self.base.names[i] for i in bits(gens))

    def as_poset(self) -> FinitePoset:
        """The completion as a plain FinitePoset; element ids equal the
        lectic enumeration indices."""
        if self._poset is None:
            names = tuple(self.name_of(k) for k in range(len(self.closed)))
            self._poset = FinitePoset(names, self.up_rows(), self.inv)
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
    meet of embedded elements above it; both of these are LU(X)."""
    for mask in lattice.closed:
        if poset.closure(mask) != mask:
            return CheckReport("join-meet-density", False,
                               witness={"closed-set": poset.names_of(mask)},
                               details="not recovered from embedded elements")
    return CheckReport("join-meet-density", True,
                       details=f"{len(lattice)} closed sets")
