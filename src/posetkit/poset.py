"""Finite posets stored as packed bitmask rows.

Elements are ids 0..n-1; a subset of the carrier is an int whose bit i is
element i (``ElementSet``).  The order keeps one row per element in both
directions: ``down[i]`` is the principal down-set of i and ``up[i]`` the
principal up-set, each as a bitmask.  Every cone computation is then a chain
of word-wide intersections, which keeps all the checkers in this package at
desk-scale cost without any third-party numerics.

Conventions used throughout:

* the lower/upper cone of the empty set is the whole carrier,
* bounds are detected from the order, never synthesized,
* an involution, when present, is stored as a total bijection ``inv[i]``;
  whether it is antitone or a complementation is a separate check.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    CycleError,
    MissingBounds,
    MissingInvolution,
    NotAFunction,
    NotALattice,
    PosetError,
)
from .report import CheckReport

ElementSet = int  # bitmask over element ids


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transitive_closure(rows: list[int]) -> list[int]:
    # Boolean matrix squaring until fixpoint; at most log2(n)+1 rounds.
    while True:
        changed = False
        for i, row in enumerate(rows):
            acc = row
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                acc |= rows[low.bit_length() - 1]
            if acc != row:
                rows[i] = acc
                changed = True
        if not changed:
            return rows


class FinitePoset:
    """Immutable finite poset, optionally carrying an involution.

    Instances should be built through :func:`build_poset` or the
    constructors module; ``__init__`` expects already-closed ``up`` rows and
    validates the order axioms.
    """

    __slots__ = ("n", "names", "up", "down", "inv", "bottom", "top", "full", "_ids",
                 "_view", "_antitone", "_complementation")

    def __init__(self, names: tuple[str, ...], up: tuple[int, ...],
                 inv: tuple[int, ...] | None = None):
        n = len(names)
        if len(set(names)) != n:
            raise PosetError("duplicate element names")
        full = (1 << n) - 1
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise PosetError(f"relation not reflexive at {names[i]}")
            if up[i] & ~full:
                raise PosetError("relation row mentions unknown element")
        down = [0] * n
        for i in range(n):
            row = up[i]
            for j in bits(row):
                down[j] |= 1 << i
        for i in range(n):
            for j in bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise CycleError(f"{names[i]} and {names[j]} are mutually comparable")
                if up[j] & ~up[i]:
                    raise PosetError(f"relation not transitive at {names[i]} <= {names[j]}")
        if inv is not None:
            if len(inv) != n or sorted(inv) != list(range(n)):
                raise NotAFunction("involution is not a total bijection")
        self.n = n
        self.names = tuple(names)
        self.up = tuple(up)
        self.down = tuple(down)
        self.inv = tuple(inv) if inv is not None else None
        self.full = full
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        self.bottom = bottoms[0] if bottoms else None
        self.top = tops[0] if tops else None
        self._ids = {name: i for i, name in enumerate(names)}
        self._view = None
        self._antitone = None
        self._complementation = None

    # -- element and subset helpers -------------------------------------

    def id_of(self, item: int | str) -> int:
        if isinstance(item, str):
            try:
                return self._ids[item]
            except KeyError:
                raise PosetError(f"unknown element {item!r}") from None
        if not 0 <= item < self.n:
            raise PosetError(f"element id {item} out of range")
        return item

    def mask(self, items: "int | str | Iterable[int | str]") -> ElementSet:
        """Build a subset mask from ids, names, or an existing mask."""
        if isinstance(items, (int, str)):
            return 1 << self.id_of(items)
        out = 0
        for item in items:
            out |= 1 << self.id_of(item)
        return out

    def names_of(self, mask: ElementSet) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bits(mask))

    def leq(self, a: int | str, b: int | str) -> bool:
        return bool((self.up[self.id_of(a)] >> self.id_of(b)) & 1)

    # -- cones -----------------------------------------------------------

    def lower_cone(self, subset: ElementSet) -> ElementSet:
        """All common lower bounds; the whole carrier for the empty set."""
        out = self.full
        for i in bits(subset):
            out &= self.down[i]
        return out

    def upper_cone(self, subset: ElementSet) -> ElementSet:
        out = self.full
        for i in bits(subset):
            out &= self.up[i]
        return out

    def closure(self, subset: ElementSet) -> ElementSet:
        """Lower cone of the upper cone; the closure operator used by
        the completion."""
        return self.lower_cone(self.upper_cone(subset))

    # -- involution ------------------------------------------------------

    def require_involution(self) -> tuple[int, ...]:
        if self.inv is None:
            raise MissingInvolution("poset carries no involution")
        return self.inv

    def inv_image(self, subset: ElementSet) -> ElementSet:
        inv = self.require_involution()
        out = 0
        for i in bits(subset):
            out |= 1 << inv[i]
        return out

    def require_bounds(self) -> tuple[int, int]:
        if self.bottom is None or self.top is None:
            raise MissingBounds("poset has no bottom or no top")
        return self.bottom, self.top

    # -- extrema ----------------------------------------------------------

    def min_of(self, subset: ElementSet) -> int | None:
        """Least element of a subset, if it has one."""
        for i in bits(subset):
            if subset & ~self.up[i] == 0:
                return i
        return None

    def max_of(self, subset: ElementSet) -> int | None:
        for i in bits(subset):
            if subset & ~self.down[i] == 0:
                return i
        return None

    def maximal_of(self, subset: ElementSet) -> ElementSet:
        out = 0
        for i in bits(subset):
            if subset & self.up[i] == 1 << i:
                out |= 1 << i
        return out

    def join_of(self, subset: ElementSet) -> int | None:
        """Least upper bound of a subset of elements, or None."""
        return self.min_of(self.upper_cone(subset))

    def meet_of(self, subset: ElementSet) -> int | None:
        return self.max_of(self.lower_cone(subset))

    @property
    def view(self) -> "LatticeView":
        """Join and meet tables, built on first use.  U(i,j) has a least
        element exactly when it is some principal up-set, so each join is
        one dict lookup, and each meet the dual one.  Raises NotALattice
        naming the first pair without a join or a meet."""
        if self._view is None:
            by_up = {row: k for k, row in enumerate(self.up)}
            by_down = {row: k for k, row in enumerate(self.down)}
            join = [[by_up.get(row & other) for other in self.up] for row in self.up]
            meet = [[by_down.get(row & other) for other in self.down] for row in self.down]
            if any(None in row for row in join) or any(None in row for row in meet):
                bad = lattice_violation(self)
                raise NotALattice(f"{bad['x']}, {bad['y']} have no {bad['missing']}")
            self._view = LatticeView(join, meet, self.names.__getitem__)
        return self._view

    # -- small derived data ------------------------------------------------

    def atoms(self) -> ElementSet:
        """Elements covering the bottom."""
        bottom, _ = self.require_bounds()
        out = 0
        for i in range(self.n):
            if i != bottom and self.down[i] == (1 << bottom) | (1 << i):
                out |= 1 << i
        return out

    def cover_pairs(self) -> list[tuple[int, int]]:
        """All cover edges (i, j) with j covering i, in id order."""
        out = []
        for i in range(self.n):
            strict_up = self.up[i] & ~(1 << i)
            for j in bits(strict_up):
                between = strict_up & self.down[j] & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return out

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"


class LatticeView:
    """Element-valued join and meet of a finite lattice as tables:
    ``join[i][j]`` and ``meet[i][j]`` are element ids.  Built once per
    lattice, by :attr:`FinitePoset.view` or :attr:`DMLattice.view`;
    ``name_of`` names an element for witnesses."""

    __slots__ = ("size", "join", "meet", "name_of")

    def __init__(self, join: list[list[int]], meet: list[list[int]], name_of):
        self.size = len(meet)
        self.join = join
        self.meet = meet
        self.name_of = name_of


def build_poset(names: Iterable[object], relation: Iterable[tuple[object, object]],
                mode: str = "covers",
                involution: Iterable[tuple[object, object]] | None = None) -> FinitePoset:
    """Build a poset from Hasse data or a full order relation.

    ``relation`` lists pairs (a, b) meaning a <= b.  With ``mode="covers"``
    the reflexive-transitive closure is taken; with ``mode="full"`` the
    relation (plus reflexivity) must already be transitive.  ``involution``
    lists pairs (x, x'); pairs are symmetrized, so a self-paired element is
    written (x, x) and conflicting assignments raise :class:`NotAFunction`.
    """
    names = tuple(str(x) for x in names)
    ids = {name: i for i, name in enumerate(names)}
    if len(ids) != len(names):
        raise PosetError("duplicate element names")
    n = len(names)

    def lookup(x) -> int:
        key = str(x)
        if key not in ids:
            raise PosetError(f"relation mentions unknown element {key!r}")
        return ids[key]

    rows = [1 << i for i in range(n)]
    pairs = [(lookup(a), lookup(b)) for a, b in relation]
    for a, b in pairs:
        rows[a] |= 1 << b
    if mode == "covers":
        rows = _transitive_closure(rows)
    elif mode == "full":
        closed = _transitive_closure(list(rows))
        if closed != rows:
            raise PosetError("mode='full' requires a transitive relation")
    else:
        raise PosetError(f"unknown mode {mode!r}")

    inv = None
    if involution is not None:
        table: dict[int, int] = {}
        for a, b in involution:
            x, y = lookup(a), lookup(b)
            if table.setdefault(x, y) != y:
                raise NotAFunction(f"conflicting images for {names[x]}")
        for x, y in list(table.items()):
            # symmetrize pairs whose partner has no explicit image
            table.setdefault(y, x)
        if len(table) != n:
            missing = [names[i] for i in range(n) if i not in table][:3]
            raise NotAFunction(f"involution is not total; missing {missing}")
        if sorted(table.values()) != list(range(n)):
            raise NotAFunction("involution is not injective")
        inv = tuple(table[i] for i in range(n))

    return FinitePoset(names, tuple(rows), inv)


def is_antitone_involution(poset: FinitePoset) -> CheckReport:
    """Check x'' = x and that the involution reverses the order.  The
    report is computed once per poset and kept on it."""
    if poset._antitone is None:
        poset._antitone = _antitone_report(poset)
    return poset._antitone


def _antitone_report(poset: FinitePoset) -> CheckReport:
    inv = poset.require_involution()
    for i in range(poset.n):
        if inv[inv[i]] != i:
            return CheckReport("antitone-involution", False,
                               witness={"x": poset.names[i]},
                               details="x'' differs from x")
    for i in range(poset.n):
        for j in bits(poset.up[i]):
            if not (poset.up[inv[j]] >> inv[i]) & 1:
                return CheckReport("antitone-involution", False,
                                   witness={"x": poset.names[i], "y": poset.names[j]},
                                   details="x <= y but y' is not below x'")
    return CheckReport("antitone-involution", True)


def is_complementation(poset: FinitePoset) -> CheckReport:
    """Antitone involution with L(x,x') = {0} and U(x,x') = {1}.  The
    report is computed once per poset and kept on it."""
    if poset._complementation is None:
        poset._complementation = _complementation_report(poset)
    return poset._complementation


def _complementation_report(poset: FinitePoset) -> CheckReport:
    bottom, top = poset.require_bounds()
    inv = poset.require_involution()
    base = is_antitone_involution(poset)
    if not base.holds:
        return CheckReport("complementation", False, witness=base.witness,
                           details=base.details)
    for i in range(poset.n):
        if poset.down[i] & poset.down[inv[i]] != 1 << bottom:
            return CheckReport("complementation", False,
                               witness={"x": poset.names[i]},
                               details="L(x,x') is not {0}")
        if poset.up[i] & poset.up[inv[i]] != 1 << top:
            return CheckReport("complementation", False,
                               witness={"x": poset.names[i]},
                               details="U(x,x') is not {1}")
    return CheckReport("complementation", True)


def is_lattice(poset: FinitePoset) -> bool:
    return lattice_violation(poset) is None


def lattice_violation(poset: FinitePoset) -> dict | None:
    """First pair with no join or no meet, for witness reporting."""
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            if poset.min_of(poset.up[i] & poset.up[j]) is None:
                return {"x": poset.names[i], "y": poset.names[j], "missing": "join"}
            if poset.max_of(poset.down[i] & poset.down[j]) is None:
                return {"x": poset.names[i], "y": poset.names[j], "missing": "meet"}
    return None


def _orthogonality_rows(poset: FinitePoset, universe: ElementSet) -> dict[int, ElementSet]:
    """Row a marks the members b != a of ``universe`` with a <= b' and
    b <= a'."""
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


def orthogonal_subsets(poset: FinitePoset, universe: ElementSet) -> Iterator[ElementSet]:
    """All orthogonal subsets of ``universe``, the empty set included."""
    compat = _orthogonality_rows(poset, universe)

    def rec(chosen: int, candidates: int) -> Iterator[int]:
        yield chosen
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            # rest holds only bits above a, so each subset comes once
            yield from rec(chosen | low, rest & compat[a])

    yield from rec(0, universe)


def maximal_orthogonal_subsets(poset: FinitePoset, universe: ElementSet) -> Iterator[ElementSet]:
    """The orthogonal subsets of ``universe`` that no other contains: the
    maximal cliques of the orthogonality graph, by Bron-Kerbosch."""
    compat = _orthogonality_rows(poset, universe)

    def expand(chosen: int, candidates: int, excluded: int) -> Iterator[int]:
        if candidates == 0 and excluded == 0:
            yield chosen
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

    yield from expand(0, universe, 0)


def labeled_diff(left: FinitePoset, right: FinitePoset) -> dict | None:
    """First difference in names, order or involution under the name
    matching, as a witness; None when the two posets are equal."""
    only_left = set(left.names) - set(right.names)
    only_right = set(right.names) - set(left.names)
    if only_left or only_right:
        return {"only-left": tuple(sorted(only_left)),
                "only-right": tuple(sorted(only_right))}
    to_right = [right.id_of(name) for name in left.names]
    for i in range(left.n):
        for j in range(left.n):
            if left.leq(i, j) != right.leq(to_right[i], to_right[j]):
                return {"x": left.names[i], "y": left.names[j], "reason": "order"}
    if (left.inv is None) != (right.inv is None):
        return {"reason": "involution present on one side only"}
    if left.inv is not None:
        for i in range(left.n):
            if to_right[left.inv[i]] != right.inv[to_right[i]]:
                return {"x": left.names[i], "reason": "involution"}
    return None


def labeled_equal(left: FinitePoset, right: FinitePoset) -> bool:
    """Same names, same order, same involution under the name matching."""
    return labeled_diff(left, right) is None
