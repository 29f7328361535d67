"""Finite posets stored as packed bitmask rows.

Elements are ids 0..n-1; a subset of the carrier is an int whose bit i is
element i (``ElementSet``).  The order keeps one row per element in both
directions: ``down[i]`` is the principal down-set of i and ``up[i]`` the
principal up-set, each as a bitmask.  Every cone computation is then a chain
of word-wide intersections, which keeps all the checkers in this package at
desk-scale cost without any third-party numerics.

Two rules answer every cone question.  A subset has a join exactly when
its upper cone is a principal up-set (meets dually), so ``join_of`` and
``meet_of`` are lookups in ``by_up`` and ``by_down``, and a lattice meet
is ``index[sets[a] & sets[b]]`` of :attr:`FinitePoset.meet_sets`, a join
the same of :attr:`FinitePoset.join_sets` (on a completion, the base
upper cones of its closed sets).  And L(U(A) ∪ {z}) = L(U(A)) ∩ ↓z with
L(x,y) = ↓x ∩ ↓y, so a composite cone term is one
:meth:`FinitePoset.closure` cut down by principal rows.

Conventions used throughout:

* the lower/upper cone of the empty set is the whole carrier,
* bounds are detected from the order, never synthesized,
* an involution, when present, is stored as a total bijection ``inv[i]``;
  whether it is antitone or a complementation is a separate check.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleError,
    MissingBounds,
    MissingInvolution,
    NotAFunction,
    NotALattice,
    NotComplemented,
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
    validates the order axioms.  A completion
    (:class:`~posetkit.completion.DMLattice`) is one too, with rows that
    hold the axioms by construction and are not checked again.
    """

    __slots__ = ("n", "names", "up", "down", "inv", "bottom", "top", "full", "_ids",
                 "_by_up", "_by_down", "_perp", "_kept")

    def __init__(self, names: tuple[str, ...], up: tuple[int, ...],
                 inv: tuple[int, ...] | None = None):
        self._store(tuple(names), tuple(up), None if inv is None else tuple(inv))
        n, names, up, full = self.n, self.names, self.up, self.full
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise PosetError(f"relation not reflexive at {names[i]}")
            if up[i] & ~full:
                raise PosetError("relation row mentions unknown element")
        down = [0] * n
        for i in range(n):
            row = up[i]
            bit = 1 << i
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                down[j] |= bit
                if i != j and up[j] & bit:
                    raise CycleError(f"{names[i]} and {names[j]} are mutually comparable")
                if up[j] & ~row:
                    raise PosetError(f"relation not transitive at {names[i]} <= {names[j]}")
        if inv is not None:
            if len(inv) != n or sorted(inv) != list(range(n)):
                raise NotAFunction("involution is not a total bijection")
        self.down = tuple(down)
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        self.bottom = bottoms[0] if bottoms else None
        self.top = tops[0] if tops else None

    def _store(self, names: tuple[str, ...], up: tuple[int, ...],
               inv: tuple[int, ...] | None) -> None:
        """Keep the names, up rows and involution with every cache empty;
        of the order axioms nothing is checked, only that the names are
        distinct.  The down rows and bounds are the caller's to set."""
        self.n = len(names)
        self.names = names
        self.up = up
        self.inv = inv
        self.full = (1 << self.n) - 1
        self._ids = {name: i for i, name in enumerate(names)}
        if len(self._ids) != self.n:
            raise PosetError("duplicate element names")
        self._by_up = self._by_down = self._perp = None
        self._kept = {}

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
        down = self.down
        out = self.full
        while subset:
            low = subset & -subset
            subset ^= low
            out &= down[low.bit_length() - 1]
        return out

    def upper_cone(self, subset: ElementSet) -> ElementSet:
        up = self.up
        out = self.full
        while subset:
            low = subset & -subset
            subset ^= low
            out &= up[low.bit_length() - 1]
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
        while subset:
            low = subset & -subset
            subset ^= low
            out |= 1 << inv[low.bit_length() - 1]
        return out

    def require_bounds(self) -> tuple[int, int]:
        if self.bottom is None or self.top is None:
            raise MissingBounds("poset has no bottom or no top")
        return self.bottom, self.top

    def require_complementation(self, what: str) -> tuple[int, ...]:
        comp = is_complementation(self)
        if not comp.holds:
            raise NotComplemented(f"{what} needs a complementation ({comp.details})")
        return self.inv

    def kept(self, compute):
        """The result ``compute(self)``, worked out once and kept on the poset."""
        if compute not in self._kept:
            self._kept[compute] = compute(self)
        return self._kept[compute]

    def require_lattice(self) -> None:
        """Raise NotALattice naming the first pair without a join or a
        meet; the scan is kept, so latticehood is decided once."""
        bad = self.kept(lattice_violation)
        if bad is not None:
            raise NotALattice(f"{bad['x']}, {bad['y']} have no {bad['missing']}")

    # -- extrema ----------------------------------------------------------

    @property
    def by_up(self) -> dict[ElementSet, int]:
        """Each principal up-set mapped to its element, built on first use."""
        if self._by_up is None:
            self._by_up = {row: k for k, row in enumerate(self.up)}
        return self._by_up

    @property
    def by_down(self) -> dict[ElementSet, int]:
        """Each principal down-set mapped to its element, built on first use."""
        if self._by_down is None:
            self._by_down = {row: k for k, row in enumerate(self.down)}
        return self._by_down

    @property
    def perp(self) -> tuple[ElementSet, ...]:
        """Row a marks the b != a with a <= b' and b <= a', built on first
        use: the preimage of ↑a under the involution, cut by ↓a'."""
        if self._perp is None:
            inv = self.require_involution()
            back = [0] * self.n  # back[c] is the bit of the b with b' = c
            for b, c in enumerate(inv):
                back[c] = 1 << b
            rows = []
            for a, rest in enumerate(self.up):
                row = 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row |= back[low.bit_length() - 1]
                rows.append(row & self.down[inv[a]] & ~(1 << a))
            self._perp = tuple(rows)
        return self._perp

    def join_of(self, subset: ElementSet) -> int | None:
        """Least upper bound of a subset, or None: U(subset) looked up in by_up."""
        return self.by_up.get(self.upper_cone(subset))

    def meet_of(self, subset: ElementSet) -> int | None:
        return self.by_down.get(self.lower_cone(subset))

    @property
    def dual(self) -> "FinitePoset":
        """The same names and involution on the reversed order: the up and
        down rows swapped, and the bounds; built on first use and kept.
        A statement's dual form is the same statement on this poset, so
        each walk of :mod:`~posetkit.checks` is written once.  The
        ``by_up`` and ``by_down`` dicts, when already built, are shared."""
        return self.kept(_dual)

    @property
    def meet_sets(self) -> tuple[Sequence[ElementSet], dict[ElementSet, int]]:
        """(sets, index), element k being the down-set sets[k]: on a lattice
        the meet of a and b is ``index[sets[a] & sets[b]]``.  Here the
        down rows and ``by_down``."""
        return self.down, self.by_down

    @property
    def join_sets(self) -> tuple[Sequence[ElementSet], dict[ElementSet, int]]:
        """(sets, index), element k being the up-set sets[k]: on a lattice
        the join of a and b is ``index[sets[a] & sets[b]]``.  Here the up
        rows and ``by_up``, the ``meet_sets`` of :attr:`dual`."""
        return self.up, self.by_up

    # -- small derived data ------------------------------------------------

    def atoms(self) -> ElementSet:
        """Elements covering the bottom."""
        bottom, _ = self.require_bounds()
        out = 0
        for i in range(self.n):
            if i != bottom and self.down[i] == (1 << bottom) | (1 << i):
                out |= 1 << i
        return out

    @property
    def upper_covers(self) -> tuple[ElementSet, ...]:
        """Row i marks the elements covering i, the minimal elements of
        the strict up-set of i; kept."""
        return self.kept(_upper_cover_rows)

    @property
    def lower_covers(self) -> tuple[ElementSet, ...]:
        """Row i marks the elements i covers: :attr:`upper_covers`
        transposed; kept."""
        return self.kept(_lower_cover_rows)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """All cover edges (i, j) with j covering i, in id order."""
        return [(i, j) for i, row in enumerate(self.upper_covers) for j in bits(row)]

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"


def transposed(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The columns of a bit matrix of ``len(rows)`` rows, each under
    ``1 << width``: row j of the result marks the i whose row marks j.

    Walked by the low bit, one step per set bit, for a completion's down
    rows, the lower covers and the generator's middle orders; a
    completion's holders are cut from its lectic sort keys instead."""
    out = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            row ^= low
            out[low.bit_length() - 1] |= bit
    return tuple(out)


def _upper_cover_rows(poset: FinitePoset) -> tuple[ElementSet, ...]:
    down, rows = poset.down, []
    for i, row in enumerate(poset.up):
        strict = row & ~(1 << i)
        covers = 0
        rest = strict
        while rest:
            low = rest & -rest
            rest ^= low
            if down[low.bit_length() - 1] & strict == low:
                covers |= low
        rows.append(covers)
    return tuple(rows)


def _lower_cover_rows(poset: FinitePoset) -> tuple[ElementSet, ...]:
    return transposed(poset.upper_covers, poset.n)


def _dual(poset: FinitePoset) -> FinitePoset:
    # every slot set here, the names and their id dict shared: checks on
    # a fresh poset build its dual, so making one must cost next to nothing
    dual = FinitePoset.__new__(FinitePoset)
    dual.n, dual.names, dual.inv, dual.full, dual._ids = (
        poset.n, poset.names, poset.inv, poset.full, poset._ids)
    dual.up, dual.down, dual.bottom, dual.top = poset.down, poset.up, poset.top, poset.bottom
    dual._by_up, dual._by_down, dual._perp, dual._kept = poset._by_down, poset._by_up, None, {}
    return dual


def _join_irreducibles(poset: FinitePoset) -> int:
    """The x with closure(↓x \\ {x}) != ↓x, as a mask; on ``poset.dual``,
    the meet-irreducibles."""
    lo, up, out = poset.lower_cone, poset.upper_cone, 0
    for x, row in enumerate(poset.down):
        if lo(up(row ^ (1 << x))) != row:
            out |= 1 << x
    return out


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
    """Check x'' = x and that the involution reverses the order; kept."""
    return poset.kept(_antitone_report)


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
    """Antitone involution with L(x,x') = {0} and U(x,x') = {1}; kept."""
    return poset.kept(_complementation_report)


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
    """Whether every pair has a join and a meet; kept."""
    return poset.kept(lattice_violation) is None


def lattice_violation(poset: FinitePoset) -> dict | None:
    """First pair with no join or no meet, for witness reporting."""
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            if poset.up[i] & poset.up[j] not in poset.by_up:
                return {"x": poset.names[i], "y": poset.names[j], "missing": "join"}
            if poset.down[i] & poset.down[j] not in poset.by_down:
                return {"x": poset.names[i], "y": poset.names[j], "missing": "meet"}
    return None


def orthogonal_subsets(poset: FinitePoset, universe: ElementSet) -> Iterator[ElementSet]:
    """All orthogonal subsets of ``universe``, the empty set included;
    the candidates lie inside it, so ``perp`` rows need no cutting."""
    perp = poset.perp

    def rec(chosen: int, candidates: int) -> Iterator[int]:
        yield chosen
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            # rest holds only bits above a, so each subset comes once
            yield from rec(chosen | low, rest & perp[a])

    yield from rec(0, universe)


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
