"""Independent computations the benchmark checks posetkit's outputs against.

Nothing here calls posetkit: orders are recomputed from cover pairs (or
read from a poset's rows) into plain Python sets, and every answer comes
from a definition or a closed form, not from today's output.
"""

from __future__ import annotations

import itertools


class Order:
    """A finite order on ids 0..n-1 as up-sets and down-sets."""

    def __init__(self, n: int, covers):
        above = [set() for _ in range(n)]
        for a, b in covers:
            above[a].add(b)
        self.n = n
        self.up = [self._reach(above, i) for i in range(n)]
        self.down = [{j for j in range(n) if i in self.up[j]} for i in range(n)]

    @staticmethod
    def _reach(above, start):
        seen, todo = {start}, [start]
        while todo:
            for nxt in above[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return frozenset(seen)

    @classmethod
    def of_poset(cls, poset) -> "Order":
        """The order a posetkit poset stores, read from its up rows."""
        return cls(poset.n, [(i, j) for i in range(poset.n)
                             for j in range(poset.n) if i != j and poset.up[i] >> j & 1])

    def lower(self, subset) -> set:
        out = set(range(self.n))
        for x in subset:
            out &= self.down[x]
        return out

    def upper(self, subset) -> set:
        out = set(range(self.n))
        for x in subset:
            out &= self.up[x]
        return out

    def closure(self, subset) -> set:
        return self.lower(self.upper(subset))

    def closed_sets(self) -> set:
        """Every closed set: the intersections of principal down-sets,
        with the whole carrier as the empty intersection."""
        family = {frozenset(range(self.n))}
        for x in range(self.n):
            family |= {member & self.down[x] for member in family}
        return family


def ids_of(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def completion_problem(order: Order, closed_masks, expected_count: int,
                       completion_up) -> str | None:
    """Closed sets from ``complete()`` and the order from ``as_poset()``:
    the right number of sets, each closed under L(U(.)), distinct and in
    lectic order (the smallest element in which two consecutive sets
    differ lies in the later one), and the completion ordered by
    inclusion."""
    sets = [ids_of(mask) for mask in closed_masks]
    if len(sets) != expected_count:
        return f"{len(sets)} closed sets, expected {expected_count}"
    for k, member in enumerate(sets):
        if order.closure(member) != member:
            return f"closed set #{k} is not closed under L(U(.))"
    for k in range(1, len(sets)):
        diff = sets[k - 1] ^ sets[k]
        if not diff:
            return f"closed sets #{k - 1} and #{k} are equal"
        if min(diff) not in sets[k]:
            return f"closed sets #{k - 1} and #{k} are not in lectic order"
    if len(completion_up) != len(sets):
        return f"as_poset has {len(completion_up)} elements, expected {len(sets)}"
    for i, low in enumerate(sets):
        row = completion_up[i]
        for j, high in enumerate(sets):
            if bool(row >> j & 1) != (low <= high):
                return f"as_poset order differs from inclusion at ({i}, {j})"
    return None


def complemented_problem(order: Order, inv) -> str | None:
    """Bounded, inv an involution that reverses the order, and every x
    meets x' only in 0 and joins it only in 1."""
    n = order.n
    every = set(range(n))
    bottoms = [i for i in range(n) if order.up[i] == every]
    tops = [i for i in range(n) if order.down[i] == every]
    if not bottoms or not tops:
        return "not bounded"
    if inv is None or sorted(inv) != list(range(n)):
        return "no involution"
    for x in range(n):
        if inv[inv[x]] != x:
            return "involution is not involutive"
        if any(inv[x] not in order.up[inv[y]] for y in order.up[x]):
            return "involution is not antitone"
        if order.lower((x, inv[x])) != {bottoms[0]}:
            return "some x and x' have a lower bound other than 0"
        if order.upper((x, inv[x])) != {tops[0]}:
            return "some x and x' have an upper bound other than 1"
    return None


def isomorphic(left: Order, left_inv, right: Order, right_inv) -> bool:
    """Brute force over the bijections that keep every element's down-set
    and up-set sizes; an isomorphism must carry the order and the
    involution."""
    n = left.n
    if n != right.n:
        return False

    def profile(order, i):
        return len(order.down[i]), len(order.up[i])

    if sorted(profile(left, i) for i in range(n)) != \
            sorted(profile(right, i) for i in range(n)):
        return False
    for perm in itertools.permutations(range(n)):
        if any(profile(left, i) != profile(right, perm[i]) for i in range(n)):
            continue
        if any(perm[left_inv[i]] != right_inv[perm[i]] for i in range(n)):
            continue
        if all({perm[j] for j in left.up[i]} == right.up[perm[i]] for i in range(n)):
            return True
    return False


def hsum_count(parts: list[int]) -> int:
    """Closed sets of a horizontal sum, from those of its parts."""
    return sum(m - 2 for m in parts) + 2


def greechie_size(blocks: list[int], atom_degrees: list[int]) -> int:
    """Elements of the pasting of Boolean blocks: every block adds its
    2^|B| - 2 middle elements, and every atom shared by d blocks (with its
    complement) was counted d - 1 times too often."""
    return 2 + sum(2 ** b - 2 for b in blocks) - 2 * sum(d - 1 for d in atom_degrees)
