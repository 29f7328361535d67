"""Residuation structures on bounded posets and their completions.

Two layers.  Operator residuation works directly on a poset: the
multiplication M(x,y) and residual R(x,y) are cone valued, and the
adjunction is set inclusion.  Lattice residuation works on a bounded
lattice (typically a completion): odot and arrow are element valued
and the adjunction is the usual order one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import DMLattice
from .errors import NoRelativePseudocomplement
from .poset import ElementSet, FinitePoset, bits
from .report import CheckReport

KINDS = ("boolean", "relpseudo", "pseudo_om")


def relative_pseudocomplement(poset: FinitePoset, x: int, y: int) -> int | None:
    """Greatest c with L(c,x) inside L(y), or None when no greatest
    element exists among the candidates."""
    target = poset.down[y]
    candidates = 0
    for c in range(poset.n):
        if poset.down[c] & poset.down[x] & ~target == 0:
            candidates |= 1 << c
    for c in bits(candidates):
        if candidates & ~poset.down[c] == 0:
            return c
    return None


def pseudocomplement_table(poset: FinitePoset) -> list[list[int]]:
    table = [[0] * poset.n for _ in range(poset.n)]
    for x in range(poset.n):
        for y in range(poset.n):
            s = relative_pseudocomplement(poset, x, y)
            if s is None:
                raise NoRelativePseudocomplement(
                    f"{poset.names[x]} * {poset.names[y]} does not exist")
            table[x][y] = s
    return table


@dataclass(frozen=True)
class OperatorPair:
    """Cone valued multiplication and residual, with the unary
    complement-like map the zero axiom is stated against."""
    kind: str
    mul: tuple  # mul[x][y]: ElementSet
    res: tuple
    comp: tuple[int, ...]


def operator_pair(poset: FinitePoset, kind: str) -> OperatorPair:
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    bottom, _ = poset.require_bounds()
    lo, up = poset.lower_cone, poset.upper_cone
    n = poset.n
    mul = [[0] * n for _ in range(n)]
    res = [[0] * n for _ in range(n)]
    if kind == "relpseudo":
        star = pseudocomplement_table(poset)
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


def verify_operator_left_residuation(poset: FinitePoset, kind: str,
                                     pair: OperatorPair | None = None) -> CheckReport:
    """Unit, adjunction and zero axioms for the cone valued operators,
    plus the derived order reflection R(x,y) = P iff x <= y."""
    if pair is None:
        pair = operator_pair(poset, kind)
    bottom, top = poset.require_bounds()
    names = poset.names
    mul, res = pair.mul, pair.res

    def fail(axiom: str, **elems) -> CheckReport:
        witness = {"axiom": axiom}
        witness.update({k: names[v] for k, v in elems.items()})
        return CheckReport("operator-residuation", False, witness=witness,
                           extra={"kind": kind})

    for x in range(poset.n):
        if mul[x][top] != poset.down[x] or mul[top][x] != poset.down[x]:
            return fail("unit", x=x)
    for x in range(poset.n):
        for y in range(poset.n):
            for z in range(poset.n):
                left = mul[x][y] & ~poset.down[z] == 0
                right = poset.down[x] & ~res[y][z] == 0
                if left != right:
                    return fail("adjunction", x=x, y=y, z=z)
    for x in range(poset.n):
        if res[x][bottom] != poset.down[pair.comp[x]]:
            return fail("zero", x=x)
    for x in range(poset.n):
        for y in range(poset.n):
            if (res[x][y] == poset.full) != poset.leq(x, y):
                return fail("order-reflection", x=x, y=y)
    return CheckReport("operator-residuation", True, extra={"kind": kind})


def star_on_dm(poset: FinitePoset, lattice: DMLattice) -> list[list[int]]:
    """Lift the relative pseudocomplement to closed sets:
    X * Y = intersection of L(a*b) over a in X, b in U(Y).

    Asserts that the lift really is relative pseudocomplementation on
    the completion and that it extends the base operation along the
    embedding.
    """
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
            assert best & closed[i] & ~closed[j] == 0, \
                "lifted star must satisfy (X*Y) ^ X <= Y"
            for k in range(m):
                if closed[k] & closed[i] & ~closed[j] == 0:
                    assert closed[k] & ~best == 0, \
                        "lifted star must be the greatest such closed set"
    for x in range(poset.n):
        for y in range(poset.n):
            assert table[lattice.embed[x]][lattice.embed[y]] == lattice.embed[star[x][y]], \
                "lifted star must extend the base operation"
    return table


@dataclass(frozen=True)
class ResiduatedOps:
    """Element valued operations on a bounded lattice."""
    kind: str
    odot: tuple
    arrow: tuple


def bdm_transform(lattice: FinitePoset, kind: str,
                  star: list[list[int]] | None = None) -> ResiduatedOps:
    """Turn a bounded lattice into candidate residuated operations.

    boolean:   x.y = x ^ y          x->y = x' v y
    relpseudo: x.y = x ^ y          x->y = x * y
    pseudo_om: x.y = (x v y') ^ y   x->y = (x ^ y) v x'
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    join, meet = lattice.view.join, lattice.view.meet
    n = lattice.n
    odot = [[0] * n for _ in range(n)]
    arrow = [[0] * n for _ in range(n)]
    if kind == "relpseudo":
        if star is None:
            star = pseudocomplement_table(lattice)
        for x in range(n):
            for y in range(n):
                odot[x][y] = meet[x][y]
                arrow[x][y] = star[x][y]
    else:
        inv = lattice.require_involution()
        for x in range(n):
            for y in range(n):
                if kind == "boolean":
                    odot[x][y] = meet[x][y]
                    arrow[x][y] = join[inv[x]][y]
                else:
                    odot[x][y] = meet[join[x][inv[y]]][y]
                    arrow[x][y] = join[meet[x][y]][inv[x]]
    return ResiduatedOps(kind, tuple(map(tuple, odot)), tuple(map(tuple, arrow)))


def verify_left_residuated_lattice(lattice: FinitePoset, ops: ResiduatedOps,
                                   check_associativity: bool = False) -> CheckReport:
    """Unit law and adjunction for element valued operations.

    Commutativity of odot is reported as a flag; associativity too when
    asked for, and neither is required for the check to hold.
    """
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
        # transpose of the arrow column so both adjunction sides become
        # one mask comparison per x
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
