"""Residuation structures on bounded posets and their completions.

Two layers.  Operator residuation works directly on a poset: the
multiplication M(x,y) and residual R(x,y) are cone valued, and the
adjunction is set inclusion.  Lattice residuation works on a bounded
lattice (typically a completion): odot and arrow are element valued
and the adjunction is the usual order one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, eq

from .checks import _distributive_law, _orthocomplemented, _orthomodular_law
from .completion import DMLattice
from .errors import InternalError, NoRelativePseudocomplement, NotComplemented
from .poset import FinitePoset, bits
from .report import CheckReport

KINDS = ("boolean", "relpseudo", "pseudo_om")


def relative_pseudocomplement(poset: FinitePoset, x: int, y: int) -> int | None:
    """Greatest c with L(c,x) inside L(y), or None.  The candidates are
    the elements above no member of L(x) outside L(y): a down-set, which has a
    greatest element exactly when it is principal."""
    above = 0
    for d in bits(poset.down[x] & ~poset.down[y]):
        above |= poset.up[d]
    return poset.by_down.get(poset.full & ~above)


def pseudocomplement_table(poset: FinitePoset) -> list[list[int]]:
    """Row x, column y is x * y, as fresh lists; raises
    NoRelativePseudocomplement naming the first pair without one."""
    return [list(row) for row in _star_table(poset)]


def _star_table(poset: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """The table of :func:`pseudocomplement_table` as tuples, read from
    the one kept on the poset; raises NoRelativePseudocomplement."""
    table = poset.kept(_relative_pseudocomplements)
    for x, row in enumerate(table):
        if None in row:
            raise NoRelativePseudocomplement(
                f"{poset.names[x]} * {poset.names[row.index(None)]} does not exist")
    return table


def _relative_pseudocomplements(poset: FinitePoset) -> tuple[tuple[int | None, ...], ...]:
    ids = range(poset.n)
    return tuple(tuple(relative_pseudocomplement(poset, x, y) for y in ids) for x in ids)


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
    closure, down, ids = poset.closure, poset.down, range(poset.n)
    if kind == "relpseudo":
        star = _star_table(poset)
        comp = tuple(row[bottom] for row in star)
        mul = [[down[x] & down[y] for y in ids] for x in ids]
        res = [[down[s] for s in row] for row in star]
    else:
        comp = inv = poset.require_involution()
        if kind == "boolean":
            mul = [[down[x] & down[y] for y in ids] for x in ids]
            res = [[closure((1 << inv[x]) | (1 << y)) for y in ids] for x in ids]
        else:
            mul = [[closure((1 << x) | (1 << inv[y])) & down[y] for y in ids] for x in ids]
            res = [[closure((down[x] & down[y]) | (1 << inv[x])) for y in ids] for x in ids]
    return OperatorPair(kind, tuple(map(tuple, mul)), tuple(map(tuple, res)), comp)


def verify_operator_left_residuation(poset: FinitePoset, kind: str) -> CheckReport:
    """Unit, adjunction and zero axioms for the cone valued operators of
    ``kind``, plus the derived order reflection R(x,y) = P iff x <= y."""
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
            if (res[x][y] == poset.full) != (poset.up[x] >> y) & 1:
                return fail("order-reflection", x=x, y=y)
    return CheckReport("operator-residuation", True, extra={"kind": kind})


def star_on_dm(poset: FinitePoset, lattice: DMLattice) -> list[list[int]]:
    """Lift the relative pseudocomplement to closed sets:
    X * Y = intersection of L(a*b) over a in X, b in U(Y).

    The intersection is taken in two stages: for each base element a
    the row of L(a*b) over b in U(Y_j), then for each closed set X_i the
    intersection of the rows of its members.  The lift must really be
    relative pseudocomplementation on the completion, K ^ X <= Y iff
    K <= X * Y, which ``_first_unadjoint_column`` decides column by
    column for K -> K ^ X and Y -> X * Y; and it
    must extend the base operation along the embedding.  Either failure
    raises InternalError.
    """
    star = _star_table(poset)
    closed, index, full = lattice.closed, lattice.index, poset.full
    uppers = [tuple(bits(poset.upper_cone(mask))) for mask in closed]
    rows = []
    for star_a in star:
        row = []
        for upper in uppers:
            acc = full
            for b in upper:
                acc &= poset.down[star_a[b]]
            row.append(acc)
        rows.append(row)
    table = []
    for mask in closed:
        acc_row = [full] * len(closed)
        for a in bits(mask):
            acc_row = list(map(and_, acc_row, rows[a]))
        table.append([index[acc] for acc in acc_row])
    _, meet = lattice.kept(_lattice_tables)
    if _first_unadjoint_column(lattice, meet, table) is not None:
        raise InternalError("lifted star must be residual to the meet")
    for x in range(poset.n):
        for y in range(poset.n):
            if table[lattice.embed[x]][lattice.embed[y]] != lattice.embed[star[x][y]]:
                raise InternalError("lifted star must extend the base operation")
    return table


@dataclass(frozen=True)
class ResiduatedOps:
    """Element valued operations on a bounded lattice.

    ``_lattice`` is the lattice :func:`bdm_transform` made them on, or
    None.  It is a class attribute, not a field, so ``==``, ``repr``,
    ``astuple`` and ``dataclasses.replace`` ignore it, and ops built by
    hand or by ``replace`` keep None."""
    kind: str
    odot: tuple
    arrow: tuple
    _lattice = None


def bdm_transform(lattice: FinitePoset, kind: str,
                  star: list[list[int]] | None = None) -> ResiduatedOps:
    """Turn a bounded lattice into candidate residuated operations.

    boolean:   x.y = x ^ y          x->y = x' v y
    relpseudo: x.y = x ^ y          x->y = x * y
    pseudo_om: x.y = (x v y') ^ y   x->y = (x ^ y) v x'
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    join, meet = lattice.kept(_lattice_tables)
    ids = range(lattice.n)
    if kind == "relpseudo":
        odot = meet
        arrow = star if star is not None else _star_table(lattice)
    else:
        inv = lattice.require_involution()
        if kind == "boolean":
            odot, arrow = meet, [join[inv[x]] for x in ids]
        else:
            odot = [[meet[join[x][inv[y]]][y] for y in ids] for x in ids]
            arrow = [[join[meet[x][y]][inv[x]] for y in ids] for x in ids]
    ops = ResiduatedOps(kind, tuple(map(tuple, odot)), tuple(map(tuple, arrow)))
    object.__setattr__(ops, "_lattice", lattice)
    return ops


def _lattice_tables(lattice: FinitePoset) -> tuple[list[list[int]], list[list[int]]]:
    """Join and meet of a lattice as m×m tables of element ids by the
    rules of :func:`~posetkit.checks._lattice_ops`, kept by their readers;
    raises NotALattice on a poset that is not one."""
    lattice.require_lattice()
    up, by_up = lattice.up, lattice.by_up
    sets, index = lattice.meet_sets
    return ([[by_up[a & b] for b in up] for a in up],
            [[index[a & b] for b in sets] for a in sets])


def _cover_walk(order: FinitePoset) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each element that has upper covers, with them, the elements with
    the fewest elements above them first, so that every cover comes
    before the elements it covers; kept on the order."""
    covers = order.upper_covers
    walk = sorted(range(order.n), key=lambda x: order.up[x].bit_count())
    return tuple((x, tuple(bits(covers[x]))) for x in walk if covers[x])


def _arrow_rows(order: FinitePoset, column) -> list[int]:
    """Row x marks the z with x <= column[z].  Row v first collects the z
    with column[z] = v; then each x, in the order of :func:`_cover_walk`,
    ORs in the finished rows of its upper covers."""
    rows = [0] * order.n
    for z, v in enumerate(column):
        rows[v] |= 1 << z
    for x, covers in order.kept(_cover_walk):
        row = rows[x]
        for c in covers:
            row |= rows[c]
        rows[x] = row
    return rows


def _first_unadjoint_column(order: FinitePoset, odot, arrow) -> int | None:
    """First y at which x.y <= z and x <= y->z disagree for some x, z,
    or None.

    For each y the adjunction says that the z above x.y, the row
    up[x.y], are the z with x <= y->z, the row :func:`_arrow_rows` gives
    for x.  That is exact for any tables on any poset, and costs one
    pass of O(n + covers) word ORs per column.
    """
    up = order.up
    for y, (f, g) in enumerate(zip(zip(*odot), arrow)):
        if _arrow_rows(order, g) != list(map(up.__getitem__, f)):
            return y
    return None


def _adjunction_witness(lattice: FinitePoset, odot, arrow, y: int) -> tuple[int, int] | None:
    """First x, then first z, with x.y <= z and x <= y->z disagreeing,
    or None: the rows of column y compared one x at a time."""
    for x, row in enumerate(_arrow_rows(lattice, arrow[y])):
        if lattice.up[odot[x][y]] != row:
            return x, next(bits(lattice.up[odot[x][y]] ^ row))
    return None


def _law_holds(lattice: FinitePoset, ops: ResiduatedOps) -> bool | None:
    """Whether the lattice law that the adjunction of ``ops`` amounts to
    holds, or None where no law is known to decide it: ops not made by
    :func:`bdm_transform` on this very lattice, the ``relpseudo`` kind,
    or an involution that is not an orthocomplementation."""
    if ops._lattice is not lattice or ops.kind not in ("boolean", "pseudo_om"):
        return None
    try:
        _orthocomplemented(lattice)
    except NotComplemented:
        return None
    if ops.kind == "boolean":
        return _distributive_law(lattice)
    return _orthomodular_law(lattice)


def verify_left_residuated_lattice(lattice: FinitePoset, ops: ResiduatedOps,
                                   check_associativity: bool = False) -> CheckReport:
    """Unit law and adjunction x.y <= z iff x <= y->z for element valued
    operations.

    On an ortholattice L, with the ``boolean`` or ``pseudo_om`` ops that
    :func:`bdm_transform` made on L, the adjunction is a lattice law:

    * ``boolean`` (x.y = x ^ y, y->z = y' v z) holds iff L is
      distributive, decided by Birkhoff's criterion.  A left adjoint
      preserves joins, so (a v b) ^ y = (a ^ y) v (b ^ y).  Conversely a
      distributive ortholattice is Boolean, and there x ^ y <= z gives
      x = (x ^ y) v (x ^ y') <= z v y', while x <= y' v z gives
      x ^ y <= (y' v z) ^ y = z ^ y.
    * ``pseudo_om`` (the Sasaki projection x.y = (x v y') ^ y and
      y->z = (y ^ z) v y') holds iff L is orthomodular (Foulis, Proc.
      AMS 11, 1960; Kalmbach, Orthomodular Lattices, 1983, s. 5),
      decided by the orthomodular law: a <= b implies b = a v (a' ^ b),
      dually a = b ^ (b' v a).  If L is orthomodular, y' <= x v y' gives
      x <= x v y' = y' v x.y, so x.y <= z implies x <= y' v (y ^ z);
      and x <= y->z implies x.y <= (y->z).y = (y' v (y ^ z)) ^ y = y ^ z
      by the dual law for y ^ z <= y.  Conversely, for a <= b the
      adjunction at x = b, y = a' gives b <= a' -> (b.a') =
      ((b v a) ^ a') v a = (b ^ a') v a, and so b = a v (a' ^ b).

    Anywhere else the tables are read column by column with
    ``_first_unadjoint_column``.  On a failure the first failing y is
    walked in full to name the first x, then the first z, where the two
    sides disagree; a failed law whose columns all pass, or a failing
    column the walk cannot witness, raises InternalError.

    Commutativity of odot is reported as a flag; associativity too when
    asked for, and neither is required for the check to hold.  On the
    law route the flag is known: yes for ``boolean``, whose x.y is x ^ y,
    and for ``pseudo_om`` yes exactly when L is distributive.  If L is,
    (x v y') ^ y = (x ^ y) v (y' ^ y) = x ^ y.  Conversely,
    x ^ y <= x.y = y.x <= x ^ y, so x.y = x ^ y throughout; for a <= b
    that is (a v b') ^ b = a, so L is orthomodular.  At (y', x) and
    (x', y') it gives x ^ (x' v y') = x ^ y' and (x' v y) ^ y' = x' ^ y',
    so c = (x ^ y) v (x ^ y') <= x has x ^ c' = 0, and x = c by the law:
    every pair commutes, which makes an orthomodular lattice Boolean
    (Kalmbach, Orthomodular Lattices, 1983, s. 3).
    """
    _, top = lattice.require_bounds()
    n = lattice.n
    names = lattice.names
    odot, arrow = ops.odot, ops.arrow

    commutative = all(map(eq, map(tuple, odot), zip(*odot)))
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
    law = _law_holds(lattice, ops)
    if law:
        return CheckReport("left-residuated-lattice", True, extra=flags)
    y = _first_unadjoint_column(lattice, odot, arrow)
    if y is None:
        if law is False:
            raise InternalError("lattice law and Galois criterion must agree")
        return CheckReport("left-residuated-lattice", True, extra=flags)
    found = _adjunction_witness(lattice, odot, arrow, y)
    if found is None:
        raise InternalError("Galois criterion and adjunction walk must agree")
    x, z = found
    return CheckReport("left-residuated-lattice", False,
                       witness={"axiom": "adjunction", "x": names[x],
                                "y": names[y], "z": names[z]},
                       extra=flags)
