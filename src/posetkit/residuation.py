"""Residuation structures on bounded posets and their completions.

Two layers.  Operator residuation works directly on a poset: the
multiplication M(x,y) and residual R(x,y) are cone valued, and the
adjunction is set inclusion.  Lattice residuation works on a bounded
lattice (typically a completion): odot and arrow are element valued
and the adjunction is the usual order one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import and_

from .checks import _distributive_law, _orthocomplemented, _orthomodular_law
from .completion import DMLattice, require_completion_of
from .errors import InternalError, NoRelativePseudocomplement, NotComplemented, PosetError
from .poset import FinitePoset, bits
from .report import CheckReport

KINDS = ("boolean", "relpseudo", "pseudo_om")


def relative_pseudocomplement(poset: FinitePoset, x: int | str, y: int | str) -> int | None:
    """Greatest c with L(c,x) inside L(y), or None; x and y are ids or
    names.  The candidates are the elements above no member of L(x)
    outside L(y): a down-set, which has a greatest element exactly when
    it is principal."""
    above = 0
    for d in bits(poset.down[poset.id_of(x)] & ~poset.down[poset.id_of(y)]):
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

    Only a in max X, the ``generators`` of X, and b in min U(Y) count.
    a*b is antitone in a and monotone in b, so a <= g gives
    L(g*b) inside L(a*b), and c <= b gives L(a*c) inside L(a*b).  Each a
    in X lies below some g in max X and each b in U(Y) above some c in
    min U(Y), so the other pairs add nothing to the intersection.

    The intersection is taken in two stages: for each base element a
    the row of L(a*b) over b in min U(Y_j), then for each closed set X_i
    the intersection of the rows of its generators; each U(Y_j) is read
    from the completion's ``join_sets``.  The lift must really be
    relative pseudocomplementation on the completion, K ^ X <= Y iff
    K <= X * Y, which ``_first_unadjoint_column`` decides column by
    column for K -> K ^ X, each meet a lookup in ``meet_sets``, and
    Y -> X * Y; and it must extend the base operation along the
    embedding.  Either failure raises InternalError.  A lattice whose
    base has other names or up rows than ``poset`` raises PosetError.
    """
    star = _star_table(poset)
    require_completion_of(poset, lattice)
    (closed, index), down, full = lattice.meet_sets, poset.down, poset.full
    lows = [tuple(b for b in bits(cone) if down[b] & cone == 1 << b)
            for cone in lattice.join_sets[0]]
    rows = []
    for star_a in star:
        row = []
        for low in lows:
            acc = full
            for b in low:
                acc &= down[star_a[b]]
            row.append(acc)
        rows.append(row)
    table = []
    for gens in lattice.generators:
        acc_row = [full] * len(closed)
        for a in bits(gens):
            acc_row = list(map(and_, acc_row, rows[a]))
        table.append([index[acc] for acc in acc_row])
    # K ^ X, as a function of K, is row X of the meet
    meets = ([index[mask & other] for other in closed] for mask in closed)
    if _first_unadjoint_column(lattice, meets, table) is not None:
        raise InternalError("lifted star must be residual to the meet")
    for x in range(poset.n):
        for y in range(poset.n):
            if table[lattice.embed[x]][lattice.embed[y]] != lattice.embed[star[x][y]]:
                raise InternalError("lifted star must extend the base operation")
    return table


@dataclass(frozen=True)
class ResiduatedOps:
    """Element valued operations on a bounded lattice.

    Ops that :func:`bdm_transform` made carry ``_lattice``, the lattice
    they were made on, and ``_at``, the functions that give entry
    (x, y) of ``odot`` and of ``arrow`` by lookup; each table is built
    from them the first time it is read.  Both are class attributes, not
    fields, so ``==``, ``repr``, ``astuple`` and ``dataclasses.replace``
    read the tables and ignore them, and ops built by hand or by
    ``replace`` keep None."""
    kind: str
    odot: tuple
    arrow: tuple
    _lattice = None
    _at = None

    def __getattr__(self, name):
        # reached only for an attribute that is not set: a table of made
        # ops that nobody has read yet
        if self._at is None or name not in ("odot", "arrow"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        at, ids = self._at[name == "arrow"], range(self._lattice.n)
        table = tuple(tuple(map(at, repeat(x), ids)) for x in ids)
        object.__setattr__(self, name, table)
        return table


def bdm_transform(lattice: FinitePoset, kind: str,
                  star: list[list[int]] | None = None) -> ResiduatedOps:
    """Turn a bounded lattice into candidate residuated operations.

    boolean:   x.y = x ^ y          x->y = x' v y
    relpseudo: x.y = x ^ y          x->y = x * y
    pseudo_om: x.y = (x v y') ^ y   x->y = (x ^ y) v x'

    Every entry is read by lookup: a meet is ``index[sets[a] & sets[b]]``
    of ``meet_sets``, a join the same of ``join_sets``, and x * y is
    entry (x, y) of ``star`` or of the lattice's own table.  The
    ``odot`` and ``arrow`` tables are built only when a caller reads
    them, and no table is kept on the lattice.  The preconditions are
    checked here: NotALattice, then MissingInvolution, or
    NoRelativePseudocomplement for ``relpseudo`` without a ``star``; a
    given ``star`` that is not m rows of m element ids raises PosetError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    lattice.require_lattice()
    sets, index = lattice.meet_sets

    def meet(a, b):
        return index[sets[a] & sets[b]]

    if kind == "relpseudo":
        if star is not None:
            _require_ids(lattice.n, kind, star)
        table = star if star is not None else _star_table(lattice)
        at = meet, lambda x, y: table[x][y]
    else:
        inv = lattice.require_involution()
        cones, by_cone = lattice.join_sets

        def join(a, b):
            return by_cone[cones[a] & cones[b]]

        if kind == "boolean":
            at = meet, lambda x, y: join(inv[x], y)
        else:
            at = (lambda x, y: meet(join(x, inv[y]), y),
                  lambda x, y: join(meet(x, y), inv[x]))
    ops = object.__new__(ResiduatedOps)
    for name, value in (("kind", kind), ("_lattice", lattice), ("_at", at)):
        object.__setattr__(ops, name, value)
    return ops


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


def _first_unadjoint_column(order: FinitePoset, columns, arrow) -> int | None:
    """First y at which x.y <= z and x <= y->z disagree for some x, z,
    or None; ``columns`` yields column y of odot, x.y over x, and
    ``arrow`` row y of arrow, y->z over z, for each y in turn.

    For each y the adjunction says that the z above x.y, the row
    up[x.y], are the z with x <= y->z, the row :func:`_arrow_rows` gives
    for x.  That is exact for any tables on any poset, and costs one
    pass of O(n + covers) word ORs per column.
    """
    up = order.up
    for y, (f, g) in enumerate(zip(columns, arrow)):
        if _arrow_rows(order, g) != list(map(up.__getitem__, f)):
            return y
    return None


def _adjunction_witness(lattice: FinitePoset, odot, arrow, y: int) -> tuple[int, int] | None:
    """First x, then first z, with x.y <= z and x <= y->z disagreeing,
    or None: the rows of column y compared one x at a time, each entry
    read through ``odot(x, y)`` and ``arrow(y, z)``."""
    ids = range(lattice.n)
    for x, row in enumerate(_arrow_rows(lattice, [arrow(y, z) for z in ids])):
        above = lattice.up[odot(x, y)]
        if above != row:
            return x, next(bits(above ^ row))
    return None


def _require_ids(n: int, kind: str, *tables) -> None:
    """Raise PosetError unless each table is n rows of n element ids."""
    for table in tables:
        if len(table) != n or not all(
                len(row) == n and all(isinstance(v, int) and 0 <= v < n for v in row)
                for row in table):
            raise PosetError(f"{kind} tables are not {n} rows of {n} element ids")


def _table_entries(ops: ResiduatedOps, n: int):
    """The entry functions of ops read from their checked tables."""
    odot, arrow = ops.odot, ops.arrow
    _require_ids(n, ops.kind, odot, arrow)
    return (lambda x, y: odot[x][y]), (lambda x, y: arrow[x][y])


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

    Ops that :func:`bdm_transform` made on this lattice are read entry by
    entry through their lookups, and no table is built.  The unit law
    takes O(m) of them; on an ortholattice it holds by proof, as 1' = 0
    gives x.1 = (x v 0) ^ 1 = x and 1.x = (1 v x') ^ x = x.  Other ops
    are read from their tables, which must be m rows of m element ids,
    or PosetError is raised.  Anywhere the law does not hold, or no law
    is known, the entries are read column by column with
    ``_first_unadjoint_column``.  On a failure the first failing y is
    walked in full to name the first x, then the first z, where the two
    sides disagree; a failed law whose columns all pass, or a failing
    column the walk cannot witness, raises InternalError.

    Commutativity of odot is reported as a flag; associativity too when
    asked for, from the odot table, which is then built, and neither is
    required for the check to hold.  For made ``boolean`` and
    ``relpseudo`` ops x.y is x ^ y, so the flag is yes.  For made
    ``pseudo_om`` ops on an ortholattice it is yes exactly when L is
    distributive, which asks Birkhoff's criterion only once the
    orthomodular law holds: a distributive ortholattice is Boolean, so
    orthomodular.  Other ops have it read pair by pair.  If L is,
    (x v y') ^ y = (x ^ y) v (y' ^ y) = x ^ y.  Conversely,
    x ^ y <= x.y = y.x <= x ^ y, so x.y = x ^ y throughout; for a <= b
    that is (a v b') ^ b = a, so L is orthomodular.  At (y', x) and
    (x', y') it gives x ^ (x' v y') = x ^ y' and (x' v y) ^ y' = x' ^ y',
    so c = (x ^ y) v (x ^ y') <= x has x ^ c' = 0, and x = c by the law:
    every pair commutes, which makes an orthomodular lattice Boolean
    (Kalmbach, Orthomodular Lattices, 1983, s. 3).
    """
    _, top = lattice.require_bounds()
    n, names, ids = lattice.n, lattice.names, range(lattice.n)
    made = ops._lattice is lattice
    odot, arrow = ops._at if made else _table_entries(ops, n)
    unit = next((x for x in ids if odot(x, top) != x or odot(top, x) != x), None)
    law = None if unit is not None else _law_holds(lattice, ops)
    if made and ops.kind != "pseudo_om":
        commutative = True  # odot is the meet
    elif law is not None:
        commutative = law and _distributive_law(lattice)
    else:
        commutative = all(odot(x, y) == odot(y, x) for x in ids for y in range(x))
    associative = "unchecked"
    if check_associativity:
        table = ops.odot
        associative = "yes" if all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in ids for y in ids for z in ids) else "no"
    flags = {"kind": ops.kind, "commutative": "yes" if commutative else "no",
             "associative": associative}

    if unit is not None:
        return CheckReport("left-residuated-lattice", False,
                           witness={"axiom": "unit", "x": names[unit]}, extra=flags)
    if law:
        return CheckReport("left-residuated-lattice", True, extra=flags)
    columns = ([odot(x, y) for x in ids] for y in ids)
    y = _first_unadjoint_column(lattice, columns, ([arrow(y, z) for z in ids] for y in ids))
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
