"""Structural property checkers.

Every checker returns a :class:`CheckReport`; a failed report always
carries the first counterexample in canonical element order (ids
ascending, outer variable first).  Checkers that are stated through a
pair of equivalent identities evaluate both forms and raise
:class:`InternalError` when the verdicts disagree, so a divergence
between the two routes is never a silent wrong answer.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

from .completion import DMLattice, complete, DEFAULT_MAX_CLOSED_SETS
from .errors import (
    InternalError,
    MissingBounds,
    MissingInvolution,
    NotALattice,
    NotComplemented,
    SizeLimitExceeded,
)
from .poset import (
    ElementSet,
    FinitePoset,
    LatticeView,
    bits,
    is_antitone_involution,
    is_complementation,
    lattice_violation,
    maximal_orthogonal_subsets,
    orthogonal_subsets,
)
from .report import CheckReport


# -- distributivity -----------------------------------------------------


def _distributive_violation(poset: FinitePoset, dual: bool) -> tuple | None:
    """First (x, y, z) with L(U(x,y),z) != LU(L(x,z),L(y,z)), or None;
    the dual form swaps the lower and upper cones."""
    n = poset.n
    lo, up = ((poset.lower_cone, poset.upper_cone) if not dual
              else (poset.upper_cone, poset.lower_cone))
    for x in range(n):
        for y in range(n):
            outer = up((1 << x) | (1 << y))
            for z in range(n):
                zbit = 1 << z
                if lo(outer | zbit) != lo(up(lo((1 << x) | zbit) | lo((1 << y) | zbit))):
                    return (x, y, z)
    return None


def _lattice_distributive_violation(view: LatticeView, dual: bool) -> tuple | None:
    """The cone identities on a lattice, where every cone is principal:
    L(U(x,y),z) is L((x v y) ^ z) and LU(L(x,z),L(y,z)) is
    L((x ^ z) v (y ^ z)); the dual form swaps join and meet.  Triples
    are visited in the order of :func:`_distributive_violation`."""
    join, meet = (view.join, view.meet) if not dual else (view.meet, view.join)
    for x in range(view.size):
        for y in range(view.size):
            lhs = meet[join[x][y]]
            for z in range(view.size):
                if lhs[z] != join[meet[x][z]][meet[y][z]]:
                    return (x, y, z)
    return None


def _distributive_report(lower_form: tuple | None, upper_form: tuple | None,
                         name_of) -> CheckReport:
    if (lower_form is None) != (upper_form is None):
        raise InternalError("the two distributivity identities must agree")
    if lower_form is None:
        return CheckReport("distributive", True)
    x, y, z = lower_form
    return CheckReport("distributive", False,
                       witness={"x": name_of(x), "y": name_of(y), "z": name_of(z)},
                       details="L(U(x,y),z) differs from LU(L(x,z),L(y,z))")


def is_distributive_poset(poset: FinitePoset) -> CheckReport:
    """Cone distributivity, checked through both displayed identities."""
    return _distributive_report(_distributive_violation(poset, dual=False),
                                _distributive_violation(poset, dual=True),
                                poset.names.__getitem__)


def is_distributive_lattice(lattice: "FinitePoset | DMLattice") -> CheckReport:
    """Cone distributivity of a lattice, both identities read off its
    join and meet tables; same verdict and witness as
    :func:`is_distributive_poset`."""
    view = lattice.view
    return _distributive_report(_lattice_distributive_violation(view, dual=False),
                                _lattice_distributive_violation(view, dual=True),
                                view.name_of)


def is_boolean_poset(poset: FinitePoset) -> CheckReport:
    comp = is_complementation(poset)
    if not comp.holds:
        return CheckReport("boolean", False, witness=comp.witness,
                           details="involution is not a complementation: " + comp.details)
    dist = is_distributive_poset(poset)
    if not dist.holds:
        return CheckReport("boolean", False, witness=dist.witness,
                           details=dist.details)
    return CheckReport("boolean", True)


# -- orthomodularity ----------------------------------------------------


def is_orthomodular_poset(poset: FinitePoset) -> CheckReport:
    """Orthogonal pairs have joins and ((x^y) v y')^ y = x^y holds,
    meets taken through De Morgan.

    The identity is evaluated only where its subterms exist; a missing
    subterm counts as a failure exactly on orthogonal pairs (where the
    axioms promise existence) and skips the pair otherwise.
    """
    comp = is_complementation(poset)
    if not comp.holds:
        raise NotComplemented(f"orthomodularity needs a complementation ({comp.details})")
    inv = poset.inv
    names = poset.names

    def join2(a: int, b: int) -> int | None:
        return poset.join_of((1 << a) | (1 << b))

    for x in range(poset.n):
        for y in range(poset.n):
            orthogonal = bool((poset.up[x] >> inv[y]) & 1)
            if orthogonal and join2(x, y) is None:
                return CheckReport("orthomodular-poset", False,
                                   witness={"x": names[x], "y": names[y]},
                                   details="orthogonal pair without a join")
            j = join2(inv[x], inv[y])
            if j is not None:
                meet_xy = inv[j]
                j = join2(meet_xy, inv[y])
                if j is not None:
                    outer = join2(inv[j], inv[y])
                    if outer is not None:
                        if inv[outer] != meet_xy:
                            return CheckReport(
                                "orthomodular-poset", False,
                                witness={"x": names[x], "y": names[y]},
                                details="((x^y) v y') ^ y differs from x^y")
                        continue
            if orthogonal:
                return CheckReport("orthomodular-poset", False,
                                   witness={"x": names[x], "y": names[y]},
                                   details="identity subterm undefined on an orthogonal pair")
    return CheckReport("orthomodular-poset", True)


def is_orthomodular_lattice(lattice: "FinitePoset | DMLattice") -> CheckReport:
    """Lattice orthomodularity via x v y = ((x v y) ^ y') v y, cross
    checked against the x <= y, x' ^ y = 0 implies x = y condition."""
    if isinstance(lattice, DMLattice):
        if lattice.inv is None:
            raise MissingInvolution("completion carries no involution")
        view, inv, bottom, top = lattice.view, lattice.inv, lattice.bottom, lattice.top
    else:
        if lattice.inv is not None:
            anti = is_antitone_involution(lattice)
            if not anti.holds:
                raise NotComplemented("involution is not antitone: " + anti.details)
        view = lattice.view
        inv = lattice.require_involution()
        bottom, top = lattice.require_bounds()
    join, meet, size = view.join, view.meet, view.size
    for k in range(size):
        if meet[k][inv[k]] != bottom or join[k][inv[k]] != top:
            raise NotComplemented(f"{view.name_of(k)} meets or joins its image improperly")

    identity = None
    for x in range(size):
        if identity:
            break
        for y in range(size):
            top_xy = join[x][y]
            if join[meet[top_xy][inv[y]]][y] != top_xy:
                identity = (x, y)
                break
    exchange = None
    for x in range(size):
        if exchange:
            break
        for y in range(size):
            if x != y and meet[x][y] == x and meet[inv[x]][y] == bottom:
                exchange = (x, y)
                break
    if (identity is None) != (exchange is None):
        raise InternalError("orthomodular identity and exchange condition must agree")
    if identity is None:
        return CheckReport("orthomodular-lattice", True)
    x, y = identity
    return CheckReport("orthomodular-lattice", False,
                       witness={"x": view.name_of(x), "y": view.name_of(y)},
                       details="((x v y) ^ y') v y differs from x v y")


def find_modularity_violation(lattice: "FinitePoset | DMLattice") -> dict | None:
    """First x <= z and y with x v (y ^ z) != (x v y) ^ z, or None."""
    view = lattice.view
    join, meet, size = view.join, view.meet, view.size
    for x in range(size):
        for z in range(size):
            if x == z or meet[x][z] != x:
                continue
            for y in range(size):
                if join[x][meet[y][z]] != meet[join[x][y]][z]:
                    return {"x": view.name_of(x), "y": view.name_of(y), "z": view.name_of(z)}
    return None


def is_modular_lattice(lattice: "FinitePoset | DMLattice") -> CheckReport:
    bad = find_modularity_violation(lattice)
    if bad is None:
        return CheckReport("modular", True)
    return CheckReport("modular", False, witness=bad,
                       details="x v (y ^ z) differs from (x v y) ^ z for x <= z")


# -- pseudo-orthomodularity ---------------------------------------------


def _pseudo_om_violation(poset: FinitePoset, dual: bool) -> tuple | None:
    """First (x, y) with L(U(L(x,y),y'),y) != L(x,y), or None; the dual
    form swaps the lower and upper cones."""
    inv = poset.inv
    lo, up = ((poset.lower_cone, poset.upper_cone) if not dual
              else (poset.upper_cone, poset.lower_cone))
    for x in range(poset.n):
        for y in range(poset.n):
            below = lo((1 << x) | (1 << y))
            if lo(up(below | (1 << inv[y])) | (1 << y)) != below:
                return (x, y)
    return None


def is_pseudo_orthomodular(poset: FinitePoset) -> CheckReport:
    """L(U(L(x,y),y'),y) = L(x,y) for all pairs, plus the dual form."""
    comp = is_complementation(poset)
    if not comp.holds:
        raise NotComplemented(f"pseudo-orthomodularity needs a complementation ({comp.details})")
    lower_form = _pseudo_om_violation(poset, dual=False)
    upper_form = _pseudo_om_violation(poset, dual=True)
    if (lower_form is None) != (upper_form is None):
        raise InternalError("the two pseudo-orthomodularity identities must agree")
    if lower_form is None:
        return CheckReport("pseudo-orthomodular", True)
    x, y = lower_form
    return CheckReport("pseudo-orthomodular", False,
                       witness={"x": poset.names[x], "y": poset.names[y]},
                       details="L(U(L(x,y),y'),y) differs from L(x,y)")


# -- strong D-continuity -------------------------------------------------


def is_strongly_d_continuous(poset: FinitePoset,
                             lattice: DMLattice | None = None) -> CheckReport:
    """For every B <= C: the elements of C together with the involution
    images of B meet only in 0 exactly when every lower bound of C is
    below every upper bound of B.

    The infimum-is-zero premise is read as a lower cone condition,
    L(C united with B-images) = {0}.  The quantification is reduced to
    closed representatives: (B, C) = (X, U(Y)) over closed X inside Y,
    which covers all subset pairs because both sides depend on (B, C)
    only through LU(B) and L(C).
    """
    comp = is_complementation(poset)
    if not comp.holds:
        raise NotComplemented(f"strong D-continuity needs a complementation ({comp.details})")
    if lattice is None:
        lattice = complete(poset)
    bottom_mask = 1 << poset.bottom
    upper_images = [poset.inv_image(poset.upper_cone(mask)) for mask in lattice.closed]
    for i, x_mask in enumerate(lattice.closed):
        # one-line direction: valid outright in any complemented poset
        if x_mask & upper_images[i] != bottom_mask:
            raise InternalError("a complemented poset cannot fail the backward direction")
        for j, y_mask in enumerate(lattice.closed):
            if i == j or x_mask & ~y_mask:
                continue
            if y_mask & upper_images[i] == bottom_mask:
                return CheckReport(
                    "strongly-d-continuous", False,
                    witness={"B": poset.names_of(x_mask),
                             "C": poset.names_of(poset.upper_cone(y_mask))},
                    details="cone meets in 0 but some lower bound of C "
                            "is not below some upper bound of B")
    return CheckReport("strongly-d-continuous", True,
                       details="infimum-is-zero read as L(C,B') = {0}")


def naive_strongly_d_continuous(poset: FinitePoset) -> CheckReport:
    """Every-subset-pair version, for cross validation on small posets."""
    comp = is_complementation(poset)
    if not comp.holds:
        raise NotComplemented("strong D-continuity needs a complementation")
    if poset.n > 14:
        raise SizeLimitExceeded(
            f"naive quantification is exponential; {poset.n} elements, at most 14")
    bottom_mask = 1 << poset.bottom
    for b_set in range(poset.full + 1):
        upper_b = poset.upper_cone(b_set)
        shifted = poset.lower_cone(poset.inv_image(b_set))
        for c_set in range(poset.full + 1):
            if c_set & ~upper_b:
                continue  # not B <= C
            lower_c = poset.lower_cone(c_set)
            zero_meet = lower_c & shifted == bottom_mask
            dominated = lower_c & ~poset.lower_cone(upper_b) == 0
            if zero_meet != dominated:
                return CheckReport(
                    "strongly-d-continuous", False,
                    witness={"B": poset.names_of(b_set), "C": poset.names_of(c_set)},
                    details="naive quantification")
    return CheckReport("strongly-d-continuous", True, details="naive quantification")


# -- completion orthomodularity through maximal orthogonal sets ----------


def finch_criterion(poset: FinitePoset, lattice: DMLattice | None = None) -> CheckReport:
    """Every maximal orthogonal subset of a closed set generates it.

    Equivalent to the completion being an orthomodular lattice; the
    closed set of 0 alone is excluded from the quantification.
    """
    comp = is_complementation(poset)
    if not comp.holds:
        raise NotComplemented(f"the criterion needs a complementation ({comp.details})")
    if lattice is None:
        lattice = complete(poset)
    zero_closed = poset.closure(0)
    for mask in lattice.closed:
        if mask == zero_closed:
            continue
        for subset in maximal_orthogonal_subsets(poset, mask):
            if poset.closure(subset) != mask:
                return CheckReport(
                    "finch", False,
                    witness={"closed-set": poset.names_of(mask),
                             "maximal-orthogonal": poset.names_of(subset)},
                    details="maximal orthogonal subset generates a smaller closed set")
    return CheckReport("finch", True)


# -- doubly dense subsets ------------------------------------------------


def is_complement_closed_doubly_dense(lattice: FinitePoset, subset: ElementSet) -> CheckReport:
    """subset contains the bounds, is involution closed, and every
    lattice element is both a join and a meet of subset elements."""
    lattice.view  # raises NotALattice naming the first pair without a join or meet
    comp = is_complementation(lattice)
    if not comp.holds:
        raise NotComplemented("doubly dense subsets live in complemented lattices")
    bottom, top = lattice.require_bounds()
    name = "complement-closed-doubly-dense"
    for k in (bottom, top):
        if not (subset >> k) & 1:
            return CheckReport(name, False, witness={"missing": lattice.names[k]},
                               details="subset must contain the bounds")
    if lattice.inv_image(subset) != subset:
        stray = subset & ~lattice.inv_image(subset)
        culprit = next(bits(stray | (lattice.inv_image(subset) & ~subset)))
        return CheckReport(name, False, witness={"x": lattice.names[culprit]},
                           details="subset is not closed under the involution")
    for a in range(lattice.n):
        if lattice.join_of(lattice.down[a] & subset) != a:
            return CheckReport(name, False, witness={"a": lattice.names[a]},
                               details="element is not the join of subset elements below it")
        if lattice.meet_of(lattice.up[a] & subset) != a:
            return CheckReport(name, False, witness={"a": lattice.names[a]},
                               details="element is not the meet of subset elements above it")
    return CheckReport(name, True)


def doubly_dense_subsets(lattice: FinitePoset) -> Iterator[ElementSet]:
    """Exhaustively enumerate complement-closed doubly dense subsets."""
    bottom, top = lattice.require_bounds()
    inv = lattice.require_involution()
    base = (1 << bottom) | (1 << top)
    orbits = []
    seen = base
    for i in range(lattice.n):
        if not (seen >> i) & 1:
            orbit = (1 << i) | (1 << inv[i])
            orbits.append(orbit)
            seen |= orbit
    for combo in range(1 << len(orbits)):
        mask = base
        for k in bits(combo):
            mask |= orbits[k]
        if is_complement_closed_doubly_dense(lattice, mask).holds:
            yield mask


# -- named check registry ------------------------------------------------


class CheckContext:
    """Carries a poset and computes its completion at most once."""

    def __init__(self, poset: FinitePoset, max_closed_sets: int = DEFAULT_MAX_CLOSED_SETS):
        self.poset = poset
        self.max_closed_sets = max_closed_sets
        self._dm: DMLattice | SizeLimitExceeded | None = None

    @property
    def dm(self) -> DMLattice:
        """The completion; a hit cap is kept and raised again on every
        later access rather than recomputed."""
        if self._dm is None:
            try:
                self._dm = complete(self.poset, self.max_closed_sets)
            except SizeLimitExceeded as exc:
                self._dm = exc
        if isinstance(self._dm, SizeLimitExceeded):
            raise self._dm.with_traceback(None)
        return self._dm


def _atomic_report(ctx: CheckContext) -> CheckReport:
    poset = ctx.poset
    bottom, _ = poset.require_bounds()
    atom_mask = poset.atoms()
    for i in range(poset.n):
        if i != bottom and poset.down[i] & atom_mask == 0:
            return CheckReport("atomic", False, witness={"x": poset.names[i]},
                               details="no atom below a nonzero element")
    return CheckReport("atomic", True)


def _atomistic_report(ctx: CheckContext) -> CheckReport:
    poset = ctx.poset
    atom_mask = poset.atoms()
    for i in range(poset.n):
        if poset.join_of(poset.down[i] & atom_mask) != i:
            return CheckReport("atomistic", False, witness={"x": poset.names[i]},
                               details="element is not the join of the atoms below it")
    return CheckReport("atomistic", True)


def _orthocomplete_report(ctx: CheckContext) -> CheckReport:
    poset = ctx.poset
    bottom, _ = poset.require_bounds()
    for subset in orthogonal_subsets(poset, poset.full & ~(1 << bottom)):
        if poset.join_of(subset) is None:
            return CheckReport("orthocomplete", False,
                               witness={"subset": poset.names_of(subset)},
                               details="orthogonal subset without a join")
    return CheckReport("orthocomplete", True)


def _lattice_report(ctx: CheckContext) -> CheckReport:
    bad = lattice_violation(ctx.poset)
    if bad is None:
        return CheckReport("lattice", True)
    return CheckReport("lattice", False,
                       witness={"x": bad["x"], "y": bad["y"]},
                       details=f"pair has no {bad['missing']}")


def _renamed(report: CheckReport, name: str) -> CheckReport:
    return dataclasses.replace(report, name=name)


PROPERTIES = {
    "antitone-involution": lambda ctx: is_antitone_involution(ctx.poset),
    "complementation": lambda ctx: is_complementation(ctx.poset),
    "lattice": _lattice_report,
    "atomic": _atomic_report,
    "atomistic": _atomistic_report,
    "orthocomplete": _orthocomplete_report,
    "distributive": lambda ctx: is_distributive_poset(ctx.poset),
    "boolean": lambda ctx: is_boolean_poset(ctx.poset),
    "modular": lambda ctx: is_modular_lattice(ctx.poset),
    "orthomodular-poset": lambda ctx: is_orthomodular_poset(ctx.poset),
    "orthomodular-lattice": lambda ctx: is_orthomodular_lattice(ctx.poset),
    "pseudo-orthomodular": lambda ctx: is_pseudo_orthomodular(ctx.poset),
    "strongly-d-continuous": lambda ctx: is_strongly_d_continuous(ctx.poset, ctx.dm),
    "finch": lambda ctx: finch_criterion(ctx.poset, ctx.dm),
    "completion-orthomodular": lambda ctx: _renamed(
        is_orthomodular_lattice(ctx.dm), "completion-orthomodular"),
    "completion-distributive": lambda ctx: _renamed(
        is_distributive_lattice(ctx.dm), "completion-distributive"),
    "completion-modular": lambda ctx: _renamed(
        is_modular_lattice(ctx.dm), "completion-modular"),
}


def run_check(name: str, poset: FinitePoset,
              max_closed_sets: int = DEFAULT_MAX_CLOSED_SETS) -> CheckReport:
    if name not in PROPERTIES:
        raise KeyError(f"unknown property {name!r}")
    return PROPERTIES[name](CheckContext(poset, max_closed_sets))


# Errors that leave a property undecided rather than failed: the input
# lacks what the property presupposes, or its completion hit the cap.
PRECONDITION_ERRORS = (
    MissingInvolution,
    MissingBounds,
    NotComplemented,
    NotALattice,
    SizeLimitExceeded,
)


def run_properties(ctx: CheckContext, names: Iterable[str]):
    """Evaluate properties in order, yielding (name, report, None), or
    (name, None, exc) when a precondition error left the property
    undecided.  Each entry is read from PROPERTIES as it runs."""
    for name in names:
        try:
            yield name, PROPERTIES[name](ctx), None
        except PRECONDITION_ERRORS as exc:
            yield name, None, exc
