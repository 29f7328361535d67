"""Higher-level constructors: horizontal sums, Greechie diagram pasting,
induced subposets, and small-poset generation for property suites.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .checks import is_orthomodular_poset, is_pseudo_orthomodular
from .completion import DEFAULT_MAX_CLOSED_SETS, complete
from .errors import (
    InternalError,
    InvalidDiagram,
    MissingInvolution,
    NotComplementClosed,
    PosetError,
    SizeLimitExceeded,
    UnboundedPart,
)
from .poset import (
    ElementSet,
    FinitePoset,
    _transitive_closure,
    bits,
    is_complementation,
    is_lattice,
    labeled_diff,
    transposed,
)
from .report import CheckReport

EXHAUSTIVE_SIZE_CAP = 8
RANDOM_SIZE_CAP = 12


# -- horizontal sums -----------------------------------------------------


def horizontal_sum(parts: Sequence[FinitePoset]) -> FinitePoset:
    """Glue bounded posets at shared bounds; middles of different parts
    stay incomparable.  Bound names are taken from the first part."""
    parts = list(parts)
    if not parts:
        raise UnboundedPart("horizontal sum needs at least one part")
    for p in parts:
        if p.bottom is None or p.top is None:
            raise UnboundedPart("every part must be bounded")
        if p.bottom == p.top:
            raise UnboundedPart("every part must have distinct bounds")
    carried = [p.inv is not None for p in parts]
    if any(carried) and not all(carried):
        raise MissingInvolution("either every part carries an involution or none does")
    for p in parts:
        if p.inv is not None and p.inv[p.bottom] != p.top:
            raise PosetError("part involution must swap the bounds")

    first = parts[0]
    names = [first.names[first.bottom]]
    owner: list[tuple[int, int]] = []
    for pi, p in enumerate(parts):
        for i in range(p.n):
            if i not in (p.bottom, p.top):
                names.append(p.names[i])
                owner.append((pi, i))
    names.append(first.names[first.top])
    if len(set(names)) != len(names):
        seen, clash = set(), set()
        for x in names:
            (clash if x in seen else seen).add(x)
        raise PosetError(f"element names collide across parts: {sorted(clash)}")

    n = len(names)
    top_id = n - 1
    glob = {pair: g for g, pair in enumerate(owner, start=1)}
    up = [0] * n
    up[0] = (1 << n) - 1
    up[top_id] = 1 << top_id
    for g, (pi, i) in enumerate(owner, start=1):
        row = (1 << g) | (1 << top_id)
        p = parts[pi]
        for j in bits(p.up[i]):
            if j not in (p.bottom, p.top):
                row |= 1 << glob[(pi, j)]
        up[g] = row

    inv = None
    if all(carried):
        inv = [0] * n
        inv[0], inv[top_id] = top_id, 0
        for g, (pi, i) in enumerate(owner, start=1):
            inv[g] = glob[(pi, parts[pi].inv[i])]
        inv = tuple(inv)
    return FinitePoset(tuple(names), tuple(up), inv)


# -- Greechie diagrams ---------------------------------------------------


@dataclass(frozen=True)
class GreechieDiagram:
    atoms: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]


def _block_masks(diagram: GreechieDiagram) -> list[int] | None:
    ids = {a: i for i, a in enumerate(diagram.atoms)}
    if len(ids) != len(diagram.atoms):
        return None
    masks = []
    for block in diagram.blocks:
        mask = 0
        for a in block:
            if a not in ids:
                return None
            mask |= 1 << ids[a]
        if mask.bit_count() != len(block):
            return None
        masks.append(mask)
    return masks


def _find_loop(blocks: list[int], order: int) -> list[int] | None:
    """A loop is a cyclic sequence of distinct blocks joined by mutually
    distinct atoms; returns block indices or None."""
    m = len(blocks)

    def extend(seq: list[int], used_blocks: int, used_atoms: int) -> list[int] | None:
        last = blocks[seq[-1]]
        if len(seq) == order:
            if last & blocks[seq[0]] & ~used_atoms:
                return seq
            return None
        for nxt in range(seq[0] + 1, m):
            if (used_blocks >> nxt) & 1:
                continue
            for atom in bits(last & blocks[nxt] & ~used_atoms):
                found = extend(seq + [nxt], used_blocks | (1 << nxt),
                               used_atoms | (1 << atom))
                if found:
                    return found
        return None

    for start in range(m):
        found = extend([start], 1 << start, 0)
        if found:
            return found
    return None


def _min_loop_order(blocks: list[int], start: int) -> int | None:
    """The least loop order from ``start`` up, or None."""
    return next((order for order in range(start, len(blocks) + 1)
                 if _find_loop(blocks, order)), None)


def min_loop_order(diagram: GreechieDiagram) -> int | None:
    masks = _block_masks(diagram)
    if masks is None:
        raise InvalidDiagram("blocks mention duplicate or unknown atoms")
    return _min_loop_order(masks, 2)


def validate_greechie(diagram: GreechieDiagram) -> CheckReport:
    """The five diagram conditions; the minimum loop order (if any) is
    reported for the lattice criterion."""
    name = "greechie-diagram"
    if not diagram.atoms:
        return CheckReport(name, False, witness={"atoms": ()},
                           details="a diagram needs at least one atom")
    masks = _block_masks(diagram)
    if masks is None:
        return CheckReport(name, False, witness={"atoms": diagram.atoms},
                           details="blocks mention duplicate or unknown atoms")
    if len(set(masks)) != len(masks) or 0 in masks:
        return CheckReport(name, False, witness={"blocks": tuple(map(str, diagram.blocks))},
                           details="blocks must be distinct and nonempty")

    covered = 0
    for mask in masks:
        covered |= mask
    if covered != (1 << len(diagram.atoms)) - 1:
        missing = diagram.atoms[next(bits(((1 << len(diagram.atoms)) - 1) & ~covered))]
        return CheckReport(name, False, witness={"atom": missing},
                           details="every atom must belong to a block")
    if len(diagram.atoms) >= 2:
        for bi, mask in enumerate(masks):
            if mask.bit_count() < 2:
                return CheckReport(name, False,
                                   witness={"block": " ".join(diagram.blocks[bi])},
                                   details="blocks must have at least 2 atoms")
    for bi, mask in enumerate(masks):
        touches = any(mask & other for oi, other in enumerate(masks) if oi != bi)
        if touches and mask.bit_count() < 3:
            return CheckReport(name, False,
                               witness={"block": " ".join(diagram.blocks[bi])},
                               details="intersecting blocks must have at least 3 atoms")
    for bi, mask in enumerate(masks):
        for oi in range(bi + 1, len(masks)):
            if (mask & masks[oi]).bit_count() > 1:
                return CheckReport(name, False,
                                   witness={"blocks": (" ".join(diagram.blocks[bi]),
                                                       " ".join(diagram.blocks[oi]))},
                                   details="blocks may share at most one atom")
    triangle = _find_loop(masks, 3)
    if triangle:
        return CheckReport(name, False,
                           witness={"blocks": tuple(" ".join(diagram.blocks[k])
                                                    for k in triangle)},
                           details="loop of order 3")
    # blocks sharing at most one atom make no loop of order 2
    loop = _min_loop_order(masks, 4)
    return CheckReport(name, True,
                       extra={"min-loop-order": "none" if loop is None else str(loop)})


def greechie_to_omp(diagram: GreechieDiagram) -> FinitePoset:
    """Paste the Boolean power sets of the blocks into one poset.

    Elements are classes of (block, atom subset) pairs under
    (e,S) ~ (f,T) iff S = T or e\\S = f\\T; the order holds between two
    classes when some representatives share a block and are included as
    subsets there; the involution is the in-block complement.  The
    orthomodularity of the result and the loop criterion for being a
    lattice are checked rather than trusted.
    """
    valid = validate_greechie(diagram)
    if not valid.holds:
        raise InvalidDiagram(valid.details)
    for atom in diagram.atoms:
        if atom in ("0", "1") or atom.endswith("'") or "∨" in atom:
            raise InvalidDiagram(f"atom name {atom!r} collides with generated names")
    masks = _block_masks(diagram)

    nodes = [(bi, sub) for bi, mask in enumerate(masks)
             for sub in _submasks(mask)]
    parent = {node: node for node in nodes}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    by_subset: dict[int, list] = {}
    by_complement: dict[int, list] = {}
    for bi, sub in nodes:
        by_subset.setdefault(sub, []).append((bi, sub))
        by_complement.setdefault(masks[bi] & ~sub, []).append((bi, sub))
    for group in list(by_subset.values()) + list(by_complement.values()):
        for other in group[1:]:
            union(group[0], other)

    classes: dict[tuple, list] = {}
    for node in nodes:
        classes.setdefault(find(node), []).append(node)
    members = list(classes.values())

    def class_name(nodes_of: list) -> str:
        subs = {sub for _, sub in nodes_of}
        if 0 in subs:
            return "0"
        if any(sub == masks[bi] for bi, sub in nodes_of):
            return "1"
        for bi, sub in nodes_of:
            if sub.bit_count() == 1:
                return diagram.atoms[next(bits(sub))]
        for bi, sub in nodes_of:
            rest = masks[bi] & ~sub
            if rest.bit_count() == 1:
                return diagram.atoms[next(bits(rest))] + "'"
        best = min(tuple(sorted(diagram.atoms[i] for i in bits(sub)))
                   for _, sub in nodes_of)
        return "∨".join(best)

    def sort_key(nodes_of: list):
        cname = class_name(nodes_of)
        if cname == "0":
            return (-1, 0, 0)
        if cname == "1":
            return (len(diagram.atoms) + 1, 0, 0)
        return min((sub.bit_count(), bi, sub) for bi, sub in nodes_of)

    members.sort(key=sort_key)
    index = {node: k for k, grp in enumerate(members) for node in grp}
    names = tuple(class_name(grp) for grp in members)

    n = len(members)
    up = [1 << k for k in range(n)]
    for k, grp in enumerate(members):
        for bi, sub in grp:
            for other in _submasks(masks[bi]):
                if sub & ~other == 0:
                    up[k] |= 1 << index[(bi, other)]
    inv = [None] * n
    for k, grp in enumerate(members):
        for bi, sub in grp:
            image = index[(bi, masks[bi] & ~sub)]
            if inv[k] is None:
                inv[k] = image
            elif inv[k] != image:
                raise InvalidDiagram("in-block complement is not well defined")

    try:
        result = FinitePoset(names, tuple(up), tuple(inv))
    except PosetError as exc:
        raise InvalidDiagram(f"pasting did not produce a poset: {exc}") from exc
    if not is_orthomodular_poset(result).holds:
        raise InternalError("pasting must produce an orthomodular poset")
    # the scan is kept on the poset for the next reader
    if is_lattice(result) != (valid.extra["min-loop-order"] != "4"):
        raise InternalError("lattice exactly when the diagram has no loop of order 4")
    return result


def _submasks(mask: int) -> Iterator[int]:
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


# -- induced subposets ----------------------------------------------------


def induced_subposet(poset: FinitePoset, subset: ElementSet) -> FinitePoset:
    """Restrict order and involution to ``subset``."""
    if subset == 0:
        raise PosetError("induced subposet needs a nonempty carrier")
    if subset & ~poset.full:
        raise PosetError("subset mentions unknown elements")
    keep = list(bits(subset))
    if poset.inv is not None and poset.inv_image(subset) != subset:
        stray = next(i for i in keep if not (subset >> poset.inv[i]) & 1)
        raise NotComplementClosed(
            f"{poset.names[stray]} is kept but {poset.names[poset.inv[stray]]} is not")
    pos = {old: new for new, old in enumerate(keep)}
    names = tuple(poset.names[i] for i in keep)
    up = []
    for i in keep:
        row = 0
        for j in bits(poset.up[i] & subset):
            row |= 1 << pos[j]
        up.append(row)
    inv = tuple(pos[poset.inv[i]] for i in keep) if poset.inv is not None else None
    return FinitePoset(names, tuple(up), inv)


# -- completion of a horizontal sum ---------------------------------------


def dm_hsum_isomorphism(parts: Sequence[FinitePoset],
                        max_closed_sets: int = DEFAULT_MAX_CLOSED_SETS) -> CheckReport:
    """Completion of a horizontal sum against the horizontal sum of the
    parts' completions, compared edge for edge.

    Closed-set names make the expected bijection explicit: a proper
    closed set of the sum lies inside a single part and is named after
    the same maximal elements as the matching closed set of that part.
    """
    combined = complete(horizontal_sum(parts), max_closed_sets)
    summed = horizontal_sum([complete(p, max_closed_sets) for p in parts])
    witness = labeled_diff(combined, summed)
    return CheckReport("dm-hsum-isomorphism", witness is None, witness=witness,
                       extra={"closed-sets": str(combined.n)})


# -- small poset generation ------------------------------------------------


def _labeled_middle_posets(k: int) -> Iterator[list[int]]:
    """All labeled strict orders on k points, one new point at a time:
    the down-set/up-set pair of the new point must already be fully
    related for the extension to stay transitive."""

    def extend(strict: list[int], size: int) -> Iterator[list[int]]:
        if size == k:
            yield strict
            return
        below = transposed(strict, size)
        full = (1 << size) - 1
        downs = [a for a in range(full + 1)
                 if all(below[i] & ~a == 0 for i in bits(a))]
        ups = [b for b in range(full + 1)
               if all(strict[i] & ~b == 0 for i in bits(b))]
        for a in downs:
            for b in ups:
                if a & b:
                    continue
                if any(b & ~strict[i] for i in bits(a)):
                    continue
                rows = [row | (1 << size if (a >> i) & 1 else 0)
                        for i, row in enumerate(strict)]
                rows.append(b)
                yield from extend(rows, size + 1)

    yield from extend([], 0)


def _involutive_middle_maps(strict: list[int],
                            complemented: bool = False) -> Iterator[tuple[int, ...]]:
    """Order-reversing involutions of the strict middle order, as tuples
    with ``sigma[i]`` the image of i.

    The lowest unmatched point is paired first with itself, then with
    each higher unmatched point in turn, and every assignment is checked
    against the points already assigned, so a branch ends at its first
    antitone violation.  With ``complemented`` only complementations are
    kept: no fixed points, and no point comparable to its image.  A pair
    with a common middle lower or upper bound is dropped as soon as it is
    formed, since that bound would end up comparable to its own image.
    """
    k = len(strict)
    below = transposed(strict, k)
    sigma = list(range(k))

    def fits(x: int, assigned: int) -> bool:
        image = sigma[x]
        for y in bits(strict[x] & assigned):
            if not (strict[sigma[y]] >> image) & 1:
                return False
        for y in bits(below[x] & assigned):
            if not (strict[image] >> sigma[y]) & 1:
                return False
        return True

    def extend(free: int) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(sigma)
            return
        head = (free & -free).bit_length() - 1
        rest = free & (free - 1)
        assigned = ((1 << k) - 1) & ~rest
        if complemented:
            partners = rest & ~(strict[head] | below[head])
        else:
            partners = rest
            sigma[head] = head
            if fits(head, assigned):
                yield from extend(rest)
        for partner in bits(partners):
            if complemented and (below[head] & below[partner] or strict[head] & strict[partner]):
                continue
            sigma[head], sigma[partner] = partner, head
            both = assigned | (1 << partner)
            if fits(head, both) and fits(partner, both):
                yield from extend(rest & ~(1 << partner))

    yield from extend((1 << k) - 1)


def _assemble(strict: list[int], sigma: Sequence[int]) -> FinitePoset:
    k = len(strict)
    letters = "abcdefghij"
    names = ("0",) + tuple(letters[i] for i in range(k)) + ("1",)
    n = k + 2
    up = [0] * n
    up[0] = (1 << n) - 1
    up[n - 1] = 1 << (n - 1)
    for i in range(k):
        row = (1 << (i + 1)) | (1 << (n - 1))
        for j in bits(strict[i]):
            row |= 1 << (j + 1)
        up[i + 1] = row
    inv = [0] * n
    inv[0], inv[n - 1] = n - 1, 0
    for i in range(k):
        inv[i + 1] = sigma[i] + 1
    return FinitePoset(names, tuple(up), tuple(inv))


def _canonical_signature(poset: FinitePoset) -> tuple:
    bottom, top = poset.require_bounds()
    inv = poset.require_involution()
    middles = [i for i in range(poset.n) if i not in (bottom, top)]

    def invariant(i: int):
        return (poset.down[i].bit_count(), poset.up[i].bit_count(),
                poset.down[inv[i]].bit_count(), inv[i] == i)

    middles.sort(key=lambda i: (invariant(i), i))
    groups = [list(g) for _, g in itertools.groupby(middles, key=invariant)]
    best = None
    for combo in itertools.product(*[itertools.permutations(g) for g in groups]):
        layout = [bottom] + [i for g in combo for i in g] + [top]
        place = {old: new for new, old in enumerate(layout)}
        rel = 0
        for a in layout:
            for b in bits(poset.up[a]):
                rel |= 1 << (place[a] * poset.n + place[b])
        sig = (rel, tuple(place[inv[a]] for a in layout))
        if best is None or sig < best:
            best = sig
    return (poset.n, *best)


def _passes(poset: FinitePoset, constraint: str) -> bool:
    if constraint == "any":
        return True
    if constraint == "complemented":
        return is_complementation(poset).holds
    if constraint == "pseudo_om":
        return is_complementation(poset).holds and is_pseudo_orthomodular(poset).holds
    raise ValueError(f"unknown constraint {constraint!r}")


def _random_structure(rng: random.Random, size: int, constraint: str) -> FinitePoset:
    k = size - 2
    if k == 0:
        return _assemble([], [])
    if constraint in ("complemented", "pseudo_om"):
        # half order plus its dual: complemented for every draw, with
        # symmetric cross relations sprinkled in when they survive the
        # checker
        half = k // 2
        for _ in range(12):
            strict = _random_strict_order(rng, half)
            rows = [0] * k
            for i in range(half):
                rows[i] = strict[i]
                # dual copy occupies ids half..k-1
                for j in range(half):
                    if (strict[j] >> i) & 1:
                        rows[half + i] |= 1 << (half + j)
            sigma = [half + i for i in range(half)] + list(range(half))
            if rng.random() < 0.5 and half > 1:
                x, y = rng.sample(range(half), 2)
                rows[x] |= 1 << (half + y)
                rows[y] |= 1 << (half + x)
                rows = _transitive_closure(rows)
            try:
                candidate = _assemble(rows, sigma)
            except PosetError:
                continue
            if _passes(candidate, constraint):
                return candidate
        # the MO-style antichain satisfies both orthogonality constraints
        fallback = _assemble([0] * k, [(i + half) % k for i in range(k)])
        if not _passes(fallback, constraint):
            raise InternalError(f"the antichain fallback fails {constraint!r}")
        return fallback
    for _ in range(12):
        strict = _random_strict_order(rng, k)
        sigmas = list(itertools.islice(_involutive_middle_maps(strict), 400))
        if sigmas:
            return _assemble(strict, rng.choice(sigmas))
    return _assemble([0] * k, list(range(k)))


def _random_strict_order(rng: random.Random, k: int) -> list[int]:
    perm = rng.sample(range(k), k)
    rows = [1 << i for i in range(k)]
    density = rng.uniform(0.05, 0.5)
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < density:
                rows[perm[a]] |= 1 << perm[b]
    rows = _transitive_closure(rows)
    return [rows[i] & ~(1 << i) for i in range(k)]


def generate_small(n: int, constraint: str = "any", *,
                   seed: int | None = None,
                   exhaustive: bool = False) -> Iterator[FinitePoset]:
    """Bounded posets with antitone involution, at most n elements.

    Exhaustive mode streams every structure up to isomorphism (sizes
    2..n, canonical-form deduplication); random mode is an endless
    seed-deterministic stream.  ``constraint`` filters by checker:
    "complemented" or "pseudo_om" or "any".  The "complemented" and
    "pseudo_om" streams hold even sizes only: a complementation has no
    fixed point (x' = x would give x ^ x' = x, not 0), so it pairs the
    middle elements off.  The arguments are checked when the stream is
    made, before it yields anything; random mode raises ValueError when
    the constraint allows no size in 2..n.
    """
    if constraint not in ("any", "complemented", "pseudo_om"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if exhaustive:
        if n > EXHAUSTIVE_SIZE_CAP:
            raise SizeLimitExceeded(
                f"exhaustive generation is capped at {EXHAUSTIVE_SIZE_CAP} elements")
        return _exhaustive(n, constraint)
    if n > RANDOM_SIZE_CAP:
        raise SizeLimitExceeded(
            f"random generation is capped at {RANDOM_SIZE_CAP} elements")
    if seed is None:
        raise ValueError("random mode needs a seed")
    sizes = _sizes(n, constraint)
    if not sizes:
        raise ValueError(f"no size in 2..{n} for a random {constraint} poset")
    return _random(sizes, constraint, seed)


def _sizes(n: int, constraint: str) -> list[int]:
    """Sizes 2..n, even ones only when a complementation is required."""
    return [m for m in range(2, n + 1) if constraint == "any" or m % 2 == 0]


def _random(sizes: list[int], constraint: str, seed: int) -> Iterator[FinitePoset]:
    rng = random.Random(seed)
    while True:
        yield _random_structure(rng, rng.choice(sizes), constraint)


def _exhaustive(n: int, constraint: str) -> Iterator[FinitePoset]:
    seen = set()
    for size in _sizes(n, constraint):
        for strict in _labeled_middle_posets(size - 2):
            for sigma in _involutive_middle_maps(strict, constraint != "any"):
                candidate = _assemble(strict, sigma)
                signature = _canonical_signature(candidate)
                if signature in seen:
                    continue
                seen.add(signature)
                if _passes(candidate, constraint):
                    yield candidate
