"""Horizontal sums, block-diagram pasting, and the small-poset generator."""

import pytest
from hypothesis import given, settings, strategies as st

from posetkit import corpus
from posetkit.build import (
    EXHAUSTIVE_SIZE_CAP,
    GreechieDiagram,
    RANDOM_SIZE_CAP,
    _assemble,
    _canonical_signature,
    _involutive_middle_maps,
    _labeled_middle_posets,
    _passes,
    dm_hsum_isomorphism,
    generate_small,
    greechie_to_omp,
    horizontal_sum,
    induced_subposet,
    min_loop_order,
    validate_greechie,
)
from posetkit.checks import (
    is_boolean_poset,
    is_orthomodular_lattice,
    is_orthomodular_poset,
    is_pseudo_orthomodular,
)
from posetkit.errors import (
    InvalidDiagram,
    MissingInvolution,
    NotComplementClosed,
    PosetError,
    SizeLimitExceeded,
    UnboundedPart,
)
from posetkit.formats import serialize_poset
from posetkit.poset import (
    _transitive_closure,
    bits,
    build_poset,
    is_complementation,
    is_lattice,
    labeled_equal,
)


def test_hsum_of_a_single_part_is_the_part():
    ba4 = corpus.load("ba4")
    assert labeled_equal(horizontal_sum([ba4]), ba4)


def test_fig2_is_the_sum_of_fig1b_and_a_four_element_boolean_algebra():
    parts = [corpus.load("fig1b"),
             corpus.boolean_algebra(2, atom_names=("f", "f'"))]
    assert labeled_equal(horizontal_sum(parts), corpus.load("fig2"))


def test_hsum_of_two_boolean_algebras_is_a_horizontal_mo2():
    parts = [corpus.load("ba4"),
             corpus.boolean_algebra(2, atom_names=("g", "g'"))]
    summed = horizontal_sum(parts)
    assert summed.n == 6
    assert is_lattice(summed)
    assert is_orthomodular_lattice(summed).holds
    assert not is_boolean_poset(summed).holds


def test_hsum_error_cases():
    with pytest.raises(UnboundedPart):
        horizontal_sum([])
    with pytest.raises(UnboundedPart):
        horizontal_sum([build_poset(["a", "b"], [])])
    with pytest.raises(UnboundedPart):
        horizontal_sum([build_poset(["x"], [])])
    with pytest.raises(PosetError):
        horizontal_sum([corpus.load("ba4"), corpus.load("ba4")])
    chain2 = corpus.load("chain2")
    bare = build_poset(["0", "g", "1"], [("0", "g"), ("g", "1")])
    with pytest.raises(MissingInvolution):
        horizontal_sum([chain2, bare])
    fixed = build_poset(["0", "g", "1"], [("0", "g"), ("g", "1")],
                        involution=[("0", "0"), ("g", "g"), ("1", "1")])
    with pytest.raises(PosetError):
        horizontal_sum([chain2, fixed])


def test_hsum_keeps_part_order_and_involution():
    summed = horizontal_sum([corpus.load("mo2"),
                             corpus.boolean_algebra(2, ("p", "q"))])
    assert summed.n == 8
    assert summed.names[0] == "0" and summed.names[-1] == "1"
    inv = summed.require_involution()
    assert summed.names[inv[summed.id_of("p")]] == "q"
    assert summed.names[inv[summed.id_of("x1")]] == "x1'"
    assert not summed.leq("x1", "p") and not summed.leq("p", "x1")


def test_single_block_pastes_to_a_boolean_algebra():
    diagram = GreechieDiagram(atoms=("a", "b", "c"), blocks=(("a", "b", "c"),))
    assert validate_greechie(diagram).holds
    assert min_loop_order(diagram) is None
    poset = greechie_to_omp(diagram)
    assert poset.n == 8
    assert is_boolean_poset(poset).holds
    two = GreechieDiagram(atoms=("a", "b"), blocks=(("a", "b"),))
    assert validate_greechie(two).holds
    assert greechie_to_omp(two).n == 4


def test_block_validation_failures():
    dup = GreechieDiagram(atoms=("a", "b"), blocks=(("a", "a"),))
    assert not validate_greechie(dup).holds
    stray = GreechieDiagram(atoms=("a", "b"), blocks=(("a", "z"),))
    assert not validate_greechie(stray).holds
    uncovered = GreechieDiagram(atoms=("a", "b", "c"), blocks=(("a", "b"),))
    assert not validate_greechie(uncovered).holds
    small_join = GreechieDiagram(atoms=("a", "b", "c", "d"),
                                 blocks=(("a", "b"), ("b", "c", "d")))
    assert not validate_greechie(small_join).holds
    big_overlap = GreechieDiagram(atoms=("a", "b", "c", "d"),
                                  blocks=(("a", "b", "c"), ("a", "b", "d")))
    assert not validate_greechie(big_overlap).holds
    for diagram in (dup, stray, uncovered, small_join, big_overlap):
        with pytest.raises(InvalidDiagram):
            greechie_to_omp(diagram)


def test_triangle_of_blocks_is_rejected():
    triangle = GreechieDiagram(
        atoms=("a", "b", "c", "x", "y", "z"),
        blocks=(("a", "b", "x"), ("b", "c", "y"), ("c", "a", "z")))
    assert min_loop_order(triangle) == 3
    report = validate_greechie(triangle)
    assert not report.holds
    with pytest.raises(InvalidDiagram):
        greechie_to_omp(triangle)


def test_fig3_diagram_has_a_four_loop_and_is_not_a_lattice():
    diagram = GreechieDiagram(
        atoms=("s", "t", "u", "v", "w", "x", "y", "z"),
        blocks=(("x", "y", "z"), ("z", "t", "s"), ("s", "u", "v"),
                ("v", "w", "x")))
    report = validate_greechie(diagram)
    assert report.holds
    assert report.extra["min-loop-order"] == "4"
    poset = greechie_to_omp(diagram)
    assert poset.n == 18
    assert labeled_equal(poset, corpus.load("fig3"))
    assert not is_lattice(poset)
    assert is_orthomodular_poset(poset).holds


def test_two_blocks_paste_to_a_twelve_element_lattice():
    poset = corpus.two_block_pasting()
    assert poset.n == 12
    assert is_lattice(poset)
    assert is_orthomodular_lattice(poset).holds
    assert set(poset.names) == {"0", "1", "a", "b", "c", "d", "e",
                                "a'", "b'", "c'", "d'", "e'"}
    # shared atom: both block complements of c agree
    inv = poset.require_involution()
    assert poset.names[inv[poset.id_of("c")]] == "c'"
    assert poset.leq("a", "c'") and poset.leq("d", "c'")


def test_sum_of_pseudo_orthomodular_parts_is_pseudo_orthomodular(prefixed):
    parts = [corpus.load("fig1b"),
             prefixed(corpus.load("mo2"), "r"),
             corpus.boolean_algebra(2, ("g", "g'"))]
    assert is_pseudo_orthomodular(horizontal_sum(parts)).holds


def test_dm_hsum_isomorphism_for_fig2_parts():
    parts = [corpus.load("fig1b"),
             corpus.boolean_algebra(2, atom_names=("f", "f'"))]
    report = dm_hsum_isomorphism(parts)
    assert report.holds
    assert report.extra["closed-sets"] == "18"


def test_induced_subposet():
    fig2 = corpus.load("fig2")
    kept = fig2.full & ~fig2.mask(["f", "f'"])
    assert labeled_equal(induced_subposet(fig2, kept), corpus.load("fig1b"))
    with pytest.raises(NotComplementClosed):
        induced_subposet(fig2, fig2.full & ~fig2.mask("f"))
    with pytest.raises(PosetError):
        induced_subposet(fig2, 0)


def test_exhaustive_generation_smallest_cases():
    only = list(generate_small(2, "any", exhaustive=True))
    assert len(only) == 1 and only[0].n == 2
    assert list(generate_small(2, "complemented", exhaustive=True))[0].n == 2
    assert len(list(generate_small(4, "any", exhaustive=True))) == 5


def test_exhaustive_complemented_population_up_to_seven():
    posets = list(generate_small(7, "complemented", exhaustive=True))
    assert sorted(p.n for p in posets) == [2, 4, 6, 6]
    six = [p for p in posets if p.n == 6]
    omls = [is_orthomodular_lattice(p).holds for p in six]
    assert sorted(omls) == [False, True]  # one benzene, one MO2


def test_generation_is_seed_deterministic():
    left = generate_small(9, "any", seed=123)
    right = generate_small(9, "any", seed=123)
    for _ in range(12):
        assert serialize_poset(next(left)) == serialize_poset(next(right))


def test_generation_guards():
    with pytest.raises(ValueError):
        next(generate_small(4, "no-such-constraint", exhaustive=True))
    with pytest.raises(ValueError):
        next(generate_small(4, "any"))  # random mode needs a seed
    with pytest.raises(SizeLimitExceeded):
        next(generate_small(EXHAUSTIVE_SIZE_CAP + 1, "any", exhaustive=True))
    with pytest.raises(SizeLimitExceeded):
        next(generate_small(RANDOM_SIZE_CAP + 1, "any", seed=1))


# -- the exhaustive generator against the enumerator it replaced ----------


def oracle_middle_maps(strict):
    """Every pairing of the middle points, fixed points allowed, each
    kept when it reverses the order: the enumerator that built and
    filtered a dict per pairing."""
    k = len(strict)

    def antitone(sigma):
        for i in range(k):
            for j in bits(strict[i]):
                if not (strict[sigma[j]] >> sigma[i]) & 1:
                    return False
        return True

    def pairings(remaining):
        if not remaining:
            yield {}
            return
        head, rest = remaining[0], remaining[1:]
        for sub in pairings(rest):
            yield {head: head, **sub}
        for pos, partner in enumerate(rest):
            for sub in pairings(rest[:pos] + rest[pos + 1:]):
                yield {head: partner, partner: head, **sub}

    for sigma in pairings(tuple(range(k))):
        if antitone(sigma):
            yield tuple(sigma[i] for i in range(k))


def oracle_complementations(strict):
    return [sigma for sigma in oracle_middle_maps(strict)
            if is_complementation(_assemble(strict, sigma)).holds]


def oracle_candidates(n):
    """The exhaustive stream before filtering: every size 2..n, every
    labeled order, every antitone involution, first of each class."""
    seen = set()
    for size in range(2, n + 1):
        for strict in _labeled_middle_posets(size - 2):
            for sigma in oracle_middle_maps(strict):
                candidate = _assemble(strict, sigma)
                signature = _canonical_signature(candidate)
                if signature not in seen:
                    seen.add(signature)
                    yield candidate


def _labeled(posets):
    return [(p.names, p.up, p.inv) for p in posets]


@pytest.fixture(scope="module")
def oracle_up_to_seven():
    return list(oracle_candidates(7))


@pytest.mark.parametrize("constraint", ["any", "complemented", "pseudo_om"])
def test_exhaustive_stream_matches_the_pairing_oracle(oracle_up_to_seven, constraint):
    for n in range(2, 8):
        expected = [p for p in oracle_up_to_seven if p.n <= n and _passes(p, constraint)]
        assert _labeled(generate_small(n, constraint, exhaustive=True)) == _labeled(expected)


def test_odd_sizes_add_no_complemented_poset():
    assert (_labeled(generate_small(6, "complemented", exhaustive=True))
            == _labeled(generate_small(7, "complemented", exhaustive=True)))


@st.composite
def strict_orders(draw, max_points=6):
    """A labeled strict order as rows of strict up-sets: random edges
    between the points of a random linear extension, closed."""
    k = draw(st.integers(0, max_points))
    order = draw(st.permutations(range(k)))
    rows = [1 << i for i in range(k)]
    if k > 1:
        point = st.integers(0, k - 1)
        for a, b in draw(st.lists(st.tuples(point, point), max_size=2 * k)):
            if a < b:
                rows[order[a]] |= 1 << order[b]
    rows = _transitive_closure(rows)
    return [row & ~(1 << i) for i, row in enumerate(rows)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(strict_orders())
def test_involutive_middle_maps_match_the_pairing_oracle(strict):
    assert list(_involutive_middle_maps(strict)) == list(oracle_middle_maps(strict))
    assert list(_involutive_middle_maps(strict, complemented=True)) == \
        oracle_complementations(strict)
