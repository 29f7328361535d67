"""Property checkers: verdicts, witnesses, and the reduced SDC loop."""

import pytest

from posetkit import corpus
from posetkit.build import generate_small
from posetkit.checks import (
    PROPERTIES,
    doubly_dense_subsets,
    finch_criterion,
    find_modularity_violation,
    is_boolean_poset,
    is_complement_closed_doubly_dense,
    is_distributive_poset,
    is_modular_lattice,
    is_orthomodular_lattice,
    is_orthomodular_poset,
    is_pseudo_orthomodular,
    is_strongly_d_continuous,
    naive_strongly_d_continuous,
    run_check,
)
from posetkit.completion import check_join_meet_density, complete
from posetkit.errors import NotALattice, NotComplemented, PosetError
from posetkit.poset import build_poset


def test_distributive_verdicts():
    assert is_distributive_poset(corpus.load("ba8")).holds
    assert is_distributive_poset(corpus.load("fig1a")).holds
    for name in ("mo2", "benzene", "diamond", "fig2", "fig3"):
        report = is_distributive_poset(corpus.load(name))
        assert not report.holds and report.witness is not None


def test_boolean_verdicts():
    assert is_boolean_poset(corpus.load("fig1a")).holds
    assert is_boolean_poset(corpus.load("fig1b")).holds
    assert is_boolean_poset(corpus.load("ba16")).holds
    assert not is_boolean_poset(corpus.load("fig2")).holds
    assert not is_boolean_poset(corpus.load("chain3")).holds
    assert not is_boolean_poset(corpus.load("mo2")).holds


def test_orthomodular_poset_verdicts():
    assert is_orthomodular_poset(corpus.load("fig3")).holds
    assert is_orthomodular_poset(corpus.load("twoblocks")).holds
    assert is_orthomodular_poset(corpus.load("mo3")).holds
    report = is_orthomodular_poset(corpus.load("fig1a"))
    assert not report.holds
    assert report.details == "orthogonal pair without a join"
    assert not is_orthomodular_poset(corpus.load("benzene")).holds
    with pytest.raises(NotComplemented):
        is_orthomodular_poset(corpus.load("chain3"))


def test_orthomodular_lattice_verdicts():
    assert is_orthomodular_lattice(corpus.load("twoblocks")).holds
    assert is_orthomodular_lattice(corpus.load("mo3")).holds
    report = is_orthomodular_lattice(corpus.load("benzene"))
    assert not report.holds and report.witness is not None
    with pytest.raises(NotALattice):
        is_orthomodular_lattice(corpus.load("fig1b"))
    with pytest.raises(NotComplemented):
        is_orthomodular_lattice(corpus.load("chain3"))


def test_orthomodular_lattice_on_completions():
    assert is_orthomodular_lattice(complete(corpus.load("fig1a"))).holds
    assert is_orthomodular_lattice(complete(corpus.load("fig2"))).holds
    assert not is_orthomodular_lattice(complete(corpus.load("fig3"))).holds
    assert not is_orthomodular_lattice(complete(corpus.load("benzene"))).holds


def test_modularity():
    assert is_modular_lattice(corpus.load("twoblocks")).holds
    assert is_modular_lattice(corpus.load("diamond")).holds
    assert not is_modular_lattice(corpus.load("benzene")).holds
    assert find_modularity_violation(complete(corpus.load("fig2"))) is not None
    assert find_modularity_violation(corpus.load("ba16")) is None


def test_upper_semimodularity_alone_is_not_modularity():
    """The flats of four points in general position: a geometric
    lattice, so upper semimodular, but the lines 12 and 34 meet in 0 and
    join in 1, so not modular; the lower covers decide it, on the
    lattice and on its completion, which is the same lattice."""
    points = ("1", "2", "3", "4")
    lines = [a + b for i, a in enumerate(points) for b in points[i + 1:]]
    flats = build_poset(["0", *points, *lines, "1234"],
                        [("0", p) for p in points] + [(p, line) for line in lines for p in line]
                        + [(line, "1234") for line in lines])
    for lattice in (flats, complete(flats)):
        report = is_modular_lattice(lattice)
        assert not report.holds
        assert report.witness == find_modularity_violation(lattice) is not None


def test_pseudo_orthomodular_verdicts():
    for name in ("fig1a", "fig1b", "fig2", "mo3", "twoblocks"):
        assert is_pseudo_orthomodular(corpus.load(name)).holds, name
    for name in ("fig3", "benzene"):
        report = is_pseudo_orthomodular(corpus.load(name))
        assert not report.holds and report.witness is not None


def test_pseudo_om_witness_cones_on_fig3():
    p = corpus.load("fig3")
    pair = p.lower_cone(p.mask(["s'", "x'"]))
    assert pair & p.atoms() == p.mask(["v", "z"])
    assert p.upper_cone(pair | p.mask("x")) == p.mask("1")


def test_sdc_reduced_matches_naive_exhaustively(population):
    for row in population:
        poset = row["poset"]
        if poset.n > 8:
            continue
        naive = naive_strongly_d_continuous(poset).holds
        assert row["sdc"] == naive, poset.names


def test_sdc_equals_completion_orthomodular(population):
    """Strong D-continuity, read with L(C,B') = {0}, is the completion's
    exchange condition, so on a complemented poset it is decided exactly
    as completion-orthomodular, pseudo-orthomodular or not."""
    seen = set()
    for row in population:
        assert row["sdc"] == row["completion_oml"], row["poset"].names
        seen.add((row["sdc"], row["pom"]))
    # both verdicts occur, and posets that are not pseudo-orthomodular too
    assert {(True, True), (False, False)} <= seen


def test_sdc_reduced_matches_naive_on_corpus():
    def verdict(check, poset):
        try:
            return check(poset).holds
        except NotComplemented as exc:
            return str(exc)

    # chain3 is not complemented: both routes raise the same text
    for name in ("chain2", "chain3", "ba4", "mo2", "benzene", "mo3", "ba8"):
        poset = corpus.load(name)
        assert (verdict(is_strongly_d_continuous, poset)
                == verdict(naive_strongly_d_continuous, poset)), name


def test_sdc_failure_witness_on_benzene():
    p = corpus.load("benzene")
    assert not is_strongly_d_continuous(p).holds
    # B = {a} and C = U({a, b}) meet the premise but not the conclusion
    small = p.closure(p.mask("a"))
    big = p.closure(p.mask("b"))
    assert small & ~big == 0 and small != big
    assert big & p.inv_image(p.upper_cone(small)) == p.mask("0")


def test_sdc_failure_witness_on_fig3():
    p = corpus.load("fig3")
    assert not is_strongly_d_continuous(p).holds
    small = p.closure(p.mask(["v", "z"]))
    big = p.lower_cone(p.mask("s'"))
    assert set(p.names_of(small)) == {"0", "v", "z"}
    assert small & ~big == 0 and small != big
    assert big & p.inv_image(p.upper_cone(small)) == p.mask("0")


def test_finch_verdicts():
    assert finch_criterion(corpus.load("fig1a")).holds
    assert finch_criterion(corpus.load("twoblocks")).holds
    for name in ("fig3", "benzene"):
        report = finch_criterion(corpus.load(name))
        assert not report.holds and report.witness is not None


@pytest.mark.parametrize("check", (check_join_meet_density, finch_criterion,
                                   is_strongly_d_continuous))
@pytest.mark.parametrize("name, other", (("ba8", "ba16"), ("ba16", "ba8")))
def test_checks_refuse_another_posets_completion(check, name, other):
    """A completion with more closed sets than the poset's, or fewer, is
    refused before it is read."""
    with pytest.raises(PosetError, match="^lattice is not the completion of this poset$"):
        check(corpus.load(name), complete(corpus.load(other)))


def test_checks_take_the_completion_of_an_equal_poset():
    poset, lattice = corpus.load("fig3"), complete(corpus.load("fig3"))
    assert lattice.base is not poset
    assert check_join_meet_density(poset, lattice).holds
    assert finch_criterion(poset, lattice) == finch_criterion(poset)
    assert is_strongly_d_continuous(poset, lattice) == is_strongly_d_continuous(poset)


def test_doubly_dense_subsets_of_ba8():
    ba8 = corpus.load("ba8")
    found = list(doubly_dense_subsets(ba8))
    assert ba8.full in found
    for subset in found:
        assert is_complement_closed_doubly_dense(ba8, subset).holds
    # dropping an atom pair breaks join density
    broken = ba8.full & ~ba8.mask(["a", "a'"])
    assert not is_complement_closed_doubly_dense(ba8, broken).holds


def test_ccdd_rejects_subsets_missing_bounds_or_symmetry():
    mo2 = corpus.load("mo2")
    no_top = mo2.mask(["0", "x1", "x1'", "x2", "x2'"])
    report = is_complement_closed_doubly_dense(mo2, no_top)
    assert not report.holds and report.details == "subset must contain the bounds"
    lopsided = mo2.mask(["0", "x1", "x2", "x2'", "1"])
    report = is_complement_closed_doubly_dense(mo2, lopsided)
    assert not report.holds
    assert report.details == "subset is not closed under the involution"


def test_ccdd_refuses_subsets_with_unknown_elements():
    ba8 = corpus.load("ba8")
    for subset in (ba8.full | 1 << 8, -1):
        with pytest.raises(PosetError, match="^subset mentions unknown elements$"):
            is_complement_closed_doubly_dense(ba8, subset)


def test_run_check_registry():
    poset = corpus.load("mo2")
    assert set(PROPERTIES) == {
        "antitone-involution", "complementation", "lattice", "atomic",
        "atomistic", "orthocomplete", "distributive", "boolean", "modular",
        "orthomodular-poset", "orthomodular-lattice", "pseudo-orthomodular",
        "strongly-d-continuous", "finch", "completion-orthomodular",
        "completion-distributive", "completion-modular"}
    assert run_check("modular", poset).holds
    with pytest.raises(KeyError):
        run_check("no-such-property", poset)


def test_generated_streams_respect_their_constraint():
    stream = generate_small(10, "complemented", seed=5)
    for _ in range(25):
        poset = next(stream)
        assert run_check("complementation", poset).holds
        assert poset.n % 2 == 0
    stream = generate_small(10, "pseudo_om", seed=6)
    for _ in range(25):
        assert is_pseudo_orthomodular(next(stream)).holds
