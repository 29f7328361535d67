"""Every poset family the tests run on, each built once per session.

The route oracles of ``oracles`` run on every member of every family;
each oracle's size bounds put a member in tier-1 or in the
``exhaustive`` tier.  A family holds each labeled poset, keyed by
``(names, up, inv)``, once.  The seeded streams are the ones earlier
tests drew on, so every comparison those tests made is still made.
"""

import functools

from posetkit import corpus
from posetkit.build import (
    EXHAUSTIVE_SIZE_CAP,
    GreechieDiagram,
    generate_small,
    greechie_to_omp,
    horizontal_sum,
)
from posetkit.completion import complete
from posetkit.poset import FinitePoset, build_poset

# the 204 complemented posets the acceptance criteria quantify over: every
# one up to 7 elements, then a seeded stream up to 10
RANDOM_COUNT = 200
RANDOM_SEED = 20260814
RANDOM_MAX_SIZE = 10

# constraint -> {seed: count} of the seeded streams up to 12 elements
STREAMS = {
    "any": {5: 600, 7: 300, 10: 300, 13: 300},
    "complemented": {3: 300, 6: 600, 8: 300, 11: 300, 14: 300},
    "pseudo_om": {4: 300, 9: 300, 12: 300, 15: 300},
}


def key(poset):
    return poset.names, poset.up, poset.inv


def crown(k):
    """S_k: 0 < a_i < b_j < 1 for i != j, with a_i' = b_i; its completion
    is the Boolean algebra on k atoms."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    covers = ([("0", x) for x in a] + [(y, "1") for y in b]
              + [(a[i], b[j]) for i in range(k) for j in range(k) if i != j])
    involution = [("0", "1")] + list(zip(a, b))
    return build_poset(["0"] + a + b + ["1"], covers, involution=involution)


def greechie_loop_diagram(k):
    """k three-atom blocks in a loop of order k."""
    atoms = [f"s{i}" for i in range(k)] + [f"p{i}" for i in range(k)]
    return GreechieDiagram(tuple(atoms), tuple((f"s{(i - 1) % k}", f"p{i}", f"s{i}")
                                               for i in range(k)))


def rename(poset, prefix):
    """A copy with renamed middle elements, bounds kept, so parts can be
    combined into horizontal sums without name collisions."""
    bottom, top = poset.require_bounds()
    names = [name if i in (bottom, top) else prefix + name
             for i, name in enumerate(poset.names)]
    covers = [(names[i], names[j]) for i, j in poset.cover_pairs()]
    involution = None
    if poset.inv is not None:
        involution = [(names[i], names[poset.inv[i]]) for i in range(poset.n)]
    return build_poset(names, covers, involution=involution)


def population():
    """The 204 posets of the acceptance population, repeats included."""
    posets = list(generate_small(7, "complemented", exhaustive=True))
    stream = generate_small(RANDOM_MAX_SIZE, "complemented", seed=RANDOM_SEED)
    return posets + [next(stream) for _ in range(RANDOM_COUNT)]


def _horizontal_sums():
    """2 to 4 crowns S_4, 2 and 3 copies of 2^3, and fig1b with MO_2 and 2^2."""
    for count in (2, 3, 4):
        yield f"hsum{count}xcrown4", horizontal_sum([rename(crown(4), f"c{i}")
                                                    for i in range(count)])
    for count in (2, 3):
        yield f"hsum{count}xba8", horizontal_sum([rename(corpus.boolean_algebra(3), f"b{i}")
                                                 for i in range(count)])
    yield "hsum-fig1b-mo2-ba4", horizontal_sum([corpus.load("fig1b"), rename(corpus.mo(2), "m"),
                                                corpus.boolean_algebra(2, ("g", "g'"))])


def _completions():
    """The completions of the corpus and the population, as plain posets."""
    for label, poset in (*family("corpus").items(), *family("population").items()):
        lattice = complete(poset)
        yield f"{label}-completed", FinitePoset(lattice.names, lattice.up, lattice.inv)


def _seeded(constraint):
    for seed, count in STREAMS[constraint].items():
        stream = generate_small(12, constraint, seed=seed)
        yield from (next(stream) for _ in range(count))


def _numbered(name, posets):
    return ((f"{name}#{i}", poset) for i, poset in enumerate(posets))


FAMILIES = {
    "corpus": lambda: ((name, corpus.load(name)) for name in corpus.member_names()),
    "crowns": lambda: ((f"crown{k}", crown(k)) for k in (*range(3, 11), 12)),
    "boolean-algebras": lambda: ((f"ba{1 << k}", corpus.boolean_algebra(k)) for k in range(8)),
    "mo": lambda: ((f"mo{n}", corpus.mo(n)) for n in (*range(1, 17), 32, 64)),
    "chains": lambda: ((f"chain{k}", corpus.chain(k)) for k in (2, 3, 5, 9, 17, 33, 65, 129)),
    "greechie-loops": lambda: ((f"loop{k}", greechie_to_omp(greechie_loop_diagram(k)))
                               for k in range(4, 7)),
    "horizontal-sums": _horizontal_sums,
    "small": lambda: _numbered("small", generate_small(7, "any", exhaustive=True)),
    "complemented": lambda: _numbered("complemented", generate_small(
        EXHAUSTIVE_SIZE_CAP, "complemented", exhaustive=True)),
    "population": lambda: _numbered("population", population()),
    "completions": _completions,
    **{f"seeded-{constraint}": lambda constraint=constraint: _numbered(constraint,
                                                                       _seeded(constraint))
       for constraint in STREAMS},
}


# the families whose members grow with a parameter; the others hold small
# posets, inside every oracle's tier-1 bounds, as test_cone_rules checks
GROWING = ("corpus", "crowns", "boolean-algebras", "mo", "chains", "greechie-loops",
           "horizontal-sums")


@functools.cache
def family(name):
    """Label -> poset, each labeled poset once, in first-seen order."""
    distinct = {}
    for label, poset in FAMILIES[name]():
        distinct.setdefault(key(poset), (label, poset))
    return dict(distinct.values())


def member(label):
    """A named member: a corpus poset first, then the named families."""
    for name in ("corpus", "crowns", "boolean-algebras", "mo", "chains"):
        if label in family(name):
            return family(name)[label]
    raise KeyError(label)
