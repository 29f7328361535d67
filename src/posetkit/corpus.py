"""Bundled example posets with known structural profiles.

The corpus mixes programmatic builders (Boolean algebras, chains, MO_n,
benzene, diamond, a two-block pasting) with four data files shipped next
to this module. Data files are digest locked so a silent edit cannot
drift away from the expectations recorded here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import PurePath
from typing import Callable, Iterable

from .build import GreechieDiagram, greechie_to_omp
from .checks import PROPERTIES, CheckContext, run_properties
from .completion import DEFAULT_MAX_CLOSED_SETS
from .errors import CorpusError, InternalError
from .formats import parse_greechie, parse_poset
from .poset import FinitePoset, build_poset
from .report import CheckReport

_DATA_DIGESTS = {
    "fig1a.poset": "ec8e54edbeed8a11bedf779a24a70291ce06aa078bf55c5bcf85678d0ebdbaa5",
    "fig1b.poset": "bcd371e72a685b370bfd066b000f13b9a174ffed73ebc3dc14d7d152a16e06f5",
    "fig2.poset": "37232a1af8ef9d7f05cf6618372595539da02aa78e24b5875a143e4ead943efe",
    "fig3.greechie": "fbfcfae056ae4cf39a568043d927cb0fa582eed0b60e8334f80580c6bd511437",
}


_DATA_FILES = {
    "fig1a": "fig1a.poset",
    "fig1b": "fig1b.poset",
    "fig2": "fig2.poset",
    "fig3": "fig3.greechie",
}


def _read_data(filename: str) -> str:
    ref = resources.files(__package__) / "corpus" / filename
    try:
        raw = ref.read_bytes()
    except FileNotFoundError:
        raise CorpusError(f"missing bundled file {filename}")
    digest = hashlib.sha256(raw).hexdigest()
    expected = _DATA_DIGESTS[filename]
    if digest != expected:
        raise CorpusError(
            f"{filename} digest mismatch: expected {expected}, got {digest}"
        )
    return raw.decode("utf-8")


def bundled_text(name: str) -> "tuple[str, str] | None":
    """(filename, digest-verified text) for members backed by a data file."""
    filename = _DATA_FILES.get(name)
    if filename is None:
        return None
    return filename, _read_data(filename)


def boolean_algebra(k: int, atom_names: "tuple[str, ...] | None" = None) -> FinitePoset:
    """Powerset of k atoms ordered by inclusion.

    Elements are named 0, 1, the atom names, primed atom names for
    co-atoms, and join expressions for anything in between.
    """
    if k < 0:
        raise ValueError("atom count must be nonnegative")
    if atom_names is None:
        base = ("a", "b", "c", "d", "e", "f", "g", "h")
        if k > len(base):
            raise ValueError("provide explicit atom_names for more than 8 atoms")
        atom_names = base[:k]
    if len(atom_names) != k or len(set(atom_names)) != k:
        raise ValueError("atom_names must be k distinct names")

    def name(mask: int) -> str:
        if mask == 0:
            return "0"
        if mask == (1 << k) - 1 and k != 1:
            return "1"
        members = [atom_names[i] for i in range(k) if mask >> i & 1]
        if len(members) == 1:
            return members[0]
        if len(members) == k - 1:
            missing = next(atom_names[i] for i in range(k) if not mask >> i & 1)
            return missing + "'"
        return "∨".join(members)

    masks = list(range(1 << k))
    names = [name(m) for m in masks]
    relation = [
        (names[a], names[b])
        for a in masks
        for b in masks
        if a & b == a
    ]
    full = (1 << k) - 1
    involution = [(names[m], names[full ^ m]) for m in masks]
    return build_poset(names, relation, mode="full", involution=involution)


def chain(k: int) -> FinitePoset:
    """Linear order 0 < c1 < ... < 1 with the flip involution."""
    if k < 2:
        raise ValueError("a bounded chain needs at least 2 elements")
    names = ["0"] + [f"c{i}" for i in range(1, k - 1)] + ["1"]
    covers = [(names[i], names[i + 1]) for i in range(k - 1)]
    involution = [(names[i], names[k - 1 - i]) for i in range(k)]
    return build_poset(names, covers, involution=involution)


def mo(n: int) -> FinitePoset:
    """Modular ortholattice MO_n: n complementary atom pairs between bounds."""
    if n < 1:
        raise ValueError("MO_n needs at least one atom pair")
    names = ["0"]
    involution = [("0", "1")]
    covers = []
    for i in range(1, n + 1):
        a, b = f"x{i}", f"x{i}'"
        names.extend([a, b])
        involution.append((a, b))
        covers.extend([("0", a), ("0", b), (a, "1"), (b, "1")])
    names.append("1")
    return build_poset(names, covers, involution=involution)


def benzene() -> FinitePoset:
    """Hexagon 0 < a < b < 1, 0 < c < d < 1 with a' = d.

    Smallest ortholattice that is not orthomodular.
    """
    covers = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "d"), ("d", "1")]
    involution = [("0", "1"), ("a", "d"), ("b", "c")]
    return build_poset(["0", "a", "b", "c", "d", "1"], covers, involution=involution)


def diamond() -> FinitePoset:
    """M3: three incomparable atoms between bounds, no involution."""
    covers = [("0", x) for x in "pqr"] + [(x, "1") for x in "pqr"]
    return build_poset(["0", "p", "q", "r", "1"], covers)


def two_block_pasting() -> FinitePoset:
    """Two three-atom blocks sharing one atom, pasted into a 12-element OML."""
    diagram = GreechieDiagram(
        atoms=("a", "b", "c", "d", "e"),
        blocks=(("a", "b", "c"), ("c", "d", "e")),
    )
    return greechie_to_omp(diagram)


def parse_data(filename: str, text: str) -> FinitePoset:
    """The poset in a file's text: a ``.greechie`` block diagram pasted
    to its orthomodular poset, any other suffix a poset document."""
    if PurePath(filename).suffix == ".greechie":
        return greechie_to_omp(parse_greechie(text))
    return parse_poset(text)


# Expected verdicts keyed by property name. Properties whose preconditions
# the member cannot satisfy (for example lattice-only checks on a non-lattice)
# are omitted rather than recorded as failures.
_ALL_TRUE = {name: True for name in PROPERTIES}

_EXPECTATIONS: "dict[str, dict[str, bool]]" = {
    "chain2": dict(_ALL_TRUE),
    "chain3": {
        "antitone-involution": True,
        "complementation": False,
        "lattice": True,
        "atomic": True,
        "atomistic": False,
        "orthocomplete": True,
        "distributive": True,
        "boolean": False,
        "modular": True,
        "completion-distributive": True,
        "completion-modular": True,
    },
    "ba4": dict(_ALL_TRUE),
    "ba8": dict(_ALL_TRUE),
    "ba16": dict(_ALL_TRUE),
    "mo2": dict(
        _ALL_TRUE,
        distributive=False,
        boolean=False,
        **{"completion-distributive": False},
    ),
    "mo3": dict(
        _ALL_TRUE,
        distributive=False,
        boolean=False,
        **{"completion-distributive": False},
    ),
    "benzene": {
        "antitone-involution": True,
        "complementation": True,
        "lattice": True,
        "atomic": True,
        "atomistic": False,
        "orthocomplete": True,
        "distributive": False,
        "boolean": False,
        "modular": False,
        "orthomodular-poset": False,
        "orthomodular-lattice": False,
        "pseudo-orthomodular": False,
        "strongly-d-continuous": False,
        "finch": False,
        "completion-orthomodular": False,
        "completion-distributive": False,
        "completion-modular": False,
    },
    "diamond": {
        "lattice": True,
        "atomic": True,
        "atomistic": True,
        "distributive": False,
        "modular": True,
        "completion-distributive": False,
        "completion-modular": True,
    },
    "fig1a": {
        "antitone-involution": True,
        "complementation": True,
        "lattice": False,
        "atomic": True,
        "atomistic": True,
        "orthocomplete": False,
        "distributive": True,
        "boolean": True,
        "orthomodular-poset": False,
        "pseudo-orthomodular": True,
        "strongly-d-continuous": True,
        "finch": True,
        "completion-orthomodular": True,
        "completion-distributive": True,
        "completion-modular": True,
    },
    "fig1b": {
        "antitone-involution": True,
        "complementation": True,
        "lattice": False,
        "atomic": True,
        "atomistic": True,
        "orthocomplete": False,
        "distributive": True,
        "boolean": True,
        "orthomodular-poset": False,
        "pseudo-orthomodular": True,
        "strongly-d-continuous": True,
        "finch": True,
        "completion-orthomodular": True,
        "completion-distributive": True,
        "completion-modular": True,
    },
    "fig2": {
        "antitone-involution": True,
        "complementation": True,
        "lattice": False,
        "atomic": True,
        "atomistic": True,
        "orthocomplete": False,
        "distributive": False,
        "boolean": False,
        "orthomodular-poset": False,
        "pseudo-orthomodular": True,
        "strongly-d-continuous": True,
        "finch": True,
        "completion-orthomodular": True,
        "completion-distributive": False,
        "completion-modular": False,
    },
    "fig3": {
        "antitone-involution": True,
        "complementation": True,
        "lattice": False,
        "atomic": True,
        "atomistic": True,
        "orthocomplete": True,
        "distributive": False,
        "boolean": False,
        "orthomodular-poset": True,
        "pseudo-orthomodular": False,
        "strongly-d-continuous": False,
        "finch": False,
        "completion-orthomodular": False,
        "completion-distributive": False,
        "completion-modular": False,
    },
    "twoblocks": {
        "antitone-involution": True,
        "complementation": True,
        "lattice": True,
        "atomic": True,
        "atomistic": True,
        "orthocomplete": True,
        "distributive": False,
        "boolean": False,
        "modular": True,
        "orthomodular-poset": True,
        "orthomodular-lattice": True,
        "pseudo-orthomodular": True,
        "strongly-d-continuous": True,
        "finch": True,
        "completion-orthomodular": True,
        "completion-distributive": False,
        "completion-modular": True,
    },
}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    build: Callable[[], FinitePoset]
    description: str
    expectations: "dict[str, bool]" = field(default_factory=dict)


_ENTRIES: "dict[str, CorpusEntry]" = {}


def _register(name: str, build: Callable[[], FinitePoset], description: str) -> None:
    if name in _ENTRIES:
        raise InternalError(f"corpus member {name} registered twice")
    _ENTRIES[name] = CorpusEntry(name, build, description, _EXPECTATIONS[name])


_register("chain2", lambda: chain(2), "two-element Boolean algebra")
_register("chain3", lambda: chain(3), "three-element chain, no complementation")
_register("ba4", lambda: boolean_algebra(2), "Boolean algebra on 2 atoms")
_register("ba8", lambda: boolean_algebra(3), "Boolean algebra on 3 atoms")
_register("ba16", lambda: boolean_algebra(4), "Boolean algebra on 4 atoms")
_register("mo2", lambda: mo(2), "modular ortholattice MO2")
_register("mo3", lambda: mo(3), "modular ortholattice MO3")
_register("benzene", benzene, "hexagon ortholattice, not orthomodular")
_register("diamond", diamond, "M3 lattice without involution")
_register("twoblocks", two_block_pasting, "two pasted blocks, 12-element OML")
_register(
    "fig1a",
    lambda: parse_data(*bundled_text("fig1a")),
    "14-element Boolean poset, not a lattice",
)
_register(
    "fig1b",
    lambda: parse_data(*bundled_text("fig1b")),
    "12-element Boolean poset, not a lattice",
)
_register(
    "fig2",
    lambda: parse_data(*bundled_text("fig2")),
    "14-element pseudo-orthomodular poset, not Boolean",
)
_register(
    "fig3",
    lambda: parse_data(*bundled_text("fig3")),
    "18-element orthomodular poset from a four-block loop",
)


def member_names() -> "tuple[str, ...]":
    return tuple(_ENTRIES)


def get_entry(name: str) -> CorpusEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        known = ", ".join(_ENTRIES)
        raise CorpusError(f"unknown corpus member {name!r} (known: {known})")


def load(name: str) -> FinitePoset:
    return get_entry(name).build()


def expectations(name: str) -> "dict[str, bool]":
    return dict(get_entry(name).expectations)


def profile_mismatches(
        name: str,
        results: "Iterable[tuple[str, CheckReport | None]]") -> "list[str]":
    """Compare verdicts with one member's recorded profile.

    ``results`` holds (property, report) pairs in the order
    ``run_properties`` ran them; a None report is a skipped check.
    Returns one text per disagreement, empty when all agree.
    """
    profile = get_entry(name).expectations
    mismatches = []
    for prop, report in results:
        expected = profile.get(prop)
        if report is None:
            if expected is not None:
                mismatches.append(f"{prop} expected {expected}, check was skipped")
        elif expected is None:
            mismatches.append(f"{prop} ran but has no recorded expectation")
        elif report.holds != expected:
            mismatches.append(f"{prop} expected {expected}, got {report.holds}")
    return mismatches


def verify_member(name: str, max_closed_sets: int = DEFAULT_MAX_CLOSED_SETS) -> "list[str]":
    """Run every registered property on one member under the closed-set cap and
    compare the verdicts with its profile; mismatch texts start with the name."""
    ctx = CheckContext(load(name), max_closed_sets)
    results = [(prop, report)
               for prop, report, _ in run_properties(ctx, PROPERTIES)]
    return [f"{name}: {text}" for text in profile_mismatches(name, results)]


def run_corpus_suite(names: "Iterable[str] | None" = None) -> "list[str]":
    """Verify every member (or the given subset) against expectations."""
    targets = tuple(names) if names is not None else member_names()
    problems = []
    for name in targets:
        problems.extend(verify_member(name))
    return problems
