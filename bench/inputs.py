"""Inputs the benchmark builds itself, each with its own cover relation.

Every family is described by a ``Spec``: element names in id order, the
cover pairs and the involution.  The benchmark keeps the spec so that its
checks can recompute the order from the covers, independently of posetkit.
Ids are always laid out bottom-up (the order NextClosure sees); the seed
only chooses the element labels.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

import posetkit as pk

CORPUS_DIR = Path(__file__).resolve().parents[1] / "src" / "posetkit" / "corpus"


@dataclass(frozen=True)
class Spec:
    label: str
    names: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]
    inv: tuple[int, ...] | None

    @property
    def n(self) -> int:
        return len(self.names)

    def build(self):
        """The poset, built through posetkit's public constructor."""
        names = self.names
        involution = None
        if self.inv is not None:
            involution = [(names[i], names[j]) for i, j in enumerate(self.inv)]
        return pk.build_poset(names, [(names[a], names[b]) for a, b in self.covers],
                              involution=involution)

    def document(self) -> str:
        """The plain poset document, written without posetkit."""
        lines = ["format: 1", f"meta: name={self.label}",
                 "elements: " + " ".join(self.names)]
        if self.covers:
            lines.append("covers: " + " ".join(
                f"{self.names[a]}<{self.names[b]}" for a, b in self.covers))
        if self.inv is not None:
            lines.append("involution: " + " ".join(
                f"{self.names[i]}:{self.names[j]}"
                for i, j in enumerate(self.inv) if i <= j))
        return "\n".join(lines) + "\n"


class Labels:
    """Seeded element labels: one random tag per input, so the same seed
    always names elements the same way and no two inputs share a name."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._used: set[str] = set()

    def tag(self) -> str:
        while True:
            tag = "".join(self._rng.choice(string.ascii_lowercase) for _ in range(3))
            if tag not in self._used:
                self._used.add(tag)
                return tag


def chain(n: int, tag: str) -> Spec:
    names = ("0",) + tuple(f"{tag}{i}" for i in range(1, n - 1)) + ("1",)
    covers = tuple((i, i + 1) for i in range(n - 1))
    return Spec(f"chain{n}", names, covers, tuple(n - 1 - i for i in range(n)))


def boolean(k: int, tag: str) -> Spec:
    """The power set of k atoms; element id = the subset's bitmask."""
    full = (1 << k) - 1

    def name(mask: int) -> str:
        if mask == 0:
            return "0"
        if mask == full:
            return "1"
        return tag + "".join(string.ascii_lowercase[i] for i in range(k) if mask >> i & 1)

    names = tuple(name(m) for m in range(full + 1))
    covers = tuple((m, m | 1 << i) for m in range(full + 1) for i in range(k)
                   if not m >> i & 1)
    return Spec(f"ba{full + 1}", names, covers, tuple(full ^ m for m in range(full + 1)))


def crown(k: int, tag: str) -> Spec:
    """S_k: 0 < a_i < b_j < 1 for i != j, with a_i' = b_i."""
    names = (("0",) + tuple(f"{tag}a{i}" for i in range(k))
             + tuple(f"{tag}b{i}" for i in range(k)) + ("1",))
    top = 2 * k + 1
    covers = ([(0, 1 + i) for i in range(k)]
              + [(1 + i, 1 + k + j) for i in range(k) for j in range(k) if i != j]
              + [(1 + k + j, top) for j in range(k)])
    inv = [top] + [1 + k + i for i in range(k)] + [1 + i for i in range(k)] + [0]
    return Spec(f"crown{k}", names, tuple(covers), tuple(inv))


def mo(n: int, tag: str) -> Spec:
    """MO_n: n complementary atom pairs between the bounds."""
    names = ["0"]
    for i in range(n):
        names += [f"{tag}{i}", f"{tag}{i}n"]
    names.append("1")
    top = 2 * n + 1
    covers = [(0, j) for j in range(1, top)] + [(j, top) for j in range(1, top)]
    inv = [top] + [j + 1 if j % 2 else j - 1 for j in range(1, top)] + [0]
    return Spec(f"mo{n}", tuple(names), tuple(covers), tuple(inv))


def benzene() -> Spec:
    names = ("0", "a", "b", "c", "d", "1")
    covers = ((0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5))
    return Spec("benzene", names, covers, (5, 4, 3, 2, 1, 0))


def hsum(parts: list[Spec], label: str) -> Spec:
    """Horizontal sum laid out as posetkit lays it out: the bottom, each
    part's middle elements in part order, then the top."""
    names = ["0"]
    where: list[dict[int, int]] = []
    for part in parts:
        ids = {0: 0}
        for i in range(1, part.n - 1):
            ids[i] = len(names)
            names.append(part.names[i])
        where.append(ids)
    top = len(names)
    names.append("1")
    covers, inv = set(), [0] * (top + 1)
    inv[0], inv[top] = top, 0
    for part, ids in zip(parts, where):
        ids[part.n - 1] = top
        covers.update((ids[a], ids[b]) for a, b in part.covers)
        for i in range(1, part.n - 1):
            inv[ids[i]] = ids[part.inv[i]]
    return Spec(label, tuple(names), tuple(sorted(covers)), tuple(inv))


def greechie_loop(k: int, tag: str) -> tuple[str, Spec]:
    """Block diagram of k three-atom blocks pasted in a loop of order k
    (block i holds the atoms s_{i-1}, p_i, s_i), and the pasted poset
    written out directly: 0, the 2k atoms, their 2k complements (the
    coatoms) and 1, with an atom below the complement of every other atom
    of its block."""
    atoms = [f"{tag}s{i}" for i in range(k)] + [f"{tag}p{i}" for i in range(k)]
    blocks = [(f"{tag}s{(i - 1) % k}", f"{tag}p{i}", f"{tag}s{i}") for i in range(k)]
    text = ("atoms: " + " ".join(atoms) + "\n"
            + "".join("block: " + " ".join(block) + "\n" for block in blocks))
    names = ("0",) + tuple(atoms) + tuple(a + "'" for a in atoms) + ("1",)
    idx = {name: i for i, name in enumerate(names)}
    top = len(names) - 1
    covers = {(0, idx[a]) for a in atoms} | {(idx[a + "'"], top) for a in atoms}
    for block in blocks:
        covers |= {(idx[a], idx[b + "'"]) for a in block for b in block if a != b}
    n = len(atoms)
    inv = (top,) + tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1)) + (0,)
    return text, Spec(f"greechie{k}", names, tuple(sorted(covers)), inv)


def corpus_text(filename: str) -> str:
    """A data file shipped with posetkit's corpus, read as a user would."""
    return (CORPUS_DIR / filename).read_text(encoding="utf-8")
