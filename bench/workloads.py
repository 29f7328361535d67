"""The two workloads: their inputs, their unit operations and the checks
each operation's output must pass.

A workload builds its inputs in ``setup`` (what a user pays before the
first operation) and hands out one round of operations at a time.  Every
round is the same list of operations, so the share of failed operations
does not depend on how many rounds a run fits in.  Posetkit is called only
through module attributes (``pk.complete``, ``posetkit.cli.cli_main``), so
a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterator

import posetkit as pk
import posetkit.cli

import inputs as mk
from oracle import (Order, complemented_problem, completion_problem,
                    greechie_size, hsum_count, isomorphic)

BUILD_DIR = Path(__file__).resolve().parents[1] / ".bench_build"


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    digest: Callable[[object], Hashable] = hash


class Workload:
    name = ""
    # op_tail_ms is this percentile of the ops' latencies: the highest one
    # with at least ten of the workload's ops beyond it.
    tail_pct = 90.0

    def __init__(self, seed: int, short: bool = False):
        self.seed = seed
        self.short = short
        self.labels = mk.Labels(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self, lap: Callable[[Hashable, float], None]) -> list[Op]:
        """The program work of a round that is not an operation (input
        generation) happens here; it passes the time of each step to
        ``lap`` with a key of its own, and that time counts in wall_s."""
        return self.ops

    def close(self) -> None:
        pass

    def shuffled(self, ops: list[Op]) -> list[Op]:
        random.Random(self.seed).shuffle(ops)
        return ops


# -- cli ----------------------------------------------------------------

PROPS = ("antitone-involution", "complementation", "lattice", "atomic",
         "atomistic", "orthocomplete", "distributive", "boolean", "modular",
         "orthomodular-poset", "orthomodular-lattice", "pseudo-orthomodular",
         "strongly-d-continuous", "finch", "completion-orthomodular",
         "completion-distributive", "completion-modular")

MEMBERS = ("chain2", "chain3", "ba4", "ba8", "ba16", "mo2", "mo3", "benzene",
           "diamond", "twoblocks", "fig1a", "fig1b", "fig2", "fig3")


def _verdicts(fail=(), skip=()) -> dict:
    return {p: "fail" if p in fail else "skip" if p in skip else "pass" for p in PROPS}


# Verdicts that theory gives the generated documents; "skip" is a
# precondition the input lacks.
THEORY = {
    # a Boolean algebra has every property
    "ba": _verdicts(),
    # the completion of S_k is the Boolean algebra 2^k, so S_k is Boolean,
    # pseudo-orthomodular and strongly D-continuous, but two atoms a_i, a_j
    # are orthogonal and have no join
    "crown": _verdicts(fail=("lattice", "orthocomplete", "orthomodular-poset"),
                       skip=("modular", "orthomodular-lattice")),
    # MO_n is a modular ortholattice, hence orthomodular, not distributive
    "mo": _verdicts(fail=("distributive", "boolean", "completion-distributive")),
    # a chain of more than two elements is a distributive lattice whose flip
    # is no complementation
    "chain": _verdicts(
        fail=("complementation", "atomistic", "boolean"),
        skip=("orthomodular-poset", "orthomodular-lattice", "pseudo-orthomodular",
              "strongly-d-continuous", "finch", "completion-orthomodular")),
    # the horizontal sum of 2^3 and MO_3 is an orthomodular lattice; a part of
    # length 3 and an atom of the other part make a pentagon
    "hsum": _verdicts(fail=("distributive", "boolean", "modular",
                            "completion-distributive", "completion-modular")),
}


@dataclass(frozen=True)
class CliOutput:
    code: int
    out: str
    err: str


def _untimed(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("time-ms: "))


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = posetkit.cli.cli_main(argv)
    return CliOutput(code, _untimed(out.getvalue()), _untimed(err.getvalue()))


def report_verdicts(text: str) -> dict:
    """check/skip lines of a report -> {name: pass|fail|skip}."""
    found = {}
    for line in text.splitlines():
        if line.startswith("check: "):
            name, verdict = line.split()[1:3]
            found[name] = verdict
        elif line.startswith("skip: "):
            found[line.split()[1]] = "skip"
    return found


def document_elements(text: str) -> int:
    return sum(len(line.split()) - 1 for line in text.splitlines()
               if line.startswith("elements:"))


def _expect_code(result: CliOutput, code: int) -> "str | None":
    if result.code != code:
        return f"exit code {result.code}, expected {code}"
    return None


def _fig3_closed() -> int:
    """fig3 pastes four 3-atom blocks in a loop, each shared atom in two
    blocks: the loop of order 4, written out by the benchmark."""
    _, loop = mk.greechie_loop(4, "x")
    return len(Order(loop.n, loop.covers).closed_sets())


class Cli(Workload):
    """One op is one command through cli_main with stdout captured."""
    name = "cli"
    tail_pct = 91.0

    def setup(self) -> None:
        BUILD_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=BUILD_DIR))
        tag = self.labels.tag
        specs = {
            "ba": mk.boolean(3, tag()),
            "crown": mk.crown(4, tag()),
            "mo": mk.mo(8, tag()),
            "chain": mk.chain(9, tag()),
            "hsum": mk.hsum([mk.boolean(3, tag()), mk.mo(3, tag())], "hsum"),
            "part1": mk.boolean(3, tag()),
            "part2": mk.mo(3, tag()),
        }
        paths = {}
        for key, spec in specs.items():
            paths[key] = str(self.dir / f"{key}.poset")
            Path(paths[key]).write_text(spec.document(), encoding="utf-8")
        self.shown = {path: Path(path).name for path in paths.values()}

        ops = []
        members = MEMBERS[:6] if self.short else MEMBERS
        for member in members:
            ops.append(self._op(["check", member], self._profile_ok))
        for key in THEORY:
            ops.append(self._op(["check", paths[key]], self._theory(THEORY[key])))
        # single properties on the documents other than the Boolean algebra
        for key in ("crown", "mo", "chain", "hsum"):
            for prop in PROPS[::3 if self.short else 1]:
                ops.append(self._op(["check", paths[key], "--property", prop],
                                    self._single(prop, THEORY[key][prop])))
        # Boolean posets, chains (relpseudo) and pseudo-orthomodular posets
        # are operator residuated; on a completion, boolean-kind residuation
        # needs a Boolean lattice and pseudo_om an orthomodular one
        residuate = [("fig1a", "boolean", True), (paths["chain"], "relpseudo", True),
                     ("fig2", "pseudo_om", True), ("benzene", "pseudo_om", False),
                     ("mo3", "boolean", False)]
        for source, kind, holds in residuate:
            ops.append(self._op(["residuate", source, "--kind", kind, "--on-completion"],
                                self._residuated(holds)))
        crown_sets = 2 ** (specs["crown"].n // 2 - 1)
        ops.append(self._op(["complete", paths["crown"]],
                            self._completed(paths["crown"], crown_sets)))
        ops.append(self._op(["complete", "fig3"], self._completed("fig3", _fig3_closed)))
        ops.append(self._op(["greechie", "fig3", "--to-poset"],
                            self._pasted(greechie_size([3] * 4, [2] * 4))))
        # the completion of fig2 is the horizontal sum of 2^4 and 2^2, whose
        # Hasse diagrams have 4 * 8 and 2 * 2 edges
        ops.append(self._op(["export", "fig2", "--completion"],
                            self._exported(hsum_count([16, 4]), 32 + 4)))
        ops.append(self._op(["hsum", paths["part1"], paths["part2"]],
                            self._summed(specs["part1"].n + specs["part2"].n - 2)))
        # one member per op: all fourteen in one command take 0.36 s, too
        # long for that command's fastest time over a run to be steady
        for member in MEMBERS[:2] if self.short else MEMBERS:
            ops.append(self._op(["corpus", "--member", member], self._member_ok(member)))
        self.ops = self.shuffled(ops)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _op(self, argv, check) -> Op:
        key = " ".join(self.shown.get(arg, arg) for arg in argv)
        return Op(key, lambda: run_cli(argv), check, digest=lambda r: r)

    @staticmethod
    def _profile_ok(result: CliOutput):
        lines = result.out.splitlines()
        if result.code != 0 or not lines or lines[-1] != "profile: ok":
            return f"exit code {result.code}, last line {lines[-1:]!r}"
        return None

    @staticmethod
    def _theory(expected: dict):
        def check(result: CliOutput):
            found = report_verdicts(result.out)
            if found != expected:
                wrong = sorted(p for p in expected if found.get(p) != expected[p])
                return f"verdicts differ from theory on {wrong}"
            return _expect_code(result, 1 if "fail" in expected.values() else 0)
        return check

    @staticmethod
    def _single(prop, verdict):
        def check(result: CliOutput):
            found = report_verdicts(result.out)
            if verdict == "skip":
                if found != {prop: "fail"} or "precondition failed" not in result.out:
                    return f"{prop} should be a failed precondition, got {found}"
            elif found != {prop: verdict}:
                return f"{prop} should {verdict}, got {found}"
            return _expect_code(result, 0 if verdict == "pass" else 1)
        return check

    @staticmethod
    def _residuated(holds: bool):
        """On a residuated input both lines pass; otherwise the completion's
        line fails (the operator line is left to the program)."""
        def check(result: CliOutput):
            found = report_verdicts(result.out)
            if holds and found.get("operator-residuation") != "pass":
                return f"operator-residuation {found.get('operator-residuation')}, expected pass"
            if found.get("left-residuated-lattice") != ("pass" if holds else "fail"):
                return f"left-residuated-lattice {found.get('left-residuated-lattice')}"
            last = result.out.splitlines()[-1] if result.out else ""
            if not last.startswith("residuate: ") or holds == ("not" in last):
                return f"summary line {last!r}"
            return _expect_code(result, 0 if holds else 1)
        return check

    @staticmethod
    def _completed(source, count):
        """``count`` is the number of closed sets, or a function that
        computes it when the output is checked."""
        def check(result: CliOutput):
            expected = count() if callable(count) else count
            if result.err.strip() != f"complete: {source} has {expected} closed sets":
                return f"note {result.err.strip()!r}, expected {expected} closed sets"
            if document_elements(result.out) != expected:
                return (f"document has {document_elements(result.out)} elements, "
                        f"expected {expected}")
            return _expect_code(result, 0)
        return check

    @staticmethod
    def _pasted(size):
        def check(result: CliOutput):
            if "check: greechie-diagram pass min-loop-order=4" not in result.err:
                return "diagram not reported valid with loops of order 4"
            if f"greechie: pasted poset has {size} elements" not in result.err:
                return f"pasted size not reported as {size}"
            if document_elements(result.out) != size:
                return f"document has {document_elements(result.out)} elements, expected {size}"
            return _expect_code(result, 0)
        return check

    @staticmethod
    def _exported(nodes, edges):
        def check(result: CliOutput):
            lines = result.out.splitlines()
            got_edges = sum(" -> " in line for line in lines)
            got_nodes = sum(line.startswith('  "') and " -> " not in line for line in lines)
            if (got_nodes, got_edges) != (nodes, edges):
                return f"{got_nodes} nodes and {got_edges} edges, expected {nodes} and {edges}"
            if result.err.strip() != f"export: completion of fig2, {nodes} nodes":
                return f"note {result.err.strip()!r}"
            return _expect_code(result, 0)
        return check

    @staticmethod
    def _summed(size):
        def check(result: CliOutput):
            if document_elements(result.out) != size:
                return f"sum has {document_elements(result.out)} elements, expected {size}"
            if result.err.strip() != f"hsum: {size} elements from 2 parts":
                return f"note {result.err.strip()!r}"
            return _expect_code(result, 0)
        return check

    @staticmethod
    def _member_ok(member: str):
        def check(result: CliOutput):
            if result.out.splitlines() != [f"corpus: {member} ok"]:
                return f"corpus printed {result.out.splitlines()!r}, not one 'ok' for {member}"
            return _expect_code(result, 0)
        return check


# -- library: scaling ops -------------------------------------------------


class Scaling(Workload):
    """One op is complete() then as_poset() on one member of a family."""

    def setup(self) -> None:
        tag = self.labels.tag
        short = self.short
        cases = []  # (spec, poset, closed sets by closed form or None)
        for n in ((4, 10, 20, 30) if short else
                  (4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 70, 80)):
            spec = mk.chain(n, tag())
            cases.append((spec, spec.build(), n))
        for k in range(1, 6 if short else 8):
            spec = mk.boolean(k, tag())
            cases.append((spec, spec.build(), 2 ** k))
        for k in range(3, 7 if short else 9):
            spec = mk.crown(k, tag())
            cases.append((spec, spec.build(), 2 ** k))
        for n in ((1, 2, 4, 8) if short else
                  (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48, 56, 64)):
            spec = mk.mo(n, tag())
            cases.append((spec, spec.build(), 2 * n + 2))
        sums = ((mk.crown, 4, 16, (2, 3, 4, 6, 8, 12, 16)), (mk.boolean, 3, 8, (2, 4, 8, 16)))
        for part, size, closed, counts in sums:
            for count in (counts[:2] if short else counts):
                specs = [part(size, tag()) for _ in range(count)]
                summed = pk.horizontal_sum([spec.build() for spec in specs])
                cases.append((mk.hsum(specs, f"hsum{count}x{specs[0].label}"), summed,
                              hsum_count([closed] * count)))
        for k in ((4, 5) if short else range(4, 15)):
            text, spec = mk.greechie_loop(k, tag())
            poset = pk.greechie_to_omp(pk.parse_greechie(text))
            cases.append((spec, poset, None))

        self.ops = self.shuffled([Op(spec.label, _completion_run(poset),
                                     _completion_check(spec, poset.names, count))
                                  for spec, poset, count in cases])


def _completion_run(poset):
    def run():
        lattice = pk.complete(poset)
        return lattice.closed, lattice.as_poset().up
    return run


def _completion_check(spec, names, count):
    """The order the check uses is recomputed from the spec's covers,
    renumbered to the ids posetkit gave the elements.  It is built when the
    output is checked, outside the timed op and the timed set-up, and
    dropped afterwards."""
    def check(output):
        closed, up = output
        pos = {name: i for i, name in enumerate(names)}
        order = Order(spec.n, [(pos[spec.names[a]], pos[spec.names[b]])
                               for a, b in spec.covers])
        expected = len(order.closed_sets()) if count is None else count
        return completion_problem(order, closed, expected, up)
    return check


# -- library: check ops ---------------------------------------------------

COMPLETION_PROPS = ("strongly-d-continuous", "finch", "completion-orthomodular",
                    "completion-modular", "completion-distributive")


@dataclass(frozen=True)
class Traits:
    """What theory says about an input's completion."""
    pom: bool           # pseudo-orthomodular, so SDC decides the completion
    oml: bool           # its completion is an orthomodular lattice
    modular: bool
    distributive: bool

    def expected(self, check: str) -> bool:
        """SDC and Finch's criterion each decide completion-orthomodularity
        (SDC on pseudo-orthomodular inputs); boolean-kind residuation holds
        exactly on Boolean completions, the sasaki-style pseudo_om kind
        exactly on orthomodular ones, relpseudo on Heyting (here:
        distributive) ones."""
        return {
            "strongly-d-continuous": self.oml,
            "finch": self.oml,
            "completion-orthomodular": self.oml,
            "completion-modular": self.modular,
            "completion-distributive": self.distributive,
            "boolean": self.oml and self.distributive,
            "relpseudo": self.distributive,
            "pseudo_om": self.oml,
        }[check]


BOOLEAN = Traits(pom=True, oml=True, modular=True, distributive=True)
MODULAR_OL = Traits(pom=True, oml=True, modular=True, distributive=False)
# a horizontal sum of Boolean algebras, one of length > 2, is orthomodular
# but not modular
HSUM_OL = Traits(pom=True, oml=True, modular=False, distributive=False)
# benzene is not pseudo-orthomodular and theory leaves fig3's SDC open, so
# neither runs SDC
NOT_OML = Traits(pom=False, oml=False, modular=False, distributive=False)
CHAIN = Traits(pom=False, oml=False, modular=True, distributive=True)


class CompletionChecks(Workload):
    """One op is one completion-level check on one input whose completion
    was built at set-up."""

    def setup(self) -> None:
        tag = self.labels.tag
        every = COMPLETION_PROPS
        # (label, poset, traits, checks).  SDC runs on pseudo-orthomodular
        # inputs only, where theory fixes its verdict.  Bigger completions
        # skip the checks that cost more than about 0.1 s on them (seconds to
        # minutes from S_6 up, see the README's reference figures): each op
        # is kept short, so that its fastest time over a run's rounds is
        # steady on a loaded machine.
        plan = [
            ("crown4", mk.crown(4, tag()).build(), BOOLEAN, every + ("boolean", "pseudo_om")),
            ("ba16", mk.boolean(4, tag()).build(), BOOLEAN,
             every + ("boolean", "relpseudo", "pseudo_om")),
            ("mo4", mk.mo(4, tag()).build(), MODULAR_OL, every + ("boolean", "pseudo_om")),
            ("fig1a", pk.parse_poset(mk.corpus_text("fig1a.poset")), BOOLEAN,
             every + ("boolean", "pseudo_om")),
            # fig2 is fig1b (Boolean, completion 2^4) summed with 2^2
            ("fig2", pk.parse_poset(mk.corpus_text("fig2.poset")), HSUM_OL,
             every + ("boolean", "pseudo_om")),
            ("fig3", pk.greechie_to_omp(pk.parse_greechie(mk.corpus_text("fig3.greechie"))),
             NOT_OML, every + ("pseudo_om",)),
            ("benzene", mk.benzene().build(), NOT_OML, every + ("boolean", "pseudo_om")),
            ("chain8", mk.chain(8, tag()).build(), CHAIN, every[3:] + ("relpseudo",)),
        ]
        if not self.short:
            plan += [
                ("crown5", mk.crown(5, tag()).build(), BOOLEAN,
                 every[:4] + ("boolean", "pseudo_om")),
                ("crown6", mk.crown(6, tag()).build(), BOOLEAN,
                 every[:3] + ("boolean", "pseudo_om")),
                ("crown7", mk.crown(7, tag()).build(), BOOLEAN, every[:3]),
                ("crown8", mk.crown(8, tag()).build(), BOOLEAN, every[:2]),
                ("ba32", mk.boolean(5, tag()).build(), BOOLEAN,
                 every[:4] + ("boolean", "relpseudo", "pseudo_om")),
                ("ba64", mk.boolean(6, tag()).build(), BOOLEAN,
                 every[:3] + ("boolean", "pseudo_om")),
                ("mo8", mk.mo(8, tag()).build(), MODULAR_OL, every + ("boolean", "pseudo_om")),
                ("mo16", mk.mo(16, tag()).build(), MODULAR_OL, every + ("boolean", "pseudo_om")),
                ("chain16", mk.chain(16, tag()).build(), CHAIN, every[3:] + ("relpseudo",)),
            ]
        ops = []
        for label, poset, traits, checks in plan:
            ctx = pk.CheckContext(poset)
            ctx.dm.as_poset()
            for check in checks:
                if check == "strongly-d-continuous" and not traits.pom:
                    continue
                ops.append(Op(f"{check} {label}",
                              _completion_check_run(ctx, check),
                              _verdict_check(traits.expected(check)),
                              digest=lambda report: report.line()))
        self.ops = self.shuffled(ops)


def _completion_check_run(ctx, check: str):
    if check in COMPLETION_PROPS:
        return lambda: pk.PROPERTIES[check](ctx)

    def residuate():
        star = pk.star_on_dm(ctx.poset, ctx.dm) if check == "relpseudo" else None
        completed = ctx.dm.as_poset()
        ops = pk.bdm_transform(completed, check, star)
        return pk.verify_left_residuated_lattice(completed, ops)
    return residuate


def _verdict_check(expected: bool):
    def check(report):
        if report.holds != expected:
            return f"{report.name} {'holds' if report.holds else 'fails'}, theory says otherwise"
        return None
    return check


# -- library: verdict ops -------------------------------------------------

VERDICTS = ("pseudo-orthomodular", "strongly-d-continuous", "finch",
            "completion-orthomodular")


class Population(Workload):
    """One op computes four verdicts on one generated complemented poset.
    Generating the posets is program work of the round, not of an op."""

    def setup(self) -> None:
        # sizes 4..12 in equal numbers, so every seed has the same mix
        self.quota = 20 if self.short else 200
        self.sizes = (4, 6, 8, 10, 12)

    def round_ops(self, lap) -> list[Op]:
        exhaustive = list(_stepped(pk.generate_small(5 if self.short else 7, "complemented",
                                                     exhaustive=True), "exhaustive", lap))
        stream = _stepped(pk.generate_small(12, "complemented", seed=self.seed), "random", lap)
        need = dict.fromkeys(self.sizes, self.quota)
        drawn = []
        while any(need.values()):
            poset = next(stream)
            if need.get(poset.n):
                need[poset.n] -= 1
                drawn.append(poset)
        ops = [Op(f"exhaustive#{i}", _verdicts_run(p), _population_check(p, exhaustive[:i]),
                  digest=_population_digest(p)) for i, p in enumerate(exhaustive)]
        ops += [Op(f"random#{i}", _verdicts_run(p), _population_check(p, ()),
                   digest=_population_digest(p)) for i, p in enumerate(drawn)]
        return ops


def _stepped(stream, key: str, lap) -> Iterator:
    """Yield from ``stream``, passing the time of each step to ``lap``.
    Each step is timed on its own, as an op is: a whole stream takes most
    of a second, and its fastest time over a run's rounds would depend on
    the machine's load far more than the fastest time of each short step."""
    step = 0
    while True:
        began = time.perf_counter()
        try:
            item = next(stream)
        except StopIteration:
            lap((key, step), time.perf_counter() - began)
            return
        lap((key, step), time.perf_counter() - began)
        step += 1
        yield item


def _verdicts_run(poset):
    def run():
        ctx = pk.CheckContext(poset)
        return tuple(pk.PROPERTIES[name](ctx).holds for name in VERDICTS)
    return run


def _population_digest(poset):
    return lambda verdicts: (verdicts, poset.up, poset.inv)


def _population_check(poset, earlier):
    def check(verdicts):
        order = Order.of_poset(poset)
        problem = complemented_problem(order, poset.inv)
        if problem:
            return f"generated poset is not complemented: {problem}"
        pom, sdc, finch, oml = verdicts
        if (sdc and pom) != oml or finch != oml:
            return f"SDC and POM = {sdc and pom}, finch = {finch}, completion OML = {oml}"
        for other in earlier:
            if isomorphic(order, poset.inv, Order.of_poset(other), other.inv):
                return "exhaustive stream repeats a poset up to isomorphism"
        return None
    return check


# -- library --------------------------------------------------------------


class Library(Workload):
    """Every call straight into posetkit, in one round: the ops of Scaling
    (complete() and as_poset() on one input), of CompletionChecks (one
    completion-level check on a completion built at set-up) and of
    Population (four verdicts on one generated poset), shuffled together.
    They make one workload, not three, so that each run of the benchmark
    can be long enough to outlast a stretch of load on the machine."""
    name = "library"
    tail_pct = 99.0

    def setup(self) -> None:
        self.ops = []
        for part in (Scaling, CompletionChecks):
            workload = part(self.seed, self.short)
            workload.setup()
            self.ops += workload.ops
        self.population = Population(self.seed, self.short)
        self.population.setup()

    def round_ops(self, lap) -> list[Op]:
        return self.shuffled(self.ops + self.population.round_ops(lap))


WORKLOADS = {cls.name: cls for cls in (Cli, Library)}
