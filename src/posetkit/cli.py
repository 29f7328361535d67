"""Command-line interface and structured run reports.

Subcommands:
  check      run property checks on a poset (bundled name or file)
  complete   emit the Dedekind-MacNeille completion as a poset document
  residuate  verify operator residuation, optionally on the completion
  greechie   validate a block diagram and optionally paste it to a poset
  hsum       horizontal sum of several posets
  corpus     verify bundled members against their recorded profiles
  export     emit a DOT rendering of the cover relation

Exit codes: 0 when every requested check passed, 1 when some check
failed, 2 on usage errors, 3 on parse or input data errors, 4 when an
internal invariant failed (a bug in posetkit, not in the input), 5 when
a completion or a generator went past its size cap.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
# Unused here: bench/reference.py still swaps this name to time the thread
# pool that ``check`` used to run its properties on.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from pathlib import Path
from typing import Sequence

from . import __version__
from . import corpus as corpus_mod
from .build import generate_small, greechie_to_omp, horizontal_sum, validate_greechie
from .checks import PRECONDITION_ERRORS, PROPERTIES, CheckContext, run_properties
from .completion import DEFAULT_MAX_CLOSED_SETS, complete
from .errors import (
    CorpusError,
    InternalError,
    ParseError,
    PosetError,
    SizeLimitExceeded,
)
from .formats import (
    export_dot,
    parse_greechie,
    serialize_poset,
)
from .poset import FinitePoset
from .report import CheckReport
from .residuation import (
    KINDS,
    bdm_transform,
    star_on_dm,
    verify_left_residuated_lattice,
    verify_operator_left_residuation,
)

TOOL = "posetkit"
REPORT_FORMAT = 1


class _UsageError(Exception):
    pass


class RunReport:
    """Accumulates report lines; rendering is stable except time-ms."""

    def __init__(self, input_id: str, content: str):
        self.input_id = input_id
        self.digest = hashlib.sha256(content.encode("utf-8")).hexdigest()
        self.entries: "list[str]" = []
        self._start = time.monotonic()

    def add(self, line: str) -> None:
        self.entries.append(line)

    def add_report(self, report: CheckReport) -> None:
        self.entries.append(report.line())

    def render(self) -> str:
        lines = [
            f"tool: {TOOL} {__version__} report-format {REPORT_FORMAT}",
            f"input: {self.input_id} sha256:{self.digest}",
        ]
        lines.extend(self.entries)
        elapsed = int((time.monotonic() - self._start) * 1000)
        lines.append(f"time-ms: {elapsed}")
        return "\n".join(lines) + "\n"


def _read_input(arg: str) -> "tuple[str, str | None, str | None]":
    """(input id, file name, text) of a bundled member name or a file
    path; a member built in code has neither file name nor text."""
    if arg in corpus_mod.member_names():
        return arg, *(corpus_mod.bundled_text(arg) or (None, None))
    path = Path(arg)
    if not path.is_file():
        raise _UsageError(f"{arg!r} is neither a bundled member nor a file")
    return str(path), str(path), path.read_text(encoding="utf-8")


def _load_poset_input(arg: str) -> "tuple[str, str, FinitePoset]":
    """Resolve a bundled member name or a file path.

    Returns (input id, content used for the digest, poset).
    """
    input_id, filename, content = _read_input(arg)
    if content is None:
        poset = corpus_mod.load(arg)
        return arg, serialize_poset(poset, metadata={"name": arg}), poset
    return input_id, content, corpus_mod.parse_data(filename, content)


def _write_document(text: str, output: "str | None", note: str) -> None:
    """Document to the file (or stdout); the note to the other stream."""
    if output is None:
        sys.stdout.write(text)
        print(note, file=sys.stderr)
    else:
        Path(output).write_text(text, encoding="utf-8")
        print(note)


def _failed_precondition(name: str, exc: Exception, **extra) -> CheckReport:
    return CheckReport(name, False, witness={"error": str(exc)},
                       details="precondition failed", extra=extra)


def _cmd_check(args) -> int:
    input_id, content, poset = _load_poset_input(args.input)
    if args.property and args.all:
        raise _UsageError("--property and --all are mutually exclusive")
    report = RunReport(input_id, content)
    ctx = CheckContext(poset, args.max_closed_sets)
    names = [args.property] if args.property else list(PROPERTIES)

    failures = 0
    results = []
    # an undecided property is a skip, or a failure when it was requested
    for name, result, exc in run_properties(ctx, names):
        results.append((name, result))
        if result is not None:
            report.add_report(result)
            if not result.holds:
                failures += 1
        elif args.property:
            report.add_report(_failed_precondition(name, exc))
            failures += 1
        else:
            report.add(f"skip: {name} - {exc}")

    # a member's verdicts are judged against its profile instead
    if args.property is None and input_id in corpus_mod.member_names():
        mismatches = corpus_mod.profile_mismatches(input_id, results)
        for text in mismatches:
            report.add(f"profile: MISMATCH {text}")
        report.add("profile: ok" if not mismatches
                   else f"profile: {len(mismatches)} mismatches")
        failures = len(mismatches)
    sys.stdout.write(report.render())
    return 1 if failures else 0


def _cmd_complete(args) -> int:
    input_id, _, poset = _load_poset_input(args.input)
    lattice = complete(poset, args.max_closed_sets)
    meta = {"closed-sets": str(len(lattice)), "completion-of": input_id}
    text = serialize_poset(lattice, metadata=meta, style=args.style)
    _write_document(text, args.output,
                    f"complete: {input_id} has {len(lattice)} closed sets")
    return 0


def _cmd_residuate(args) -> int:
    input_id, content, poset = _load_poset_input(args.input)
    report = RunReport(input_id, content)
    code = 0
    try:
        verdict = verify_operator_left_residuation(poset, args.kind)
        report.add_report(verdict)
        if not verdict.holds:
            code = 1
    except PRECONDITION_ERRORS as exc:
        report.add_report(
            _failed_precondition("operator-residuation", exc, kind=args.kind))
        code = 1

    if args.on_completion:
        try:
            lattice = complete(poset, args.max_closed_sets)
            star = None
            if args.kind == "relpseudo":
                star = star_on_dm(poset, lattice)
            # element ids of the completion are closed-set indices, so
            # the star table carries over unchanged
            ops = bdm_transform(lattice, args.kind, star)
            verdict = verify_left_residuated_lattice(lattice, ops)
            report.add_report(verdict)
            if verdict.holds:
                if verdict.extra.get("commutative") == "yes":
                    report.add("residuate: residuated (commutative)")
                else:
                    report.add("residuate: left residuated")
            else:
                report.add("residuate: not left residuated")
                code = 1
        except PRECONDITION_ERRORS as exc:
            report.add_report(
                _failed_precondition("left-residuated-lattice", exc, kind=args.kind))
            report.add("residuate: not left residuated")
            code = 1
    sys.stdout.write(report.render())
    return code


def _cmd_greechie(args) -> int:
    input_id, filename, content = _read_input(args.input)
    if args.input in corpus_mod.member_names() and not (filename or "").endswith(".greechie"):
        raise _UsageError(f"{args.input!r} is not a block diagram")
    diagram = parse_greechie(content)
    report = RunReport(input_id, content)
    verdict = validate_greechie(diagram)
    report.add_report(verdict)
    if not verdict.holds:
        sys.stdout.write(report.render())
        return 1
    if args.to_poset:
        poset = greechie_to_omp(diagram)
        report.add(f"greechie: pasted poset has {poset.n} elements")
        text = serialize_poset(poset, metadata={"pasted-from": input_id})
        _write_document(text, args.output, report.render().rstrip("\n"))
        return 0
    sys.stdout.write(report.render())
    return 0


def _cmd_hsum(args) -> int:
    parts = [_load_poset_input(name)[2] for name in args.inputs]
    summed = horizontal_sum(parts)
    meta = {"parts": str(len(parts))}
    text = serialize_poset(summed, metadata=meta, style=args.style)
    _write_document(text, args.output,
                    f"hsum: {summed.n} elements from {len(parts)} parts")
    return 0


def _cmd_corpus(args) -> int:
    if args.generate < 0:
        raise _UsageError("--generate must be at least 0")
    if args.max_size < 2:
        raise _UsageError("--max-size must be at least 2")
    stream = None
    if args.generate:
        if args.seed is None:
            raise _UsageError("--generate requires --seed")
        stream = generate_small(args.max_size, "complemented", seed=args.seed)

    names = args.member or list(corpus_mod.member_names())
    bad = 0
    for name in names:
        problems = corpus_mod.verify_member(name, args.max_closed_sets)
        print(f"corpus: {name} {'ok' if not problems else 'MISMATCH'}")
        for text in problems:
            print(f"corpus:   {text}")
        bad += len(problems)

    if stream is not None:
        disagreements = 0
        for _ in range(args.generate):
            poset = next(stream)
            ctx = CheckContext(poset, args.max_closed_sets)
            sdc = PROPERTIES["strongly-d-continuous"](ctx).holds
            pom = PROPERTIES["pseudo-orthomodular"](ctx).holds
            finch = PROPERTIES["finch"](ctx).holds
            oml = PROPERTIES["completion-orthomodular"](ctx).holds
            if ((sdc and pom) != oml) or (finch != oml):
                disagreements += 1
        print(f"generated: {args.generate} complemented posets, "
              f"{disagreements} discrepancies")
        bad += disagreements
    return 1 if bad else 0


def _cmd_export(args) -> int:
    input_id, _, poset = _load_poset_input(args.input)
    if args.completion:
        target = complete(poset, args.max_closed_sets)
        note = f"export: completion of {input_id}, {target.n} nodes"
    else:
        target = poset
        note = f"export: {input_id}, {poset.n} nodes"
    _write_document(export_dot(target), args.output, note)
    return 0


def _integer(text: str) -> int:
    """The type of every integer option: ASCII digits after an optional
    minus sign.  int() alone also takes '٣', '3_0', ' 3 ' and '+3'."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _cap(text: str) -> int:
    """The --max-closed-sets value: an integer of at least 1."""
    try:
        if _integer(text) >= 1:
            return int(text)
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(f"N must be an integer of at least 1, not {text!r}")


def _add_cap(sub) -> None:
    sub.add_argument("--max-closed-sets", type=_cap,
                     default=DEFAULT_MAX_CLOSED_SETS, metavar="N",
                     help="abort completions larger than N closed sets (N >= 1)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    building it costs about as much as a small command."""
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Verify order-theoretic properties of finite bounded "
                    "posets with involution.")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="run property checks")
    p.add_argument("input", help="bundled member name or poset file")
    p.add_argument("--property", choices=sorted(PROPERTIES),
                   help="check a single property instead of all of them")
    p.add_argument("--all", action="store_true",
                   help="run every property (the default)")
    _add_cap(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("complete", help="write the completion as a document")
    p.add_argument("input")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--style", choices=("plain", "json"), default="plain")
    _add_cap(p)
    p.set_defaults(func=_cmd_complete)

    p = subs.add_parser("residuate", help="verify operator residuation")
    p.add_argument("input")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--on-completion", action="store_true",
                   help="also verify the transformed operations on the "
                        "completion")
    _add_cap(p)
    p.set_defaults(func=_cmd_residuate)

    p = subs.add_parser("greechie", help="validate and paste a block diagram")
    p.add_argument("input", help="bundled member name or diagram file")
    p.add_argument("--to-poset", action="store_true",
                   help="emit the pasted poset as a document")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=_cmd_greechie)

    p = subs.add_parser("hsum", help="horizontal sum of posets")
    p.add_argument("inputs", nargs="+",
                   help="bundled member names or poset files")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--style", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_hsum)

    p = subs.add_parser("corpus", help="verify bundled members")
    p.add_argument("--member", action="append",
                   choices=sorted(corpus_mod.member_names()),
                   help="restrict to one member (repeatable)")
    p.add_argument("--generate", type=_integer, default=0, metavar="N",
                   help="also test N generated complemented posets")
    p.add_argument("--seed", type=_integer, help="generator seed")
    p.add_argument("--max-size", type=_integer, default=8, metavar="K",
                   help="largest generated poset")
    _add_cap(p)
    p.set_defaults(func=_cmd_corpus)

    p = subs.add_parser("export", help="emit DOT for the cover relation")
    p.add_argument("input")
    p.add_argument("--completion", action="store_true",
                   help="export the completion instead of the input")
    p.add_argument("-o", "--output", metavar="FILE")
    _add_cap(p)
    p.set_defaults(func=_cmd_export)
    return parser


def cli_main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"{TOOL}: parse error: {exc}", file=sys.stderr)
        return 3
    except CorpusError as exc:
        print(f"{TOOL}: corpus error: {exc}", file=sys.stderr)
        return 3
    except SizeLimitExceeded as exc:
        print(f"{TOOL}: size limit: {exc}", file=sys.stderr)
        return 5
    except PosetError as exc:
        print(f"{TOOL}: invalid input: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"{TOOL}: internal error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
