"""Spans around posetkit's public functions, installed for traced runs only.

Callers inside posetkit bind some of these names when they import them
(``from .completion import complete``), so a wrapper replaces the name in
every loaded posetkit module that holds the original, not only where it is
defined.  Spans stay in memory until the run ends.  Each records its name,
start, end, parent and thread: ``check`` runs properties on worker threads,
so a span's parent is the innermost open span of its own thread and self
time is computed per thread.
"""

from __future__ import annotations

import bisect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# (defining module, public function) -> span name, which is also the stem
# of the per-layer metric the span feeds.
SPANS = {
    ("posetkit.formats", "parse_poset"): "formats.parse",
    ("posetkit.formats", "parse_greechie"): "formats.parse",
    ("posetkit.formats", "serialize_poset"): "formats.serialize",
    ("posetkit.formats", "export_dot"): "formats.serialize",
    ("posetkit.poset", "build_poset"): "poset.build",
    ("posetkit.build", "greechie_to_omp"): "build.greechie",
    ("posetkit.build", "horizontal_sum"): "build.hsum",
    ("posetkit.residuation", "operator_pair"): "residuation.operator",
    ("posetkit.residuation", "verify_operator_left_residuation"): "residuation.operator",
    ("posetkit.residuation", "star_on_dm"): "residuation.star_on_dm",
    ("posetkit.residuation", "bdm_transform"): "residuation.bdm_transform",
    ("posetkit.residuation", "verify_left_residuated_lattice"): "residuation.verify_lattice",
    ("posetkit.corpus", "verify_member"): "corpus.verify_member",
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    phase: str
    count: int = 0
    raised: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def call(self, name, fn, args, kwargs, counter=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(next(self._ids), name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), self.phase)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                span.count = counter(result)
            return result
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        traced.__wrapped__ = fn
        return traced

    def _replace(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "posetkit" and not modname.startswith("posetkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        import posetkit.cli  # noqa: F401 - every module the CLI imports is loaded
        from posetkit.checks import PROPERTIES
        from posetkit.completion import DMLattice

        modules = sys.modules
        for (modname, attr), name in SPANS.items():
            original = getattr(modules[modname], attr)
            self._replace(original, self._wrap(name, original))
        complete = modules["posetkit.completion"].complete
        self._replace(complete, self._wrap("completion.complete", complete, len))

        cli_main = modules["posetkit.cli"].cli_main

        def traced_cli(argv=None):
            return self.call(f"cli.{argv[0]}", cli_main, (argv,), {})
        self._replace(cli_main, traced_cli)

        generate = modules["posetkit.build"].generate_small

        def traced_generate(*args, **kwargs):
            name = "build.exhaustive" if kwargs.get("exhaustive") else "build.random"
            items = generate(*args, **kwargs)

            def stream():
                while True:
                    try:
                        item = self.call(name, next, (items,), {}, lambda _: 1)
                    except StopIteration:
                        return
                    yield item
            return stream()
        self._replace(generate, traced_generate)

        as_poset = DMLattice.as_poset
        DMLattice.as_poset = self._wrap("completion.as_poset", as_poset)
        self._undo.append((DMLattice, "as_poset", as_poset))
        for prop, check in list(PROPERTIES.items()):
            PROPERTIES[prop] = self._wrap(f"checks.{prop}", check)
            self._undo.append((PROPERTIES, prop, check))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _covered_commands(self) -> dict[int, float]:
        """cli span id -> seconds of it covered by library spans: its
        children on its own thread and the outermost spans of other threads
        (``check``'s pool workers) that ran inside it.  There is one caller,
        so a worker span belongs to the command that was open when it
        began."""
        commands = sorted((s for s in self.spans if s.name.startswith("cli.")),
                          key=lambda s: s.start)
        starts = [c.start for c in commands]
        pieces: dict[int, list] = defaultdict(list)
        by_id = {c.id: c for c in commands}
        for span in self.spans:
            if span.parent in by_id:
                pieces[span.parent].append((span.start, span.end))
            elif span.parent is None and not span.name.startswith("cli."):
                k = bisect.bisect_right(starts, span.start) - 1
                if k >= 0 and commands[k].thread != span.thread:
                    command = commands[k]
                    if span.start < command.end:
                        pieces[command.id].append((span.start, min(span.end, command.end)))
        covered = {}
        for cid, intervals in pieces.items():
            total, reach = 0.0, float("-inf")
            for start, end in sorted(intervals):
                start = max(start, reach)
                if end > start:
                    total += end - start
                    reach = end
            covered[cid] = total
        return covered

    def totals(self) -> dict:
        """(phase, span name) -> seconds of self time, seconds inclusive,
        calls, summed counts and calls that raised.  The self time of a cli
        command leaves out the worker threads' spans as well as its own
        children (see ``_covered_commands``)."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        covered.update(self._covered_commands())
        out: dict = defaultdict(lambda: [0.0, 0.0, 0, 0, 0])
        for span in self.spans:
            row = out[(span.phase, span.name)]
            total = span.end - span.start
            row[0] += total - covered[span.id]
            row[1] += total
            row[2] += 1
            row[3] += span.count
            row[4] += span.raised
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
