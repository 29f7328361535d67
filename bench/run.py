"""Run one posetkit benchmark workload, check its outputs, print its metrics.

    python3 bench/run.py --workload cli --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, a table
    python3 bench/run.py --short                      # every workload in seconds

The load is one closed loop with one caller on one thread: each operation
waits for the one before.  A run repeats whole rounds of the workload's
operations until ``--seconds`` have passed and at least MIN_ROUNDS
rounds are done.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_STARTS = 15
# Rounds a run makes at least, so that each op's fastest time is taken
# over several passes.
MIN_ROUNDS = 5
SUBCOMMANDS = ("check", "complete", "residuate", "greechie", "hsum", "corpus", "export")


class BenchError(Exception):
    pass


def load_posetkit() -> None:
    """Import posetkit from this checkout's sources, never from elsewhere."""
    package = SRC / "posetkit"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no posetkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import posetkit
    if Path(posetkit.__file__).resolve().parent != package.resolve():
        raise BenchError(f"posetkit imported from {posetkit.__file__}, not {package}")


def run_seconds() -> int:
    """The run length the benchmark is defined with."""
    if not BENCHMARK.is_file():
        raise BenchError(f"no {BENCHMARK.name} at {ROOT}")
    return json.loads(BENCHMARK.read_text())["run_seconds"]


class SetupStarts:
    """Fresh starts of the workload, timed from launch to its first
    possible operation.  The interpreter runs isolated from the
    environment and keeps posetkit's bytecode in a cache of its own, as an
    installed package would; the first start fills that cache and is not
    counted.  Starts are spread between rounds, and each figure is the
    fastest start's: as with the ops, load from other processes only ever
    adds time."""

    def __init__(self, workload: str, seed: int, short: bool):
        BUILD.mkdir(exist_ok=True)
        self.cmd = [sys.executable, "-I", "-X", f"pycache_prefix={BUILD / 'pycache'}",
                    str(HERE / "setup_probe.py"), workload, str(seed)]
        self.cmd += ["--short"] if short else []
        self.results: list[dict] = []
        self._start()

    def _start(self) -> dict:
        began = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - began
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise BenchError("a set-up start did not exit") from None
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up start failed: {err.strip()[-500:]}")
        return dict(json.loads(line), ready_s=ready)

    def take(self, wanted: int) -> None:
        """One more counted start, if fewer than ``wanted`` are in."""
        if len(self.results) < wanted:
            self.results.append(self._start())

    def fastest(self, field: str) -> float:
        return min(r[field] for r in self.results)


class Tally:
    """Whole rounds of a workload's operations.  Every op's latency is
    kept as its fastest over the rounds, and each step of the round's own
    program work (input generation) likewise: interference from other
    processes on the machine only ever adds time."""

    def __init__(self, memo: dict):
        self.memo = memo
        self.rounds = 0
        self.steps: dict = {}
        self.best: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    @property
    def wall(self) -> float:
        """The fixed work of one round, each part at its fastest."""
        return sum(self.steps.values()) + sum(self.best.values())

    def judge(self, op, output) -> str | None:
        """Check an output fully the first time an op runs; afterwards the
        output must equal the first one (the program is deterministic)."""
        digest = op.digest(output)
        seen = self.memo.get(op.key)
        if seen is None:
            problem = op.check(output)
            self.memo[op.key] = (digest, problem)
            return problem
        if seen[0] != digest:
            return "output differs from the first round's"
        return seen[1]

    def run_round(self, workload) -> None:
        gc.collect()
        for op in workload.round_ops(self._lap):
            began = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                elapsed = time.perf_counter() - began
                self._record(op, elapsed, f"raised {type(exc).__name__}: {exc}", False)
            else:
                elapsed = time.perf_counter() - began
                self._record(op, elapsed, self.judge(op, output), True)
        self.rounds += 1

    def _lap(self, key, elapsed: float) -> None:
        self.steps[key] = min(self.steps.get(key, elapsed), elapsed)

    def _record(self, op, elapsed, problem, returned) -> None:
        self.best[op.key] = min(self.best.get(op.key, elapsed), elapsed)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.wrong += returned
            if len(self.problems) < 20:
                self.problems.append(f"{op.key}: {problem}")


def layer_metrics(totals: dict, rounds: int, starts: SetupStarts, overhead: float) -> dict:
    """Per-layer figures for set-up plus one round: set-up spans count
    once, round spans are averaged over the traced rounds.  Times are self
    times (a span less its children on the same thread), except the
    cli.<subcommand> times, which are whole commands."""
    SELF, WHOLE, CALLS, COUNT, RAISED = range(5)

    def pick(name, field):
        value = totals.get(("setup", name), [0] * 5)[field]
        return value + totals.get(("round", name), [0] * 5)[field] / rounds

    def ms(*names, field=SELF):
        return 1000 * sum(pick(name, field) for name in names)

    from workloads import PROPS
    out = {
        "setup.import_ms": (1000 * starts.fastest("import_s"), "ms"),
        "setup.inputs_ms": (1000 * starts.fastest("inputs_s"), "ms"),
        "formats.parse_ms": (ms("formats.parse"), "ms"),
        "formats.serialize_ms": (ms("formats.serialize"), "ms"),
        "poset.build_ms": (ms("poset.build"), "ms"),
        "poset.build_calls": (pick("poset.build", CALLS), "count"),
        "build.exhaustive_ms": (ms("build.exhaustive"), "ms"),
        "build.random_ms": (ms("build.random"), "ms"),
        "build.posets_generated": (pick("build.exhaustive", COUNT)
                                   + pick("build.random", COUNT), "count"),
        "build.greechie_ms": (ms("build.greechie"), "ms"),
        "build.hsum_ms": (ms("build.hsum"), "ms"),
        "completion.complete_ms": (ms("completion.complete"), "ms"),
        "completion.as_poset_ms": (ms("completion.as_poset"), "ms"),
        "completion.calls": (pick("completion.complete", CALLS), "count"),
        "completion.closed_sets": (pick("completion.complete", COUNT), "count"),
    }
    closed = out["completion.closed_sets"][0]
    out["completion.us_per_closed_set"] = (
        1000 * out["completion.complete_ms"][0] / closed if closed else 0.0, "us")
    checks = [f"checks.{prop}" for prop in PROPS]
    for name in checks:
        out[f"{name}_ms"] = (ms(name), "ms")
    calls = sum(pick(name, CALLS) for name in checks)
    skipped = sum(pick(name, RAISED) for name in checks)
    out["checks.completed"] = (calls - skipped, "count")
    out["checks.skipped"] = (skipped, "count")
    out["checks.useful_share"] = ((calls - skipped) / calls if calls else 0.0, "share")
    for stem in ("operator", "star_on_dm", "bdm_transform", "verify_lattice"):
        out[f"residuation.{stem}_ms"] = (ms(f"residuation.{stem}"), "ms")
    out["corpus.verify_member_ms"] = (ms("corpus.verify_member"), "ms")
    commands = [f"cli.{sub}" for sub in SUBCOMMANDS]
    for name in commands:
        out[f"{name}_ms"] = (ms(name, field=WHOLE), "ms")
    out["cli.self_ms"] = (ms(*commands), "ms")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def run(args) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.short)
    starts = SetupStarts(args.workload, args.seed, args.short)
    wanted = 3 if args.trace or args.short else SETUP_STARTS
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    if tracer:
        tracer.uninstall()
    memo: dict = {}
    plain, traced = Tally(memo), Tally(memo)
    least = 2 if args.short else MIN_ROUNDS
    try:
        began = time.perf_counter()
        if not tracer:
            while plain.rounds < least or time.perf_counter() - began < args.seconds:
                plain.run_round(workload)
                starts.take(wanted)
        else:
            # untraced rounds for the first half, traced rounds after
            while plain.rounds < 2 or time.perf_counter() - began < args.seconds / 2:
                plain.run_round(workload)
                starts.take(wanted)
            tracer.phase = "round"
            tracer.install()
            try:
                while traced.rounds < 2 or time.perf_counter() - began < args.seconds:
                    traced.run_round(workload)
            finally:
                tracer.uninstall()
        while len(starts.results) < wanted:
            starts.take(wanted)
    finally:
        workload.close()

    tallies = (plain, traced)
    for problem in plain.problems + traced.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    if tracer:
        BUILD.mkdir(exist_ok=True)
        tracer.write(BUILD / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(tracer.totals(), traced.rounds, starts,
                                traced.wall - plain.wall)
    else:
        best = [1000 * x for x in plain.best.values()]
        beyond = len(best) - 1 - int((len(best) - 1) * workload.tail_pct / 100)
        metrics = {
            "wall_s": (plain.wall, "s"),
            "op_p50_ms": (statistics.median(best), "ms"),
            "op_tail_ms": (statistics.quantiles(best, n=200, method="inclusive")
                           [round(2 * workload.tail_pct) - 1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (starts.fastest("ready_s"), "s"),
        }
        print(f"{args.workload}: {plain.rounds} rounds of {len(best)} ops; op_tail_ms "
              f"is p{workload.tail_pct:g}, {beyond} ops beyond it")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>20} {name:<34} {value:>14.4f} {unit}")
    print(f"{args.workload:>20} attempted {attempted}, failed {failed}")
    return {"correct": not any(t.wrong for t in tallies), "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in a process of its own, so peak memory is its own."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--short"] if args.short else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="cli, library or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run (default: run_seconds of "
                             "BENCHMARK.json, or 0 with --short)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small inputs and two rounds, for a quick end-to-end pass")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = 0 if args.short else run_seconds()
        load_posetkit()
        from workloads import WORKLOADS
        if args.workload == "all":
            return run_all(args)
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
