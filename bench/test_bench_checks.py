"""Tests of the benchmark's own checks: each must reject a deliberately
wrong output, and the short mode must run every workload end to end.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import posetkit as pk  # noqa: E402

import inputs as mk  # noqa: E402
import workloads as wl  # noqa: E402
from oracle import Order, completion_problem  # noqa: E402
from run import Tally  # noqa: E402
from spans import Span, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _completion(spec):
    poset = spec.build()
    lattice = pk.complete(poset)
    return Order(spec.n, spec.covers), list(lattice.closed), list(lattice.as_poset().up)


def test_completion_check_accepts_posetkit_output():
    order, closed, up = _completion(mk.crown(4, "abc"))
    assert completion_problem(order, closed, 16, up) is None


@pytest.mark.parametrize("spec", [mk.crown(4, "abc"), mk.chain(6, "abc"),
                                  mk.boolean(3, "abc"), mk.mo(3, "abc")])
def test_completion_check_rejects_a_dropped_set(spec):
    order, closed, up = _completion(spec)
    count = len(closed)
    del closed[len(closed) // 2]
    assert "closed sets, expected" in completion_problem(order, closed, count, up)


def test_completion_check_rejects_a_set_that_is_not_closed():
    order, closed, up = _completion(mk.crown(4, "abc"))
    closed[3] |= 1 << 9  # add the top to a set below it
    assert "not closed" in completion_problem(order, closed, 16, up)


def test_completion_check_rejects_non_lectic_order():
    order, closed, up = _completion(mk.boolean(3, "abc"))
    closed[2], closed[3] = closed[3], closed[2]
    assert "lectic" in completion_problem(order, closed, 8, up)


def test_completion_check_rejects_a_repeated_set():
    order, closed, up = _completion(mk.boolean(3, "abc"))
    closed[4] = closed[3]
    assert completion_problem(order, closed, 8, up) is not None


def test_completion_check_rejects_an_order_that_is_not_inclusion():
    order, closed, up = _completion(mk.mo(3, "abc"))
    up[1] ^= 1 << 2
    assert "inclusion" in completion_problem(order, closed, 8, up)


def test_closed_forms_match_the_independent_enumeration():
    for spec, count in [(mk.chain(7, "abc"), 7), (mk.boolean(4, "abc"), 16),
                        (mk.crown(5, "abc"), 32), (mk.mo(5, "abc"), 12),
                        (mk.hsum([mk.crown(4, "abc"), mk.crown(4, "xyz")], "s"), 30)]:
        assert len(Order(spec.n, spec.covers).closed_sets()) == count


def test_greechie_spec_matches_the_pasting():
    text, spec = mk.greechie_loop(5, "abc")
    poset = pk.greechie_to_omp(pk.parse_greechie(text))
    pos = {name: i for i, name in enumerate(poset.names)}
    mine = Order(spec.n, [(pos[spec.names[a]], pos[spec.names[b]]) for a, b in spec.covers])
    assert mine.up == Order.of_poset(poset).up
    assert [pos[spec.names[j]] for j in spec.inv] == [poset.inv[pos[name]] for name in spec.names]


def test_completion_check_flags_a_flipped_verdict():
    ctx = pk.CheckContext(mk.mo(4, "abc").build())
    report = wl._completion_check_run(ctx, "completion-distributive")()
    assert wl._verdict_check(wl.MODULAR_OL.expected("completion-distributive"))(report) is None
    assert wl._verdict_check(not report.holds)(report) is not None


def test_theory_fixes_residuation_verdicts():
    assert wl.BOOLEAN.expected("boolean") and wl.BOOLEAN.expected("pseudo_om")
    assert not wl.MODULAR_OL.expected("boolean") and wl.MODULAR_OL.expected("pseudo_om")
    assert wl.CHAIN.expected("relpseudo") and not wl.NOT_OML.expected("finch")


def _cli(code, out, err=""):
    return wl.CliOutput(code, out, err)


def test_cli_checks_reject_wrong_outputs():
    assert wl.Cli._profile_ok(_cli(0, "check: lattice pass\nprofile: ok\n")) is None
    assert wl.Cli._profile_ok(_cli(1, "profile: MISMATCH x\nprofile: 1 mismatches\n"))
    good = "\n".join(f"check: {p} pass" for p in wl.PROPS) + "\n"
    check = wl.Cli._theory(wl.THEORY["ba"])
    assert check(_cli(0, good)) is None
    assert "theory" in check(_cli(1, good.replace("check: modular pass", "check: modular fail")))
    assert "exit code" in check(_cli(1, good))
    assert wl.Cli._completed("x", 20)(_cli(0, "elements: " + " a" * 19, "complete: x has 20 closed sets"))
    assert wl.Cli._member_ok("ba4")(_cli(0, "corpus: ba4 ok\n")) is None
    assert wl.Cli._member_ok("ba4")(_cli(1, "corpus: ba4 MISMATCH\n"))
    assert wl.Cli._member_ok("ba4")(_cli(0, "corpus: ba8 ok\n"))
    residuated = wl.Cli._residuated(True)
    ok = "check: operator-residuation pass\ncheck: left-residuated-lattice pass\nresiduate: left residuated\n"
    assert residuated(_cli(0, ok)) is None
    assert residuated(_cli(1, ok))
    assert residuated(_cli(0, ok.replace("lattice pass", "lattice fail")))


def test_cli_export_check_counts_nodes_and_edges():
    dot = 'digraph poset {\n  rankdir=BT;\n  "0";\n  "1";\n  "0" -> "1";\n}\n'
    check = wl.Cli._exported(2, 1)
    assert check(_cli(0, dot, "export: completion of fig2, 2 nodes")) is None
    assert check(_cli(0, dot.replace('  "0" -> "1";\n', ""), "export: completion of fig2, 2 nodes"))


def test_population_check_rejects_wrong_outputs():
    exhaustive = list(pk.generate_small(6, "complemented", exhaustive=True))
    poset = exhaustive[-1]
    verdicts = wl._verdicts_run(poset)()
    assert wl._population_check(poset, exhaustive[:-1])(verdicts) is None
    flipped = verdicts[:3] + (not verdicts[3],)
    assert "completion OML" in wl._population_check(poset, ())(flipped)
    assert "isomorphism" in wl._population_check(poset, [poset])(verdicts)
    chain = mk.chain(4, "abc").build()
    assert "not complemented" in wl._population_check(chain, ())((True,) * 4)


def test_a_changed_output_in_a_later_round_fails():
    tally = Tally({})
    answers = iter([(1, 2), (1, 2), (1, 3)])
    op = wl.Op("op", lambda: next(answers), lambda out: None, digest=lambda out: out)
    for _ in range(3):
        tally.run_round(type("W", (), {"round_ops": lambda self, lap: [op]})())
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "first round" in tally.problems[0]


def test_each_generation_step_counts_in_wall():
    workload = wl.Population(1, short=True)
    workload.setup()
    tally = Tally({})
    tally.run_round(workload)
    assert {key for key, _ in tally.steps} == {"exhaustive", "random"}
    assert tally.wall > sum(tally.best.values()) > 0


def test_a_corrupted_completion_counts_as_failed(monkeypatch):
    workload = wl.Scaling(1, short=True)
    workload.setup()
    real = pk.complete

    class Dropped:
        def __init__(self, lattice):
            self.closed = lattice.closed[:-1]
            self._lattice = lattice

        def as_poset(self):
            return self._lattice.as_poset()

    monkeypatch.setattr(pk, "complete", lambda poset: Dropped(real(poset)))
    tally = Tally({})
    tally.run_round(workload)
    assert tally.failed == tally.attempted > 0 and tally.wrong == tally.failed


def test_command_self_time_leaves_out_worker_spans():
    tracer = Tracer()
    tracer.spans = [
        Span(1, "cli.check", 0.0, 10.0, None, 1, "round"),
        Span(2, "formats.parse", 1.0, 2.0, 1, 1, "round"),
        # two pool workers side by side, one with a nested span
        Span(3, "checks.lattice", 3.0, 6.0, None, 2, "round"),
        Span(4, "completion.complete", 4.0, 5.0, 3, 2, "round"),
        Span(5, "checks.modular", 5.0, 8.0, None, 3, "round"),
        # a worker span after the command belongs to no command
        Span(6, "checks.atomic", 11.0, 12.0, None, 2, "round"),
    ]
    totals = tracer.totals()
    assert totals[("round", "cli.check")][:2] == [4.0, 10.0]
    assert totals[("round", "checks.lattice")][0] == 2.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_mode_runs_every_workload(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--short",
                           "--workload", workload, "--seed", "3", "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
