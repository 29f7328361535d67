"""End-to-end runs of the command line interface via cli_main."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetkit
from posetkit import (
    InternalError,
    checks,
    labeled_equal,
    parse_poset,
    parse_poset_document,
    serialize_poset,
)
from posetkit import poset as poset_module
from posetkit.cli import cli_main
from posetkit.corpus import boolean_algebra, load


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "posetkit 0.1.0" in out


# --------------------------------------------------------------------- check

def test_check_single_property_failure(capsys):
    code, out, _ = run(capsys, "check", "fig3",
                       "--property", "pseudo-orthomodular")
    assert code == 1
    assert "check: pseudo-orthomodular fail" in out
    assert "witness[" in out


def test_check_single_property_pass(capsys):
    code, out, _ = run(capsys, "check", "fig3",
                       "--property", "orthomodular-poset")
    assert code == 0
    assert "check: orthomodular-poset pass" in out


def test_check_member_profile(capsys):
    code, out, _ = run(capsys, "check", "fig2", "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tool: posetkit 0.1.0 report-format 1"
    assert lines[1].startswith("input: fig2 sha256:")
    assert lines[-1].startswith("time-ms:")
    assert "profile: ok" in lines
    # lattice-only checks cannot run on fig2 and are reported as skips
    assert any(line.startswith("skip: ") for line in lines)


def test_check_raw_file_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "ba8.poset"
    good.write_text(serialize_poset(load("ba8")))
    code, out, _ = run(capsys, "check", str(good))
    assert code == 0
    assert "profile:" not in out  # profiles apply to bundled members only

    bad = tmp_path / "benzene.poset"
    bad.write_text(serialize_poset(load("benzene")))
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "check: strongly-d-continuous fail" in out


def test_check_requested_property_with_failed_precondition(capsys):
    code, out, _ = run(capsys, "check", "diamond",
                       "--property", "orthomodular-lattice")
    assert code == 1
    assert "check: orthomodular-lattice fail" in out
    assert "precondition failed" in out


def test_check_respects_completion_cap(capsys):
    code, out, _ = run(capsys, "check", "ba16",
                       "--property", "completion-orthomodular",
                       "--max-closed-sets", "10")
    assert code == 1
    assert "precondition failed" in out


def test_hit_cap_is_computed_once_per_check(capsys, monkeypatch):
    calls = []
    real = checks.complete

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "complete", counting)
    code, out, _ = run(capsys, "check", "ba16", "--max-closed-sets", "10")
    assert code == 1
    assert len(calls) == 1
    skips = [line for line in out.splitlines() if line.startswith("skip:")]
    assert skips == [
        f"skip: {name} - more than 10 closed sets; raise max_closed_sets"
        for name in ("strongly-d-continuous", "finch", "completion-orthomodular",
                     "completion-distributive", "completion-modular")]


def test_complementation_is_computed_once_per_check(capsys, monkeypatch):
    real = {name: getattr(poset_module, name)
            for name in ("_antitone_report", "_complementation_report")}
    computed = {name: [] for name in real}
    for name in real:
        def counting(poset, name=name):
            computed[name].append(poset)
            return real[name](poset)
        monkeypatch.setattr(poset_module, name, counting)
    code, out, _ = run(capsys, "check", "fig3")
    assert code == 0 and "check: complementation pass" in out
    # loading fig3 checks its orthomodularity, which computes both
    # reports; every property and the completion reuse them
    assert len(computed["_complementation_report"]) == 1
    assert computed["_antitone_report"] == computed["_complementation_report"]
    fig3 = computed["_complementation_report"][0]
    assert poset_module.is_complementation(fig3) == real["_complementation_report"](fig3)
    assert poset_module.is_antitone_involution(fig3) == real["_antitone_report"](fig3)


# Breaks the dual distributivity form, so the two forms disagree on mo2.
_BREAK_DISTRIBUTIVITY = """
from posetkit import checks
real = checks._distributive_violation
checks._distributive_violation = lambda poset, dual: None if dual else real(poset, dual)
"""


def test_broken_invariant_is_an_internal_error(capsys, monkeypatch):
    real = checks._distributive_violation
    monkeypatch.setattr(checks, "_distributive_violation",
                        lambda poset, dual: None if dual else real(poset, dual))
    with pytest.raises(InternalError, match="distributivity identities must agree"):
        checks.is_distributive_poset(load("mo2"))
    code, out, err = run(capsys, "check", "mo2", "--property", "distributive")
    assert (code, out) == (4, "")
    assert err == ("posetkit: internal error: "
                   "the two distributivity identities must agree\n")
    # the same breakage with asserts stripped out
    src = str(Path(posetkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = _BREAK_DISTRIBUTIVITY + (
        "from posetkit.cli import cli_main\n"
        "raise SystemExit(cli_main(['check', 'mo2', '--property', 'distributive']))\n")
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (4, "")
    assert "internal error: the two distributivity" in done.stderr


def test_check_usage_errors(capsys):
    code, _, err = run(capsys, "check", "fig2", "--all",
                       "--property", "boolean")
    assert code == 2
    assert "mutually exclusive" in err

    code, _, err = run(capsys, "check", "no-such-member")
    assert code == 2
    assert "neither a bundled member nor a file" in err


def test_check_rejects_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.poset"
    path.write_text("elements: 0 0\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert "parse error" in err


def test_check_report_is_deterministic(capsys):
    def stripped():
        code, out, _ = run(capsys, "check", "fig1b", "--all")
        assert code == 0
        return [l for l in out.splitlines() if not l.startswith("time-ms:")]

    assert stripped() == stripped()


# ------------------------------------------------------------------ complete

def test_complete_writes_document_to_stdout(capsys):
    code, out, err = run(capsys, "complete", "fig3")
    assert code == 0
    assert "complete: fig3 has 20 closed sets" in err
    doc = parse_poset_document(out)
    assert len(doc.names) == 20
    meta = dict(doc.metadata)
    assert meta["completion-of"] == "fig3"
    assert meta["closed-sets"] == "20"


def test_complete_writes_document_to_file(capsys, tmp_path):
    target = tmp_path / "fig1a-dm.poset"
    code, out, _ = run(capsys, "complete", "fig1a", "-o", str(target))
    assert code == 0
    assert "16 closed sets" in out
    assert parse_poset(target.read_text()).n == 16


def test_complete_respects_cap(capsys):
    code, _, err = run(capsys, "complete", "ba16", "--max-closed-sets", "10")
    assert code == 5
    assert err == "posetkit: size limit: more than 10 closed sets; raise max_closed_sets\n"


def test_hit_caps_exit_with_the_size_limit_code(capsys):
    code, out, err = run(capsys, "export", "fig3", "--completion",
                         "--max-closed-sets", "5")
    assert (code, out) == (5, "")
    assert err.startswith("posetkit: size limit: more than 5 closed sets")
    # the generator's cap is checked before any member is verified
    code, out, err = run(capsys, "corpus", "--generate", "5", "--seed", "1",
                         "--max-size", "14")
    assert (code, out) == (5, "")
    assert err == "posetkit: size limit: random generation is capped at 12 elements\n"


# ----------------------------------------------------------------- residuate

def test_residuate_boolean_kind_on_completion(capsys):
    code, out, _ = run(capsys, "residuate", "fig1a", "--kind", "boolean",
                       "--on-completion")
    assert code == 0
    assert "check: operator-residuation pass" in out
    assert "check: left-residuated-lattice pass" in out
    assert "residuate: residuated (commutative)" in out


def test_residuate_detects_failure(capsys):
    code, out, _ = run(capsys, "residuate", "fig3", "--kind", "pseudo_om")
    assert code == 1
    assert "check: operator-residuation fail" in out


def test_residuate_missing_pseudocomplement(capsys):
    code, out, _ = run(capsys, "residuate", "mo2", "--kind", "relpseudo")
    assert code == 1
    assert "precondition failed" in out
    assert "kind=relpseudo" in out


# ------------------------------------------------------------------ greechie

def test_greechie_bundled_diagram(capsys):
    code, out, _ = run(capsys, "greechie", "fig3")
    assert code == 0
    assert "check: greechie-diagram pass" in out
    assert "min-loop-order=4" in out


def test_greechie_rejects_non_diagram_member(capsys):
    code, _, err = run(capsys, "greechie", "fig2")
    assert code == 2
    assert "not a block diagram" in err


def test_greechie_triangle_is_invalid(capsys, tmp_path):
    path = tmp_path / "triangle.greechie"
    path.write_text("atoms: a b c d e f\n"
                    "block: a b c\nblock: c d e\nblock: e f a\n")
    code, out, _ = run(capsys, "greechie", str(path))
    assert code == 1
    assert "check: greechie-diagram fail" in out


def test_greechie_pastes_to_poset(capsys):
    code, out, err = run(capsys, "greechie", "fig3", "--to-poset")
    assert code == 0
    assert "pasted poset has 18 elements" in err
    pasted = parse_poset(out)
    assert labeled_equal(pasted, load("fig3"))


# ---------------------------------------------------------------------- hsum

def test_hsum_reconstructs_two_part_member(capsys, tmp_path):
    extra = tmp_path / "extra.poset"
    extra.write_text(serialize_poset(boolean_algebra(2, ("f", "f'"))))
    target = tmp_path / "sum.poset"
    code, out, _ = run(capsys, "hsum", "fig1b", str(extra), "-o", str(target))
    assert code == 0
    assert "hsum: 14 elements from 2 parts" in out
    assert labeled_equal(parse_poset(target.read_text()), load("fig2"))


def test_hsum_reports_name_collisions(capsys):
    code, _, err = run(capsys, "hsum", "fig1b", "ba4")
    assert code == 3
    assert "collide" in err


# -------------------------------------------------------------------- corpus

def test_corpus_single_member(capsys):
    code, out, _ = run(capsys, "corpus", "--member", "fig1a")
    assert code == 0
    assert out.splitlines() == ["corpus: fig1a ok"]


def test_corpus_generate_requires_seed(capsys):
    code, _, err = run(capsys, "corpus", "--member", "chain2", "--generate", "3")
    assert code == 2
    assert "requires --seed" in err


def test_corpus_generated_posets_satisfy_the_equivalences(capsys):
    code, out, _ = run(capsys, "corpus", "--member", "chain2",
                       "--generate", "6", "--seed", "11", "--max-size", "8")
    assert code == 0
    assert "generated: 6 complemented posets, 0 discrepancies" in out


# -------------------------------------------------------------------- export

def test_export_exact_dot(capsys):
    code, out, err = run(capsys, "export", "chain2")
    assert code == 0
    assert "export: chain2, 2 nodes" in err
    assert out == ('digraph poset {\n'
                   '  rankdir=BT;\n'
                   '  "0";\n'
                   '  "1";\n'
                   '  "0" -> "1";\n'
                   '}\n')


def test_export_completion(capsys):
    code, out, err = run(capsys, "export", "fig2", "--completion")
    assert code == 0
    assert "export: completion of fig2, 18 nodes" in err
    nodes = [l for l in out.splitlines()
             if l.endswith('";') and " -> " not in l]
    assert len(nodes) == 18
