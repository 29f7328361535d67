"""End-to-end runs of the command line interface via cli_main."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetkit
from posetkit import (
    InternalError,
    checks,
    cli,
    labeled_equal,
    parse_poset,
    parse_poset_document,
    serialize_poset,
)
from posetkit import poset as poset_module
from posetkit import residuation
from posetkit.cli import _build_parser, cli_main
from posetkit.corpus import boolean_algebra, load, member_names


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "posetkit 0.1.0" in out


# ------------------------------------------------------------ parser reuse

# Each command follows one whose arguments could leak into it through a
# parser kept for the process: an appended --member list, a usage error,
# a --property choice, the --version exit.
REUSE_SEQUENCE = (
    ("corpus", "--member", "ba4"),
    ("corpus",),
    ("corpus", "--member", "fig2"),
    ("check", "fig1a", "--property", "no-such-property"),
    ("check", "fig1a"),
    ("check", "fig2"),
    ("check", "fig2", "--property", "distributive"),
    ("check", "fig2", "--max-closed-sets", "0"),
    ("check", "fig2"),
    ("--version",),
    ("complete", "fig1b", "--style", "json"),
)


def test_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


def test_reused_parser_prints_what_a_fresh_one_prints(capsys):
    def outcome(argv):
        code, out, err = run(capsys, *argv)
        return code, [l for l in out.splitlines() if not l.startswith("time-ms:")], err

    reused = [outcome(argv) for argv in REUSE_SEQUENCE]
    fresh = []
    for argv in REUSE_SEQUENCE:
        _build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0, 1, 2, 0, 0, 0]


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


@pytest.fixture
def forged_mo2(monkeypatch):
    """mo2 with a profile that wrongly records it as Boolean."""
    import posetkit.corpus as corpus_mod

    entry = corpus_mod.get_entry("mo2")
    forged = dict(corpus_mod._ENTRIES)
    forged["mo2"] = corpus_mod.CorpusEntry(
        entry.name, entry.build, entry.description,
        dict(entry.expectations, boolean=True))
    monkeypatch.setattr(corpus_mod, "_ENTRIES", forged)


def test_check_member_profile_mismatch(capsys, forged_mo2):
    code, out, _ = run(capsys, "check", "mo2")
    assert code == 1
    assert out.splitlines()[-3:-1] == [
        "profile: MISMATCH boolean expected True, got False",
        "profile: 1 mismatches",
    ]


def test_check_member_profile_reports_skipped_checks(capsys):
    code, out, _ = run(capsys, "check", "ba16", "--max-closed-sets", "10")
    assert code == 1
    skipped = ("strongly-d-continuous", "finch", "completion-orthomodular",
               "completion-distributive", "completion-modular")
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [
        f"profile: MISMATCH {name} expected True, check was skipped"
        for name in skipped]
    assert "profile: 5 mismatches" in out


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


def test_complementation_preconditions_name_what_failed(capsys):
    code, out, _ = run(capsys, "check", "chain3")
    assert code == 0
    assert [line for line in out.splitlines() if "needs a complementation" in line] == [
        f"skip: {name} - {what} needs a complementation (L(x,x') is not {{0}})"
        for name, what in (("orthomodular-poset", "orthomodularity"),
                           ("pseudo-orthomodular", "pseudo-orthomodularity"),
                           ("strongly-d-continuous", "strong D-continuity"),
                           ("finch", "the criterion"))]
    code, out, _ = run(capsys, "check", "chain3", "--property", "pseudo-orthomodular")
    assert code == 1
    assert out.splitlines()[2] == (
        "check: pseudo-orthomodular fail witness[error=pseudo-orthomodularity needs "
        "a complementation (L(x,x') is not {0})] - precondition failed")


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


@pytest.mark.parametrize("argv, said", (
    (("check", "fig3"), "check: orthomodular-poset pass"),
    (("corpus", "--member", "fig3"), "corpus: fig3 ok"),
))
def test_orthomodular_poset_is_walked_once_per_command(capsys, monkeypatch, argv, said):
    walked = []
    real = checks._orthomodular_poset_report

    def counting(poset):
        walked.append(poset)
        return real(poset)

    monkeypatch.setattr(checks, "_orthomodular_poset_report", counting)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and said in out
    # pasting fig3 checks its orthomodularity, and the property reads the
    # report kept on the pasted poset
    assert len(walked) == 1


def test_distributivity_criterion_is_decided_once_per_form(capsys, monkeypatch):
    forms = []
    real = checks._irreducible_not_prime

    def counting(base, sets, cones, dual):
        forms.append((dual, sets is base.down))
        return real(base, sets, cones, dual)

    monkeypatch.setattr(checks, "_irreducible_not_prime", counting)
    code, out, _ = run(capsys, "check", "ba16")
    assert code == 0
    assert "check: distributive pass" in out and "check: boolean pass" in out
    # distributive decides both forms on the lattice itself, boolean reads
    # the report kept on the poset, completion-distributive decides both
    # forms again on the closed sets of the completion
    assert forms == [(False, True), (True, True), (False, False), (True, False)]


def test_cone_distributivity_is_computed_once_per_form(capsys, monkeypatch):
    forms = []
    real = checks._distributive_violation

    def counting(poset, dual):
        forms.append(dual)
        return real(poset, dual)

    monkeypatch.setattr(checks, "_distributive_violation", counting)
    code, out, _ = run(capsys, "check", "fig2")
    assert code == 0
    assert "check: distributive fail" in out and "check: boolean fail" in out
    # fig2 is no lattice, so the pair-table walks decide it; boolean reads
    # the report kept on the poset; its completion fails Birkhoff's
    # criterion, and the same walks name the witness of
    # completion-distributive
    assert forms == [False, True, False, True]


def assert_broken_invariant_exits_4(capsys, breakage, member, message, prop="distributive"):
    """The library raises InternalError, cli_main exits 4 with the
    message, and so does a ``python -O`` run of the same breakage."""
    code, out, err = run(capsys, "check", member, "--property", prop)
    assert (code, out) == (4, "")
    assert err == f"posetkit: internal error: {message}\n"
    src = str(Path(posetkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = breakage + (
        "from posetkit.cli import cli_main\n"
        f"raise SystemExit(cli_main(['check', '{member}', '--property', '{prop}']))\n")
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (4, "")
    assert f"internal error: {message}" in done.stderr


# Breaks the meet-prime form, so the two criteria disagree on mo2.
_BREAK_CRITERION = """
from posetkit import checks
real = checks._irreducible_not_prime
checks._irreducible_not_prime = (
    lambda base, sets, cones, dual: False if dual else real(base, sets, cones, dual))
"""


def test_broken_criterion_is_an_internal_error(capsys, monkeypatch):
    real = checks._irreducible_not_prime
    monkeypatch.setattr(checks, "_irreducible_not_prime",
                        lambda base, sets, cones, dual:
                        False if dual else real(base, sets, cones, dual))
    with pytest.raises(InternalError, match="join-prime and meet-prime criteria must agree"):
        checks.is_distributive_poset(load("mo2"))
    assert_broken_invariant_exits_4(capsys, _BREAK_CRITERION, "mo2",
                                    "the join-prime and meet-prime criteria must agree")


# Breaks the dual distributivity form, so the two forms disagree on fig2.
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
        checks.is_distributive_poset(load("fig2"))
    assert_broken_invariant_exits_4(capsys, _BREAK_DISTRIBUTIVITY, "fig2",
                                    "the two distributivity identities must agree")


# Makes semimodularity fail, so the walk looks for a witness on ba16,
# which is modular.
_BREAK_SEMIMODULARITY = """
from posetkit import checks
checks._semimodular = lambda lattice: False
"""


def test_semimodularity_without_a_witness_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(checks, "_semimodular", lambda lattice: False)
    with pytest.raises(InternalError, match="semimodularity and the modular law must agree"):
        checks.is_modular_lattice(load("ba16"))
    assert_broken_invariant_exits_4(capsys, _BREAK_SEMIMODULARITY, "ba16",
                                    "semimodularity and the modular law must agree",
                                    prop="modular")


def test_full_checks_of_the_corpus_build_no_lattice_tables(capsys, monkeypatch):
    contexts = []
    real = cli.run_properties
    monkeypatch.setattr(cli, "run_properties",
                        lambda ctx, names: contexts.append(ctx) or real(ctx, names))
    for name in member_names():
        code, out, _ = run(capsys, "check", name)
        assert code == 0 and "check: completion-modular" in out, name
    assert len(contexts) == len(member_names())
    for ctx in contexts:
        for lattice in (ctx.poset, ctx.dm):
            assert residuation._lattice_tables not in lattice._kept, lattice.names
    # the probe sees the tables once residuation builds them
    ctx = contexts[member_names().index("ba4")]
    residuation.bdm_transform(ctx.dm, "boolean")
    assert residuation._lattice_tables in ctx.dm._kept


def test_criterion_failure_without_a_witness_is_an_internal_error(capsys, monkeypatch):
    # both forms of the criterion fail ba16, which the walks find distributive
    monkeypatch.setattr(checks, "_irreducible_not_prime", lambda *args, **kwargs: True)
    with pytest.raises(InternalError, match="must have a witness triple"):
        checks.is_distributive_poset(load("ba16"))
    code, out, err = run(capsys, "check", "ba8", "--property", "completion-distributive")
    assert (code, out) == (4, "")
    assert "must have a witness triple" in err


_FLAG_EVERY_COLUMN = """
from posetkit import residuation
residuation._first_unadjoint_column = lambda *args: 0
"""


def test_flagged_passing_column_is_an_internal_error(capsys, monkeypatch):
    # fig1a's completion is Boolean, so the law decides boolean and no
    # column is walked; a failed law sends the walk to columns that all pass
    monkeypatch.setattr(residuation, "_law_holds", lambda *args: False)
    code, out, err = run(capsys, "residuate", "fig1a", "--kind", "boolean",
                         "--on-completion")
    assert (code, out) == (4, "")
    assert err == ("posetkit: internal error: "
                   "lattice law and Galois criterion must agree\n")
    src = str(Path(posetkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = _FLAG_EVERY_COLUMN + (
        "from posetkit.cli import cli_main\n"
        "raise SystemExit(cli_main(['residuate', 'chain3', '--kind', 'relpseudo',"
        " '--on-completion']))\n")
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (4, "")
    assert "internal error: lifted star must be residual" in done.stderr


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


# a and b have no join, so their closed set is named a∨b, like an element
CLASHING_NAMES = ("elements: 0 a b c a∨b 1\n"
                  "covers: 0<a 0<b a<c b<c a<a∨b b<a∨b c<1 a∨b<1\n")


@pytest.mark.parametrize("argv", [
    ("complete",),
    ("export", "--completion"),
    ("check", "--property", "completion-distributive"),
    ("check", "--property", "completion-orthomodular"),
    ("check", "--property", "completion-modular"),
])
def test_clashing_completion_names_are_invalid_input(capsys, tmp_path, argv):
    path = tmp_path / "clash.poset"
    path.write_text(CLASHING_NAMES, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == "posetkit: invalid input: duplicate element names\n"


def test_non_ascii_format_digit_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "squared.poset"
    path.write_text("format: ²\nelements: 0 1\ncovers: 0<1\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err == "posetkit: parse error: unsupported format version '²' (line 1, col 8)\n"


def test_data_backed_member_is_read_once(capsys, monkeypatch):
    import posetkit.corpus as corpus_mod

    reads = []
    real = corpus_mod._read_data
    monkeypatch.setattr(corpus_mod, "_read_data",
                        lambda filename: reads.append(filename) or real(filename))
    code, out, _ = run(capsys, "check", "fig3", "--property", "lattice")
    assert code == 1
    assert reads == ["fig3.greechie"]
    # the digest is still taken over the bundled text
    digest = hashlib.sha256(real("fig3.greechie").encode("utf-8")).hexdigest()
    assert f"input: fig3 sha256:{digest}" in out


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


@pytest.mark.parametrize("argv", [
    ("check", "fig3"), ("complete", "fig3"), ("residuate", "fig3", "--kind", "boolean"),
    ("corpus", "--member", "chain2"), ("export", "fig3", "--completion"),
])
# int() would take the last four as 3, 3, 30 and 3
@pytest.mark.parametrize("cap", ["0", "-5", "+5", "many", "٣", "３", "3_0", " 3 "])
def test_caps_below_one_are_usage_errors(capsys, argv, cap):
    code, out, err = run(capsys, *argv, "--max-closed-sets", cap)
    assert (code, out) == (2, "")
    assert f"argument --max-closed-sets: N must be an integer of at least 1, not {cap!r}" in err
    assert "size limit" not in err


def test_a_cap_of_one_is_accepted(capsys):
    code, out, err = run(capsys, "complete", "chain2", "--max-closed-sets", "1")
    assert (code, out) == (5, "")
    assert err.startswith("posetkit: size limit: more than 1 closed sets")


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


def test_corpus_member_respects_completion_cap(capsys):
    code, out, _ = run(capsys, "check", "fig2", "--max-closed-sets", "2")
    assert code == 1
    mismatches = [line.removeprefix("profile: MISMATCH ")
                  for line in out.splitlines() if "MISMATCH" in line]
    assert len(mismatches) == 5
    assert all(text.endswith("check was skipped") for text in mismatches)
    code, out, _ = run(capsys, "corpus", "--member", "fig2", "--max-closed-sets", "2")
    assert code == 1
    assert out.splitlines() == ["corpus: fig2 MISMATCH",
                                *(f"corpus:   fig2: {text}" for text in mismatches)]


def test_corpus_reports_the_check_mismatch_texts(capsys, forged_mo2):
    code, out, _ = run(capsys, "corpus", "--member", "mo2")
    assert code == 1
    assert out.splitlines() == [
        "corpus: mo2 MISMATCH",
        "corpus:   mo2: boolean expected True, got False",
    ]


@pytest.mark.parametrize("argv, message", [
    (("--max-size", "1"), "--max-size must be at least 2"),
    (("--generate", "-2"), "--generate must be at least 0"),
])
def test_corpus_rejects_out_of_range_generation(capsys, argv, message):
    code, out, err = run(capsys, "corpus", "--generate", "3", "--seed", "1",
                         *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("option", ["--generate", "--seed", "--max-size"])
@pytest.mark.parametrize("value", ["٣", "３", "3_0", " 3 ", "+3", "3\n", "-", ""])
def test_corpus_integer_options_take_ascii_digits_only(capsys, option, value):
    argv = {"--generate": "2", "--seed": "1", "--max-size": "6", option: value}
    code, out, err = run(capsys, "corpus", "--member", "chain2",
                         *(part for pair in argv.items() for part in pair))
    assert (code, out) == (2, "")
    assert f"argument {option}: invalid int value: {value!r}" in err


def test_corpus_seed_takes_a_minus_sign(capsys):
    code, out, _ = run(capsys, "corpus", "--member", "chain2",
                       "--generate", "2", "--seed", "-3", "--max-size", "6")
    assert code == 0
    assert "generated: 2 complemented posets, 0 discrepancies" in out


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
