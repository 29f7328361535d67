"""The CLI's output pinned byte for byte, apart from ``time-ms``.

Each command in ``COMMANDS`` runs in-process through ``cli_main``; its
digest is the sha256 of its exit code, stdout and stderr, with every
``time-ms:`` line taken out.  ``tests/data/cli_digests.txt`` holds one
``<digest> <command>`` line per command.  To regenerate it after a change
that is meant to alter the output, run

    PYTHONPATH=src python tests/test_cli_digests.py --write
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from posetkit.checks import PROPERTIES
from posetkit.cli import cli_main
from posetkit.corpus import member_names
from posetkit.residuation import KINDS

DIGESTS = Path(__file__).parent / "data" / "cli_digests.txt"


def _member_commands(name: str) -> list[tuple[str, ...]]:
    out = [("check", name), ("check", name, "--max-closed-sets", "5")]
    out += [("check", name, "--property", prop) for prop in PROPERTIES]
    out += [("residuate", name, "--kind", kind, "--on-completion") for kind in KINDS]
    out += [("complete", name), ("complete", name, "--style", "json"),
            ("export", name), ("export", name, "--completion")]
    return out


COMMANDS = [argv for name in member_names() for argv in _member_commands(name)] + [
    ("greechie", "fig3", "--to-poset"),
    ("corpus",),
    ("hsum", "ba8", "mo3"),
]


def _strip_times(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("time-ms:"))


def command_digest(argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    payload = f"{code}\n{_strip_times(out.getvalue())}\0{_strip_times(err.getvalue())}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _read_digests() -> dict[str, str]:
    pinned = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, command = line.split(" ", 1)
        pinned[command] = digest
    return pinned


def test_every_command_is_pinned():
    assert sorted(_read_digests()) == sorted(" ".join(argv) for argv in COMMANDS)


def test_cli_output_matches_the_pinned_digests():
    pinned = _read_digests()
    changed = [" ".join(argv) for argv in COMMANDS
               if command_digest(argv) != pinned.get(" ".join(argv))]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("".join(f"{command_digest(argv)} {' '.join(argv)}\n"
                               for argv in COMMANDS), encoding="utf-8")
