"""Uniform result record for every property checker."""

from __future__ import annotations

from dataclasses import dataclass, field

# A witness maps a role name ("x", "pair", "subset", ...) to an element name
# or a tuple of element names.
Witness = dict[str, "str | tuple[str, ...]"]


@dataclass(frozen=True)
class CheckReport:
    name: str
    holds: bool
    witness: Witness | None = None
    details: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        # Failed checks must always carry a concrete counterexample.
        assert self.holds or self.witness is not None, f"failed check {self.name} lacks witness"

    def line(self) -> str:
        """Render one deterministic report line."""
        out = [f"check: {self.name} {'pass' if self.holds else 'fail'}"]
        if self.witness:
            parts = []
            for key, val in self.witness.items():
                if isinstance(val, tuple):
                    val = "{" + ",".join(val) + "}"
                parts.append(f"{key}={val}")
            out.append("witness[" + " ".join(parts) + "]")
        for key in sorted(self.extra):
            out.append(f"{key}={self.extra[key]}")
        if self.details:
            out.append("- " + self.details)
        return " ".join(out)
