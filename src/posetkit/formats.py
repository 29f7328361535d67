"""Poset documents, Greechie diagram text, and DOT export.

The plain line format is canonical: ``elements:``, ``covers:`` (tokens
``a<b``), optional ``involution:`` (tokens ``x:x'``), optional ``meta:``
(tokens ``key=value``) and ``format:`` sections, with ``#`` comments.
A JSON document carrying the same fields is accepted as well; input
starting with ``{`` is read as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .build import GreechieDiagram
from .errors import ParseError, PosetError
from .poset import FinitePoset, build_poset

FORMAT_VERSION = 1

_RESERVED = set(" \t<:#=")


@dataclass(frozen=True)
class PosetDocument:
    names: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    involution: tuple[tuple[str, str], ...] | None = None
    metadata: tuple[tuple[str, str], ...] = ()
    version: int = FORMAT_VERSION

    def build(self) -> FinitePoset:
        return build_poset(self.names, self.covers, mode="covers",
                           involution=self.involution)


def _tokens(rest: str, offset: int):
    col = offset
    for token in rest.split(" "):
        if token:
            yield token, col + 1
        col += len(token) + 1


def parse_poset_document(text: str) -> PosetDocument:
    if text.lstrip()[:1] == "{":
        return _document_from_json(text)
    version = FORMAT_VERSION
    names: list[str] = []
    seen: set[str] = set()
    covers: list[tuple[str, str]] = []
    involution: list[tuple[str, str]] = []
    has_involution = False
    metadata: list[tuple[str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        key, sep, rest = line.partition(":")
        if not sep or key.strip() != key or " " in key:
            raise ParseError("expected 'section: entries'", line=line_no, column=1)
        offset = len(key) + 1
        if key == "format":
            value = rest.strip()
            if not (value.isascii() and value.isdigit()) or int(value) != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {value!r}",
                                 line=line_no, column=offset + 1)
            version = int(value)
        elif key == "elements":
            for token, col in _tokens(rest, offset):
                if token in seen:
                    raise ParseError(f"duplicate element name {token!r}",
                                     line=line_no, column=col)
                seen.add(token)
                names.append(token)
        elif key == "covers":
            for token, col in _tokens(rest, offset):
                low, sep2, high = token.partition("<")
                if not sep2 or not low or not high or "<" in high:
                    raise ParseError(f"expected 'a<b', got {token!r}",
                                     line=line_no, column=col)
                covers.append((low, high))
        elif key == "involution":
            has_involution = True
            for token, col in _tokens(rest, offset):
                left, sep2, right = token.partition(":")
                if not sep2 or not left or not right or ":" in right:
                    raise ParseError(f"expected 'x:y', got {token!r}",
                                     line=line_no, column=col)
                involution.append((left, right))
        elif key == "meta":
            for token, col in _tokens(rest, offset):
                name, sep2, value = token.partition("=")
                if not sep2 or not name:
                    raise ParseError(f"expected 'key=value', got {token!r}",
                                     line=line_no, column=col)
                metadata.append((name, value))
        else:
            raise ParseError(f"unknown section {key!r}", line=line_no, column=1)
    if not names:
        raise ParseError("document declares no elements")
    return PosetDocument(tuple(names), tuple(covers),
                         tuple(involution) if has_involution else None,
                         tuple(metadata), version)


def _document_from_json(text: str) -> PosetDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(data, dict):
        raise ParseError("JSON document must be an object")
    version = data.get("format", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")
    try:
        if not isinstance(data["elements"], list):
            raise ValueError("'elements' must be an array")
        names = _json_names(data["elements"], "elements")
        covers = _json_pairs(data.get("covers", []), "covers")
        inv_data = data.get("involution")
        involution = None if inv_data is None else \
            _json_pairs(inv_data, "involution")
        metadata = data.get("metadata", {})
        if not isinstance(metadata, dict) or not all(
                isinstance(value, str) for value in metadata.values()):
            raise ValueError("'metadata' must be an object of JSON strings")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed JSON document: {exc}") from None
    if not names:
        raise ParseError("document declares no elements")
    if len(set(names)) != len(names):
        raise ParseError("duplicate element name")
    return PosetDocument(names, covers, involution, tuple(metadata.items()), version)


def _json_pairs(value, key: str) -> "tuple[tuple[str, str], ...]":
    if not isinstance(value, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in value):
        raise ValueError(f"{key!r} must be an array of 2-item arrays")
    return tuple(_json_names(pair, key) for pair in value)


def _json_names(value: list, key: str) -> "tuple[str, ...]":
    if not all(isinstance(name, str) for name in value):
        raise ValueError(f"{key!r} must name elements by JSON strings")
    return tuple(value)


def parse_poset(text: str) -> FinitePoset:
    return parse_poset_document(text).build()


def _check_serializable(name: str):
    if not name or _RESERVED & set(name):
        raise PosetError(f"element name {name!r} cannot appear in a document")


def serialize_poset(poset: FinitePoset, metadata: dict | None = None,
                    style: str = "plain") -> str:
    """Canonical document: elements in id order, covers sorted by name."""
    covers = sorted((poset.names[i], poset.names[j])
                    for i, j in poset.cover_pairs())
    if style == "json":
        payload: dict = {"format": FORMAT_VERSION, "elements": list(poset.names),
                         "covers": [list(pair) for pair in covers]}
        if poset.inv is not None:
            payload["involution"] = [[poset.names[i], poset.names[poset.inv[i]]]
                                     for i in range(poset.n) if i <= poset.inv[i]]
        if metadata:
            payload["metadata"] = dict(metadata)
        return json.dumps(payload, indent=2, sort_keys=False, ensure_ascii=False) + "\n"
    if style != "plain":
        raise PosetError(f"unknown serialization style {style!r}")
    for name in poset.names:
        _check_serializable(name)
    lines = [f"format: {FORMAT_VERSION}"]
    for key, value in sorted((metadata or {}).items()):
        lines.append(f"meta: {key}={value}")
    for chunk in _chunks(list(poset.names), 12):
        lines.append("elements: " + " ".join(chunk))
    for chunk in _chunks([f"{a}<{b}" for a, b in covers], 10):
        lines.append("covers: " + " ".join(chunk))
    if poset.inv is not None:
        pairs = sorted((poset.names[i], poset.names[poset.inv[i]])
                       for i in range(poset.n) if i <= poset.inv[i])
        for chunk in _chunks([f"{a}:{b}" for a, b in pairs], 10):
            lines.append("involution: " + " ".join(chunk))
    return "\n".join(lines) + "\n"


def _chunks(items: list, width: int):
    for start in range(0, len(items), width):
        yield items[start:start + width]


def parse_greechie(text: str) -> GreechieDiagram:
    atoms: list[str] = []
    seen: set[str] = set()
    blocks: list[tuple[str, ...]] = []
    pending: list[tuple[tuple[str, ...], int, tuple[int, ...]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        key, sep, rest = line.partition(":")
        if not sep or key.strip() != key or " " in key:
            raise ParseError("expected 'atoms: ...' or 'block: ...'",
                             line=line_no, column=1)
        offset = len(key) + 1
        if key == "atoms":
            for token, col in _tokens(rest, offset):
                if token in seen:
                    raise ParseError(f"duplicate atom {token!r}",
                                     line=line_no, column=col)
                seen.add(token)
                atoms.append(token)
        elif key == "block":
            block: list[str] = []
            cols: list[int] = []
            for token, col in _tokens(rest, offset):
                if token in block:
                    raise ParseError(f"atom {token!r} repeated in block",
                                     line=line_no, column=col)
                block.append(token)
                cols.append(col)
            if not block:
                raise ParseError("empty block", line=line_no, column=offset + 1)
            pending.append((tuple(block), line_no, tuple(cols)))
        else:
            raise ParseError(f"unknown section {key!r}", line=line_no, column=1)
    for block, line_no, cols in pending:
        for token, col in zip(block, cols):
            if token not in seen:
                raise ParseError(f"block references unknown atom {token!r}",
                                 line=line_no, column=col)
        blocks.append(block)
    return GreechieDiagram(tuple(atoms), tuple(blocks))


def serialize_greechie(diagram: GreechieDiagram) -> str:
    lines = ["atoms: " + " ".join(diagram.atoms)]
    for block in diagram.blocks:
        lines.append("block: " + " ".join(block))
    return "\n".join(lines) + "\n"


def export_dot(poset: FinitePoset) -> str:
    """Hasse diagram as DOT text: cover edges only, bottom-up ranks,
    deterministic id order."""

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph poset {", "  rankdir=BT;"]
    for name in poset.names:
        lines.append(f"  {quote(name)};")
    for i, j in poset.cover_pairs():
        lines.append(f"  {quote(poset.names[i])} -> {quote(poset.names[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
