"""Document parsing, serialization, Greechie text, and DOT export."""

import pytest

from posetkit import (
    ParseError,
    PosetError,
    build_poset,
    complete,
    export_dot,
    labeled_equal,
    parse_greechie,
    parse_poset,
    parse_poset_document,
    serialize_greechie,
    serialize_poset,
)
from posetkit.corpus import bundled_text, load
from posetkit.formats import FORMAT_VERSION


# ---------------------------------------------------------------- documents

def test_minimal_document():
    poset = parse_poset("elements: 0 1\ncovers: 0<1\n")
    assert poset.names == ("0", "1")
    assert poset.leq(0, 1)
    assert poset.inv is None
    doc = parse_poset_document("elements: 0 1\ncovers: 0<1\n")
    assert doc.version == FORMAT_VERSION  # format line is optional
    assert doc.metadata == ()


def test_comments_and_blank_lines_are_ignored():
    text = """
# two-element chain
format: 1

elements: 0 1   # carrier
covers: 0<1
involution: 0:1
"""
    poset = parse_poset(text)
    assert poset.n == 2
    assert poset.inv == (1, 0)


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig2"])
def test_plain_round_trip_on_bundled_documents(name):
    _, text = bundled_text(name)
    first = parse_poset(text)
    again = parse_poset(serialize_poset(first))
    assert labeled_equal(first, again)


@pytest.mark.parametrize("member", ["benzene", "mo2", "ba8", "diamond"])
def test_json_round_trip_on_builders(member):
    poset = load(member)
    text = serialize_poset(poset, style="json")
    assert text.lstrip().startswith("{")
    again = parse_poset(text)
    assert labeled_equal(poset, again)


def test_metadata_round_trips_in_both_styles():
    poset = load("chain2")
    meta = {"name": "chain2", "note": "bounded"}
    plain = parse_poset_document(serialize_poset(poset, metadata=meta))
    assert dict(plain.metadata) == meta
    packed = parse_poset_document(serialize_poset(poset, metadata=meta,
                                                  style="json"))
    assert dict(packed.metadata) == meta


def test_long_documents_are_chunked_and_still_parse():
    poset = load("ba16")
    text = serialize_poset(poset)
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("elements: ")) == 2
    assert sum(1 for l in lines if l.startswith("covers: ")) > 1
    assert labeled_equal(poset, parse_poset(text))


def test_document_build_rejects_bad_structure():
    # parsing succeeds, the poset constructor then flags the unknown name
    doc = parse_poset_document("elements: 0 1\ncovers: 0<x\n")
    with pytest.raises(PosetError):
        doc.build()


# ----------------------------------------------------------- parse failures

def _position(exc: ParseError) -> tuple:
    return exc.line, exc.column


def test_duplicate_element_position():
    with pytest.raises(ParseError) as info:
        parse_poset("elements: 0 a\nelements: a 1\n")
    assert "duplicate" in str(info.value)
    assert _position(info.value) == (2, 11)


def test_bad_cover_token_position():
    with pytest.raises(ParseError) as info:
        parse_poset("elements: 0 1\ncovers: 0-1\n")
    assert "expected 'a<b'" in str(info.value)
    assert _position(info.value) == (2, 9)


def test_bad_involution_token():
    with pytest.raises(ParseError) as info:
        parse_poset("elements: 0 1\ncovers: 0<1\ninvolution: 0\n")
    assert "expected 'x:y'" in str(info.value)
    assert _position(info.value) == (3, 13)


def test_bad_meta_token():
    with pytest.raises(ParseError) as info:
        parse_poset("meta: note\nelements: 0 1\ncovers: 0<1\n")
    assert "expected 'key=value'" in str(info.value)


def test_unknown_section_position():
    with pytest.raises(ParseError) as info:
        parse_poset("elements: 0 1\nstuff: x\n")
    assert "unknown section" in str(info.value)
    assert _position(info.value) == (2, 1)


@pytest.mark.parametrize("version", ["2", "²", "١", "1.0", "01x", ""])
def test_plain_format_must_be_ascii_one(version):
    # '²' and '١' are digits to str.isdigit, and int() takes '١' as 1
    with pytest.raises(ParseError, match="unsupported format version") as info:
        parse_poset(f"format: {version}\nelements: 0 1\ncovers: 0<1\n")
    assert _position(info.value) == (1, 8)


def test_document_without_elements():
    for text in ("# nothing but a comment\n", '{"elements": []}'):
        with pytest.raises(ParseError, match="^document declares no elements$"):
            parse_poset(text)


def test_json_decode_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_poset('{"elements": [,]}')
    assert info.value.line == 1
    assert info.value.column is not None


def test_json_version_and_shape_errors():
    with pytest.raises(ParseError, match="unsupported format version"):
        parse_poset('{"format": 2, "elements": ["0", "1"]}')
    with pytest.raises(ParseError, match="malformed JSON document"):
        parse_poset('{"elements": ["0", "1"], "covers": [["0"]]}')
    with pytest.raises(ParseError, match="duplicate element name"):
        parse_poset('{"elements": ["0", "0"]}')


@pytest.mark.parametrize("version", ["true", "1.0", '"1"', "null"])
def test_json_format_must_be_the_integer_one(version):
    with pytest.raises(ParseError, match="unsupported format version"):
        parse_poset('{"format": %s, "elements": ["0"]}' % version)


@pytest.mark.parametrize("metadata", [
    '[["k", "v"]]', '"k=v"', "null", '{"k": null}', '{"k": [1, 2]}',
    '{"k": 1}', '{"k": "v", "j": false}',
])
def test_json_metadata_must_be_an_object_of_strings(metadata):
    with pytest.raises(ParseError, match="'metadata' must be an object of JSON strings"):
        parse_poset_document('{"elements": ["0"], "metadata": %s}' % metadata)


def test_json_metadata_keeps_its_strings():
    doc = parse_poset_document('{"format": 1, "elements": ["0"], '
                               '"metadata": {"k": "v", "j": ""}}')
    assert doc.metadata == (("k", "v"), ("j", ""))


def test_json_strings_are_not_arrays():
    for text in ('{"elements": "01", "covers": [["0", "1"]]}',
                 '{"elements": ["0", "1"], "covers": ["01"]}',
                 '{"elements": ["0", "1"], "covers": "01"}',
                 '{"elements": ["0", "1"], "involution": ["01"]}',
                 '{"elements": ["0", "1"], "involution": [["0", "1", "0"]]}'):
        with pytest.raises(ParseError, match="malformed JSON document"):
            parse_poset(text)


def test_json_element_names_must_be_strings():
    with pytest.raises(ParseError, match="'elements' must name elements by JSON strings"):
        parse_poset('{"elements": [["0"], null, 1.5], '
                    '"covers": [[["0"], null], [null, 1.5]]}')
    for text in ('{"elements": ["0", 1], "covers": [["0", "1"]]}',
                 '{"elements": ["0", "1"], "covers": [["0", 1]]}',
                 '{"elements": ["0", "1"], "involution": [["0", null]]}',
                 '{"elements": ["0", "1"], "involution": [[false, "1"]]}'):
        with pytest.raises(ParseError, match="must name elements by JSON strings"):
            parse_poset(text)


# ------------------------------------------------------ serialization guards

def test_plain_style_rejects_reserved_characters():
    poset = build_poset(("0", "a b", "1"),
                        [("0", "a b"), ("a b", "1")], mode="covers")
    with pytest.raises(PosetError, match="cannot appear"):
        serialize_poset(poset)
    # the JSON style has no such restriction
    assert labeled_equal(poset, parse_poset(serialize_poset(poset,
                                                            style="json")))


@pytest.mark.parametrize("text, message, position", [
    ("elements: 0 a=b 1\n", "'a=b' holds the reserved character '='", (1, 13)),
    ("elements: 0 a<b:c 1\n", "'a<b:c' holds the reserved character '<'", (1, 13)),
    ("elements:\t0 a 1\n", "'\\t0' holds the reserved character '\\t'", (1, 10)),
    ("elements: 0 1\ncovers: 0<1\tx\n", "'0<1\\tx' holds the reserved character '\\t'", (2, 9)),
    ("elements: 0 1\nmeta: a=\tb\n", "'a=\\tb' holds the reserved character '\\t'", (2, 7)),
    ("atoms: a b:c\nblock: a\n", "'b:c' holds the reserved character ':'", (1, 10)),
    ("atoms:\ta b c\nblock: a b c\n", "'\\ta' holds the reserved character '\\t'", (1, 7)),
    ("atoms: a b c\nblock: a\tb c\n", "'a\\tb' holds the reserved character '\\t'", (2, 8)),
])
def test_parsers_refuse_reserved_names_and_tabs(text, message, position):
    """A name the plain style could not write back, or a tab in any entry
    list, is refused at its token."""
    parse = parse_greechie if text.startswith("atoms") else parse_poset
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).startswith(message)
    assert _position(info.value) == position


def test_unknown_style_is_rejected():
    with pytest.raises(PosetError, match="unknown serialization style"):
        serialize_poset(load("chain2"), style="yaml")


# ------------------------------------------------------------------ greechie

def test_greechie_round_trip():
    _, text = bundled_text("fig3")
    diagram = parse_greechie(text)
    assert diagram.atoms == ("s", "t", "u", "v", "w", "x", "y", "z")
    assert len(diagram.blocks) == 4
    again = parse_greechie(serialize_greechie(diagram))
    assert again == diagram


def test_greechie_parse_errors():
    with pytest.raises(ParseError) as info:
        parse_greechie("atoms: a a\n")
    assert "duplicate atom" in str(info.value)
    assert _position(info.value) == (1, 10)

    with pytest.raises(ParseError) as info:
        parse_greechie("atoms: a b\nblock: a a\n")
    assert "repeated in block" in str(info.value)
    assert _position(info.value) == (2, 10)

    with pytest.raises(ParseError) as info:
        parse_greechie("atoms: a\nblock:\n")
    assert "empty block" in str(info.value)
    assert _position(info.value) == (2, 7)

    with pytest.raises(ParseError) as info:
        parse_greechie("atoms: a b\nblock: a c\n")
    assert "unknown atom 'c'" in str(info.value)
    assert _position(info.value) == (2, 10)

    with pytest.raises(ParseError) as info:
        parse_greechie("stuff: x\n")
    assert "unknown section" in str(info.value)
    assert _position(info.value) == (1, 1)

    with pytest.raises(ParseError) as info:
        parse_greechie("just words\n")
    assert "expected 'atoms:" in str(info.value)
    assert _position(info.value) == (1, 1)


# ----------------------------------------------------------------------- dot

def test_dot_export_of_two_chain_is_exact():
    expected = ('digraph poset {\n'
                '  rankdir=BT;\n'
                '  "0";\n'
                '  "1";\n'
                '  "0" -> "1";\n'
                '}\n')
    assert export_dot(load("chain2")) == expected


def test_dot_export_counts_match_the_poset():
    poset = load("fig2")
    lines = export_dot(poset).splitlines()
    edges = [l for l in lines if " -> " in l]
    nodes = [l for l in lines if l.endswith('";') and l not in edges]
    assert len(nodes) == poset.n == 14
    assert len(edges) == len(poset.cover_pairs())


def test_dot_export_accepts_completions():
    lattice = complete(load("fig3"))
    lines = export_dot(lattice.as_poset()).splitlines()
    assert sum(1 for l in lines
               if l.endswith('";') and " -> " not in l) == 20


def test_dot_export_escapes_quotes():
    poset = build_poset(('0', 'x"y', '1'),
                        [('0', 'x"y'), ('x"y', '1')], mode="covers")
    assert '  "x\\"y";' in export_dot(poset)
