"""Malformed input ends as BadSpec or InvalidEncoding (CLI exit 3), never as
another exception: spec text, length:hex tokens and --hidden arguments."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsplab.cli import parse_hidden
from hsplab.core import GroupElement, GroupSpec, make_group
from hsplab.errors import BadSpec, InvalidEncoding
from hsplab.specfile import parse_group_spec

ALLOWED = (BadSpec, InvalidEncoding)
KINDS = ["permutation", "gf2matrix", "affinegf2", "wreath", "extraspecial", "abelian", "product"]
KEYS = ["degree", "gen", "dim", "k", "block", "trans", "p", "variant", "moduli", "part"]

# Small integers (a huge degree would allocate its image list), bitstrings,
# cycles and free text.
values = st.one_of(
    st.integers(-3, 70).map(str),
    st.text("01 ", max_size=12),
    st.text("()0123456789 e", max_size=12),
    st.text(max_size=12),
)
lines = st.one_of(
    st.tuples(st.sampled_from(KEYS), values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)
spec_texts = st.one_of(
    st.tuples(st.sampled_from(KINDS), st.lists(lines, max_size=5)).map(
        lambda t: "\n".join([f"kind = {t[0]}"] + t[1])
    ),
    st.text(max_size=60),
)
tokens = st.one_of(
    st.tuples(st.text("0123456789-+ ", max_size=4), st.text("0123456789abcdefxz-", max_size=6)).map(
        lambda t: f"{t[0]}:{t[1]}"
    ),
    st.text(max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(spec_texts)
def test_parse_group_spec_raises_only_bad_spec(text):
    try:
        parse_group_spec(text)
    except ALLOWED:
        pass


@settings(max_examples=300, deadline=None)
@given(tokens)
def test_from_hex_raises_only_invalid_encoding(text):
    try:
        element = GroupElement.from_hex(text)
    except ALLOWED:
        return
    assert len(element.bits) == int(text.partition(":")[0])
    assert GroupElement.from_hex(element.hex) == element


@settings(max_examples=300, deadline=None)
@given(st.lists(tokens, max_size=3).map(",".join).filter(lambda s: not s.startswith("@")))
def test_parse_hidden_raises_only_spec_errors(text):
    G = make_group(GroupSpec(kind="abelian", moduli=[4, 6]))
    try:
        parse_hidden(G, text, Path("."))
    except ALLOWED:
        pass


@pytest.mark.parametrize(
    "text",
    [
        "kind = abelian\nmoduli = four\n",
        "kind = permutation\ndegree = eight\n",
        "kind = permutation\ndegree = 3\ngen = (1 x)\n",
        "kind = wreath\nk = 2.5\n",
        "kind = extraspecial\np = \n",
        "kind = gf2matrix\ndim = two\n",
        "kind = affinegf2\nk = -\n",
    ],
)
def test_non_integer_fields_are_bad_specs(text):
    with pytest.raises(BadSpec):
        parse_group_spec(text)


@pytest.mark.parametrize("text", ["5:zz", "x:1", ":1", "0:0", "-3:1", "3:ff", "5:-8", "99999999:1"])
def test_bad_hex_tokens_are_invalid_encodings(text):
    with pytest.raises(InvalidEncoding):
        GroupElement.from_hex(text)
