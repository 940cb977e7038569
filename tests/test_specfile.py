"""Group spec grammar: parsing, formatting, round trips."""

import pytest

from hsplab.core import enumerate_closure, make_group
from hsplab.errors import BadSpec
from hsplab.specfile import (
    format_cycles,
    format_group_spec,
    load_group_spec,
    parse_cycles,
    parse_group_spec,
)


def test_parse_cycles():
    assert parse_cycles("(1 2)", 3) == [1, 0, 2]
    assert parse_cycles("(1 2 3)", 3) == [1, 2, 0]
    assert parse_cycles("(1 2)(3 4)", 4) == [1, 0, 3, 2]
    assert parse_cycles("e", 4) == [0, 1, 2, 3]
    assert parse_cycles("()", 2) == [0, 1]


def test_parse_cycles_rejects_garbage():
    with pytest.raises(BadSpec):
        parse_cycles("(1 5)", 3)
    with pytest.raises(BadSpec):
        parse_cycles("(1 1)", 3)
    with pytest.raises(BadSpec):
        parse_cycles("nonsense", 3)


def test_format_cycles_round_trip():
    for text in ["(1 2)", "(1 2 3)(4 5)", "()"]:
        images = parse_cycles(text, 6)
        assert parse_cycles(format_cycles(images), 6) == images


SPEC_TEXTS = [
    "kind = permutation\ndegree = 4\ngen = (1 2 3 4)\ngen = (1 2)\n",
    "kind = gf2matrix\ndim = 2\ngen = 11 01\n",
    "kind = affinegf2\nk = 2\nblock = 11 01\ntrans = 10\n",
    "kind = wreath\nk = 2\n",
    "kind = extraspecial\np = 3\nvariant = exponent-p\n",
    "kind = abelian\nmoduli = 4 6\n",
]


@pytest.mark.parametrize("text", SPEC_TEXTS)
def test_round_trip(text):
    spec = parse_group_spec(text)
    again = parse_group_spec(format_group_spec(spec))
    assert again == spec
    make_group(spec)  # every grammar example must actually build


def test_comments_and_blank_lines():
    spec = parse_group_spec("# leading comment\n\nkind = wreath\nk = 2  # trailing\n")
    assert spec.kind == "wreath"
    assert spec.k == 2


def test_product_spec_from_files(tmp_path):
    (tmp_path / "a.grp").write_text("kind = abelian\nmoduli = 4\n")
    (tmp_path / "b.grp").write_text("kind = permutation\ndegree = 3\ngen = (1 2 3)\n")
    (tmp_path / "prod.grp").write_text("kind = product\npart = a.grp\npart = b.grp\n")
    spec = load_group_spec(tmp_path / "prod.grp")
    G = make_group(spec)
    assert len(enumerate_closure(G, G.generators)) == 12


def test_product_spec_including_itself_rejected(tmp_path):
    (tmp_path / "a.grp").write_text("kind = product\npart = a.grp\n")
    (tmp_path / "b.grp").write_text("kind = product\npart = c.grp\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "c.grp").write_text("kind = product\npart = sub/../b.grp\n")
    for name in ("a.grp", "b.grp", "c.grp"):
        with pytest.raises(BadSpec, match="includes itself"):
            load_group_spec(tmp_path / name)
    # one part twice is a product, not a cycle
    (tmp_path / "z2.grp").write_text("kind = abelian\nmoduli = 2\n")
    (tmp_path / "twice.grp").write_text("kind = product\npart = z2.grp\npart = z2.grp\n")
    G = make_group(load_group_spec(tmp_path / "twice.grp"))
    assert len(enumerate_closure(G, G.generators)) == 4


def test_bad_specs_rejected():
    with pytest.raises(BadSpec):
        parse_group_spec("degree = 4\n")
    with pytest.raises(BadSpec):
        parse_group_spec("kind = martian\n")
    with pytest.raises(BadSpec):
        parse_group_spec("kind = permutation\ngen = (1 2)\n")  # degree after gen
    with pytest.raises(BadSpec):
        parse_group_spec("kind = wreath\nk = 2\nbogus = 1\n")
