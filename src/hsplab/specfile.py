"""Text format for group specs, one group per file.

Grammar (line oriented; '#' starts a comment, blank lines ignored):

    kind = permutation          kind = gf2matrix         kind = affinegf2
    degree = 8                  dim = 3                  k = 4
    gen = (1 2)(3 4)            gen = 110 010 001        block = 0001 1001 0100 0010
    gen = (1 2 3 4 5 6 7 8)                              trans = 1000

    kind = wreath               kind = extraspecial      kind = abelian
    k = 3                       p = 3                    moduli = 4 6
                                variant = exponent-p

    kind = product
    part = other-spec.grp       # path relative to this file

Permutation generators use 1-based cycle notation; matrix generators are
row-major bit rows separated by spaces; affine specs give the invertible
block once plus one `trans` line (a k-bit last column) per type-(b)
generator.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

from .core import GroupSpec
from .errors import BadSpec

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadSpec(f"{what} must be an integer, got {text!r}") from None


def parse_cycles(text: str, degree: int) -> list[int]:
    """1-based cycle notation to a 0-based image list; 'e' or '()' is identity."""
    images = list(range(degree))
    stripped = text.strip()
    if stripped in ("e", "()", "id"):
        return images
    if not _CYCLE_RE.search(stripped) or _CYCLE_RE.sub("", stripped).strip():
        raise BadSpec(f"bad cycle notation: {text!r}")
    for cycle in _CYCLE_RE.findall(stripped):
        points = [_int(tok, "a cycle point") for tok in cycle.split()]
        if not points:
            continue
        if any(p < 1 or p > degree for p in points) or len(set(points)) != len(points):
            raise BadSpec(f"bad cycle {cycle!r} for degree {degree}")
        for i, p in enumerate(points):
            images[points[i] - 1] = points[(i + 1) % len(points)] - 1
    return images


def format_cycles(images: list[int]) -> str:
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = images[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = images[nxt]
        if len(cycle) > 1:
            out.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(out) or "()"


def _lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadSpec(f"expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def parse_group_spec(text: str, base_dir: Optional[Path] = None) -> GroupSpec:
    return _parse(text, base_dir, ())


def _load_part(path: Path, chain: tuple[Path, ...]) -> GroupSpec:
    """The spec in `path`, a part of the product files in `chain`; a file
    that includes itself, directly or through its parts, is a BadSpec."""
    resolved = path.resolve()
    if resolved in chain:
        raise BadSpec(f"product spec includes itself: {path}")
    return _parse(path.read_text(), path.parent, chain + (resolved,))


def _parse(text: str, base_dir: Optional[Path], chain: tuple[Path, ...]) -> GroupSpec:
    pairs = _lines(text)
    if not pairs or pairs[0][0] != "kind":
        raise BadSpec("spec must start with a kind line")
    kind = pairs[0][1]
    fields = pairs[1:]

    def ints(value: str) -> list[int]:
        return [_int(tok, "a modulus") for tok in value.split()]

    if kind == "permutation":
        degree = None
        perms = []
        for key, value in fields:
            if key == "degree":
                degree = _int(value, "degree")
            elif key == "gen":
                if degree is None:
                    raise BadSpec("degree must precede generators")
                perms.append(parse_cycles(value, degree))
            else:
                raise BadSpec(f"unknown key {key!r} for permutation")
        return GroupSpec(kind="permutation", degree=degree, perms=perms)

    if kind == "gf2matrix":
        dim = None
        matrices = []
        for key, value in fields:
            if key == "dim":
                dim = _int(value, "dim")
            elif key == "gen":
                matrices.append(value.split())
            else:
                raise BadSpec(f"unknown key {key!r} for gf2matrix")
        return GroupSpec(kind="gf2matrix", dim=dim, matrices=matrices)

    if kind == "affinegf2":
        k = None
        block = None
        translations = []
        for key, value in fields:
            if key == "k":
                k = _int(value, "k")
            elif key == "block":
                block = value.split()
            elif key == "trans":
                translations.append(value)
            else:
                raise BadSpec(f"unknown key {key!r} for affinegf2")
        return GroupSpec(kind="affinegf2", k=k, block=block, translations=translations)

    if kind == "wreath":
        k = None
        for key, value in fields:
            if key == "k":
                k = _int(value, "k")
            else:
                raise BadSpec(f"unknown key {key!r} for wreath")
        return GroupSpec(kind="wreath", k=k)

    if kind == "extraspecial":
        p = None
        variant = "exponent-p"
        for key, value in fields:
            if key == "p":
                p = _int(value, "p")
            elif key == "variant":
                variant = value
            else:
                raise BadSpec(f"unknown key {key!r} for extraspecial")
        return GroupSpec(kind="extraspecial", p=p, variant=variant)

    if kind == "abelian":
        moduli = None
        for key, value in fields:
            if key == "moduli":
                moduli = ints(value)
            else:
                raise BadSpec(f"unknown key {key!r} for abelian")
        return GroupSpec(kind="abelian", moduli=moduli)

    if kind == "product":
        parts = []
        for key, value in fields:
            if key == "part":
                if base_dir is None:
                    raise BadSpec("product parts need a base directory")
                parts.append(_load_part(base_dir / value, chain))
            else:
                raise BadSpec(f"unknown key {key!r} for product")
        return GroupSpec(kind="product", parts=parts)

    raise BadSpec(f"unknown group kind {kind!r}")


def load_group_spec(path: Path) -> GroupSpec:
    path = Path(path)
    return parse_group_spec(path.read_text(), path.parent)


def format_group_spec(spec: GroupSpec) -> str:
    """Inverse of parse_group_spec for non-product specs (round-trip tested)."""
    lines = [f"kind = {spec.kind}"]
    if spec.kind == "permutation":
        lines.append(f"degree = {spec.degree}")
        for images in spec.perms or []:
            lines.append(f"gen = {format_cycles(images)}")
    elif spec.kind == "gf2matrix":
        lines.append(f"dim = {spec.dim}")
        for rows in spec.matrices or []:
            lines.append("gen = " + " ".join(rows))
    elif spec.kind == "affinegf2":
        lines.append(f"k = {spec.k}")
        lines.append("block = " + " ".join(spec.block))
        for t in spec.translations or []:
            lines.append(f"trans = {t}")
    elif spec.kind == "wreath":
        lines.append(f"k = {spec.k}")
    elif spec.kind == "extraspecial":
        lines.append(f"p = {spec.p}")
        lines.append(f"variant = {spec.variant}")
    elif spec.kind == "abelian":
        lines.append("moduli = " + " ".join(str(m) for m in spec.moduli))
    else:
        raise BadSpec(f"cannot format kind {spec.kind!r}")
    return "\n".join(lines) + "\n"
