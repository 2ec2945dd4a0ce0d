"""Text literals for spaces, sets, maps, and group elements.

The grammar is deliberately small and regular:

  spaces    line            line:x0=3        euclidean:n=2
            open:a=0:b=1    finite:[[0,1],[1,0]]
  sets      {0, 10}         {(0,0), (1,2)}
            [0,1]u[2,3]     ball((0,0),1)uball((3,0),1)
            box((0,0),(1,2))  segment((0,0),(1,1))
            ray(0, 1)       ray((0,0),(1,0))
            cloud(0.1; (0,0),(1,1))
  maps      identity        affine:a=2:b=0
            linear:[[0,-1],[1,0]]            sin-reciprocal
            arctan          arctan:anchor=3
            piecewise:knots=[0,1]:values=[0,2]:left=0:right=-1
  elements  identity:n=2    rotation:theta=0.2
            translation:v=(1,0)              scaling:lam=2:n=2
            isometry:q=[[0,-1],[1,0]]:t=(0,0)

Every parse failure raises LiteralError with the offending text.
"""

from __future__ import annotations

import ast
import functools

from .actions import GroupElement
from .induced import (Affine, ArctanOfDistance, Identity, LinearMatrix,
                      PiecewiseMonotone1D, SinReciprocal)
from .sets import ClosedSet
from .spaces import AmbientSpace


class LiteralError(ValueError):
    pass


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise LiteralError(f"cannot read {text!r}: {exc}") from exc


def parse_fields(parts):
    """['a=1', 'b=(0,0)'] -> {'a': 1, 'b': (0, 0)} via literal_eval."""
    out = {}
    for part in parts:
        if "=" not in part:
            raise LiteralError(f"expected key=value, got {part!r}")
        key, _, val = part.partition("=")
        out[key.strip()] = _literal(val.strip())
    return out


def _split_top(text: str, sep: str):
    """Split on a separator at zero bracket depth."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _shaped(kind: str):
    """Report a missing (KeyError) or misshapen (TypeError) field of a
    KIND literal as a LiteralError naming the literal."""
    def wrap(parse):
        @functools.wraps(parse)
        def checked(text, *args):
            try:
                return parse(text, *args)
            except (KeyError, TypeError) as exc:
                raise LiteralError(f"{kind} {text!r}: missing or misshapen field {exc}") from exc
        return checked
    return wrap


# ---------------------------------------------------------------------------
# spaces


@_shaped("space")
def parse_space(text: str) -> AmbientSpace:
    text = text.strip()
    head, *rest = _split_top(text, ":")
    head = head.strip()
    if head == "line":
        return AmbientSpace.line(**_expect(parse_fields(rest), "line", {"x0"}))
    if head == "euclidean":
        return AmbientSpace.euclidean(**_expect(parse_fields(rest), "euclidean", {"n", "x0"}))
    if head == "open":
        return AmbientSpace.open_interval(**_expect(parse_fields(rest), "open",
                                                    {"a", "b", "x0"}))
    if head == "finite":
        if len(rest) != 1:
            raise LiteralError("finite space needs its matrix: finite:[[0,1],[1,0]]")
        return AmbientSpace.finite(_literal(rest[0]))
    raise LiteralError(f"unknown space {text!r}")


def _expect(kw: dict, what: str, allowed: set) -> dict:
    extra = set(kw) - allowed
    if extra:
        raise LiteralError(f"{what} does not take {sorted(extra)}")
    return kw


# ---------------------------------------------------------------------------
# sets


@_shaped("set")
def parse_set(text: str, space: AmbientSpace) -> ClosedSet:
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise LiteralError(f"unbalanced point-set literal {text!r}")
        pts = _literal("(" + text[1:-1] + ",)")
        return ClosedSet.points(space, list(pts))
    if text.startswith("["):
        ivs = [_as_pair(_literal(p.strip()), "interval") for p in _split_top(text, "u")]
        return ClosedSet.intervals(space, ivs)
    if text.startswith("cloud"):
        body = _body(text, "cloud")
        res_text, _, pts_text = body.partition(";")
        if not pts_text:
            raise LiteralError("cloud needs `cloud(resolution; p1, p2, ...)`")
        pts = _literal("(" + pts_text.strip() + ",)")
        return ClosedSet.cloud(space, list(pts), float(_literal(res_text.strip())))
    for name, builder in (("ball", ClosedSet.balls), ("box", ClosedSet.boxes),
                          ("segment", ClosedSet.segments)):
        if text.startswith(name):
            items = []
            for piece in _split_top(text, "u"):
                piece = piece.strip()
                if not piece.startswith(name):
                    raise LiteralError(f"cannot mix shapes in one union: {piece!r}")
                items.append(_as_pair(_literal("(" + _body(piece, name) + ")"), name))
            return builder(space, items)
    if text.startswith("ray"):
        anchor, direction = _as_pair(_literal("(" + _body(text, "ray") + ")"), "ray")
        return ClosedSet.ray(space, anchor, direction)
    raise LiteralError(f"unknown set literal {text!r}")


def _body(text: str, name: str) -> str:
    inner = text[len(name):].strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise LiteralError(f"{name} literal needs parentheses: {text!r}")
    return inner[1:-1]


def _as_pair(v, what: str):
    if not (isinstance(v, (tuple, list)) and len(v) == 2):
        raise LiteralError(f"{what} needs exactly two parts, got {v!r}")
    return tuple(v)


# ---------------------------------------------------------------------------
# open sets (hit-and-miss constraints)


@_shaped("open set")
def parse_open_set(text: str, space: AmbientSpace):
    """`ball(c,r)uball(c2,r2)` as a union of open balls, or
    `complement(<set literal>)` for the complement of a compact."""
    from .hitmiss import OpenSetRep

    text = text.strip()
    if text.startswith("complement"):
        return OpenSetRep.complement(parse_set(_body(text, "complement"), space))
    balls = []
    for piece in _split_top(text, "u"):
        piece = piece.strip()
        if not piece.startswith("ball"):
            raise LiteralError(f"open sets are ball unions or complements, got {piece!r}")
        balls.append(_as_pair(_literal("(" + _body(piece, "ball") + ")"), "ball"))
    return OpenSetRep.ball_union(space, balls)


# ---------------------------------------------------------------------------
# maps


@_shaped("map")
def parse_map(text: str, space: AmbientSpace = None):
    text = text.strip()
    head, *rest = _split_top(text, ":")
    head = head.strip()
    if head == "identity":
        return Identity(space if space is not None else AmbientSpace.line())
    if head == "affine":
        kw = _expect(parse_fields(rest), "affine", {"a", "b"})
        return Affine(float(kw.get("a", 1.0)), float(kw.get("b", 0.0)))
    if head == "linear":
        if len(rest) != 1:
            raise LiteralError("linear map needs its matrix: linear:[[0,-1],[1,0]]")
        return LinearMatrix(tuple(map(tuple, _literal(rest[0]))))
    if head == "sin-reciprocal":
        return SinReciprocal()
    if head == "arctan":
        kw = _expect(parse_fields(rest), "arctan", {"anchor"})
        return ArctanOfDistance(space if space is not None else AmbientSpace.line(),
                                kw.get("anchor"))
    if head == "piecewise":
        kw = _expect(parse_fields(rest), "piecewise",
                     {"knots", "values", "left", "right"})
        return PiecewiseMonotone1D(tuple(kw["knots"]), tuple(kw["values"]),
                                   float(kw.get("left", 0.0)),
                                   float(kw.get("right", 0.0)))
    raise LiteralError(f"unknown map {text!r}")


# ---------------------------------------------------------------------------
# group elements


_ELEMENTS = {  # head: (fields it takes, builder)
    "identity": ({"n"}, lambda kw: GroupElement.identity(int(kw.get("n", 2)))),
    "rotation": ({"theta"}, lambda kw: GroupElement.rotation(float(kw["theta"]))),
    "translation": ({"v"}, lambda kw: GroupElement.translation(kw["v"])),
    "scaling": ({"lam", "n"},
                lambda kw: GroupElement.scaling(float(kw["lam"]), int(kw.get("n", 2)))),
    "isometry": ({"q", "t"},
                 lambda kw: GroupElement.isometry(tuple(map(tuple, kw["q"])), kw["t"])),
}


@_shaped("group element")
def parse_element(text: str) -> GroupElement:
    text = text.strip()
    head, *rest = _split_top(text, ":")
    head = head.strip()
    if head not in _ELEMENTS:
        raise LiteralError(f"unknown group element {text!r}")
    fields, build = _ELEMENTS[head]
    return build(_expect(parse_fields(rest), head, fields))
