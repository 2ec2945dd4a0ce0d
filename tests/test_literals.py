"""Literals that lack a field or give one of the wrong shape."""

import pytest

from hypermet import AmbientSpace
from hypermet.literals import (LiteralError, parse_element, parse_fields,
                               parse_map, parse_open_set, parse_set, parse_space)

LINE = AmbientSpace.line()

MISSHAPEN = [
    (parse_element, "rotation"),
    (parse_element, "scaling:n=2"),
    (parse_element, "isometry:q=[[1,0],[0,1]]"),
    (parse_element, "rotation:theta=(1,2)"),
    (parse_map, "linear:[1,2]"),
    (parse_map, "piecewise:knots=1:values=2"),
    (parse_space, "euclidean"),
    (lambda t: parse_set(t, LINE), "{None}"),
    (lambda t: parse_set(t, LINE), "[0,None]"),
    (lambda t: parse_set(t, LINE), "cloud(None; 0)"),
    (lambda t: parse_open_set(t, LINE), "ball(0,None)"),
]


@pytest.mark.parametrize("parse,text", MISSHAPEN)
def test_misshapen_literals_raise_literal_error_naming_the_literal(parse, text):
    # each of these raised KeyError or TypeError
    with pytest.raises(LiteralError) as info:
        parse(text)
    assert repr(text) in str(info.value)


def test_fields_read_key_value_pairs():
    assert parse_fields(["k_max=3", " v = (1, 0) "]) == {"k_max": 3, "v": (1, 0)}
    for bad in (["k_max"], ["k_max=[1"]):
        with pytest.raises(LiteralError):
            parse_fields(bad)
