import json

from quadpartitions import Field, dumps_canonical, element_to_obj


def test_dumps_canonical_is_sorted_and_compact():
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert dumps_canonical(["x", 10**40]) == '["x",%d]' % 10**40
    assert dumps_canonical({"t": "2+√2"}) == '{"t":"2+√2"}'


def test_element_round_trip():
    for D, a, b in ((2, 3, 2), (13, 4, 3), (13, -1, 2), (21, 0, 5)):
        f = Field(D)
        e = f.element(a, b)
        obj = element_to_obj(e)
        assert obj == {"a": a, "b": b, "text": str(e)}
        wire = json.loads(dumps_canonical(obj))
        assert f.element(wire["a"], wire["b"]) == e
