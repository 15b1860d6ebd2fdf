import json

import pytest

from quadpartitions import (
    Field,
    PartitionGrid,
    build_context,
    dumps_canonical,
    element_from_obj,
    element_to_obj,
    grid_from_obj,
    grid_to_obj,
    report_from_obj,
    report_to_obj,
    search_m,
)


def test_dumps_canonical_is_sorted_and_compact():
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert dumps_canonical(["x", 10**40]) == '["x",%d]' % 10**40
    assert dumps_canonical({"t": "2+√2"}) == '{"t":"2+√2"}'


def test_element_round_trip():
    for D, a, b in ((2, 3, 2), (13, 4, 3), (13, -1, 2), (21, 0, 5)):
        f = Field(D)
        e = f.element(a, b)
        obj = element_to_obj(e)
        assert obj["text"] == str(e)
        assert element_from_obj(f, obj) == e
        wire = json.loads(dumps_canonical(obj))
        assert element_from_obj(f, wire) == e


def test_grid_round_trip():
    grid = PartitionGrid(Field(13))
    grid.ensure(12)
    obj = json.loads(dumps_canonical(grid_to_obj(grid)))
    loaded = grid_from_obj(obj)
    assert loaded.max_x == grid.max_x
    assert dict(((x, y), c) for x, y, c in loaded.cells()) == dict(
        ((x, y), c) for x, y, c in grid.cells()
    )
    assert dumps_canonical(grid_to_obj(loaded)) == dumps_canonical(grid_to_obj(grid))
    # a loaded grid keeps working: extended, it equals a fresh build on every cell
    loaded.ensure(20)
    fresh = PartitionGrid(Field(13))
    fresh.ensure(20)
    assert list(loaded.cells()) == list(fresh.cells())


def test_grid_rejects_tampered_objects():
    grid = PartitionGrid(Field(6))
    grid.ensure(8)
    base = grid_to_obj(grid)

    obj = json.loads(dumps_canonical(base))
    obj["max_x"] = 9
    with pytest.raises(ValueError):
        grid_from_obj(obj)

    obj = json.loads(dumps_canonical(base))
    obj["columns"][3]["y_min"] -= 1
    with pytest.raises(ValueError):
        grid_from_obj(obj)

    obj = json.loads(dumps_canonical(base))
    obj["columns"][5]["counts"].append(7)
    with pytest.raises(ValueError):
        grid_from_obj(obj)

    obj = json.loads(dumps_canonical(base))
    del obj["columns"][4]
    with pytest.raises(ValueError):
        grid_from_obj(obj)

    obj = json.loads(dumps_canonical(base))
    obj["columns"][0]["counts"] = [2]
    with pytest.raises(ValueError):
        grid_from_obj(obj)


def test_report_round_trip():
    ctx = build_context(Field(5))
    report = search_m(ctx, 6)
    obj = json.loads(dumps_canonical(report_to_obj(report)))
    loaded = report_from_obj(obj)
    assert loaded == report
    assert dumps_canonical(report_to_obj(loaded)) == dumps_canonical(report_to_obj(report))
