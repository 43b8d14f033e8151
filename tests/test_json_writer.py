"""The CLI's JSON writer against ``json.dumps(obj, indent=2, sort_keys=True)``:
the same text for every value, and the same ``TypeError`` for a value that
JSON cannot hold.  The README examples, whose output objects the writer
also matches, are checked in ``test_cli.py``."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coloredsym import ColoredComposition, colored_ribbon, ribbon_schur_by_counting
from coloredsym import cli


def written(obj) -> str:
    out = []
    cli._write_json(obj, out, 0)
    return "".join(out)


def dumped(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# quotes, backslashes, control, non-ASCII, astral and lone surrogate characters
_CHARS = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€ \U0001f600\ud800') | st.characters(
    exclude_categories=()
)
_TEXT = st.text(_CHARS, max_size=12)
_INTS = st.integers() | st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**40, -(10**40)])
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300])
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=5)
        # int lists with a bool or None among the ints
        | st.lists(_INTS | st.booleans() | st.none(), max_size=6)
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=25)


@given(_VALUES)
def test_writer_matches_json_dumps(obj):
    assert written(obj) == dumped(obj)


@given(st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), _SCALARS))
def test_dict_with_non_str_keys_matches_json_dumps(obj):
    try:
        expected = dumped(obj)
    except TypeError:  # keys of mixed types do not sort
        with pytest.raises(TypeError):
            written(obj)
    else:
        assert written([obj]) == dumped([obj]) and written(obj) == expected


@pytest.mark.parametrize("obj", [[], (), {}, [[]], {"a": {}}, [(), {}, [[], {}]], ""])
def test_empty_containers(obj):
    assert written(obj) == dumped(obj)


@pytest.mark.parametrize("depth", [100, 150])
def test_deep_nesting(depth):
    obj = [1, "x"]
    for level in range(depth):
        obj = {"k": obj, "a": [level, None]} if level % 2 else [obj, level]
    assert written(obj) == dumped(obj)


class _Thing:
    pass


@pytest.mark.parametrize(
    "value", [_Thing(), {1, 2}, b"bytes", 1j, frozenset(), range(3), iter([1])]
)
@pytest.mark.parametrize(
    "wrap", [lambda v: v, lambda v: [1, v], lambda v: {"a": {"b": (v,)}}, lambda v: {1: v}]
)
def test_unserializable_value_raises_type_error(value, wrap):
    obj = wrap(value)
    with pytest.raises(TypeError):
        dumped(obj)
    with pytest.raises(TypeError):
        written(obj)


def test_subclasses_read_as_in_json_dumps():
    class Word(str):
        pass

    class Count(int):
        pass

    class Row(list):
        pass

    class Table(dict):
        pass

    obj = Table(b=Row([Count(3), True]), a=[Word('w"'), {Word("k"): Count(-1)}])
    assert written(obj) == dumped(obj)
    assert written([obj]) == dumped([obj])


@pytest.mark.parametrize("chunks", [1, 3, 10_000])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_stream_writes_the_text_of_its_list(capsys, monkeypatch, chunks, count):
    # stdout gets the stream's text in pieces once it holds more than
    # `chunks` of them
    monkeypatch.setattr(cli, "_STREAM_CHUNKS", chunks)
    items = [{"coeff": i, "exponents": [[i, 0], [1, 2]]} for i in range(count)]
    cli._emit({"a": 1, "polynomial": cli._Stream(iter(items)), "z": [True]}, "json")
    expected = dumped({"a": 1, "polynomial": items, "z": [True]}) + "\n"
    assert capsys.readouterr().out == expected


def test_dump_poly_is_json_dumps_of_the_term_list(capsys):
    ce = ColoredComposition((2, 1, 2), (0, 1, 0), 2)
    assert cli.main(["ribbon", "--comp", "2^0,1^1,2^0", "--r", "2", "--dump-poly"]) == 0
    terms = [
        {"exponents": [list(row) for row in mat], "coeff": c}
        for mat, c in colored_ribbon(ce, (5, 5)).term_items()
    ]
    obj = {
        "expansion": ribbon_schur_by_counting(ce).to_json(),
        "polynomial": terms,
        "widths": [5, 5],
    }
    assert capsys.readouterr().out == dumped(obj) + "\n"
    assert len(terms) > 100
