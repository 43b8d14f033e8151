"""The contract of the package's value classes, that of frozen
dataclasses: keyword construction, equality, hashing, immutability and
repr.  Integer fields refuse non-integers, sequence fields are stored as
tuples, and a cold import of the package loads no ``dataclasses`` (nor
``inspect``, ``ast`` or ``dis``) and no other module it did not load
before."""

import ast
import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import coloredsym
from coloredsym import (
    AugmentedSubset,
    ColoredComposition,
    ColoredPermutation,
    ColoredSet,
    ColoredZigzagShape,
    Composition,
    Expansion,
    MultiAlphabetPolynomial,
    Permutation,
    RPartiteTableau,
    SkewShape,
    StandardTableau,
    VerificationReport,
    ZigzagShape,
)
from coloredsym._value import FrozenValue, Value
from coloredsym.compositions import RainbowDecomposition

_T1 = StandardTableau(SkewShape((2, 1), ()), ((1, 3), (4,)))
_T2 = StandardTableau(SkewShape((2,), (1,)), ((2,),))
_ZZ = ZigzagShape(SkewShape((2, 1), (0, 0)), Composition((1, 2)))

#: (class, keyword arguments in field order, repr of the built object)
SAMPLES = [
    (Composition, dict(parts=(2, 1)), "Composition(parts=(2, 1))"),
    (AugmentedSubset, dict(n=3, elements=(1, 3)), "AugmentedSubset(n=3, elements=(1, 3))"),
    (
        ColoredComposition,
        dict(parts=(2, 1), colors=(0, 1), r=2),
        "ColoredComposition(parts=(2, 1), colors=(0, 1), r=2)",
    ),
    (
        ColoredSet,
        dict(n=3, r=2, pairs=((2, 0), (3, 1))),
        "ColoredSet(n=3, r=2, pairs=((2, 0), (3, 1)))",
    ),
    (
        RainbowDecomposition,
        dict(blocks=((Composition((2,)), 0), (Composition((1,)), 1))),
        "RainbowDecomposition(blocks=((Composition(parts=(2,)), 0), (Composition(parts=(1,)), 1)))",
    ),
    (Permutation, dict(word=(2, 1, 3)), "Permutation(word=(2, 1, 3))"),
    (
        ColoredPermutation,
        dict(perm=Permutation((2, 1)), colors=(1, 0), r=2),
        "ColoredPermutation(perm=Permutation(word=(2, 1)), colors=(1, 0), r=2)",
    ),
    (
        SkewShape,
        dict(outer=(3, 1, 1), inner=(1, 1, 0)),
        "SkewShape(outer=(3, 1, 1), inner=(1, 1, 0))",
    ),
    (
        ZigzagShape,
        dict(shape=SkewShape((2, 1), (0, 0)), source=Composition((1, 2))),
        "ZigzagShape(shape=SkewShape(outer=(2, 1), inner=(0, 0)), source=Composition(parts=(1, 2)))",
    ),
    (
        ColoredZigzagShape,
        dict(zigzags=(_ZZ, ZigzagShape(SkewShape((1,), (0,)), Composition((1,)))), colors=(0, 1)),
        "ColoredZigzagShape(zigzags=(ZigzagShape(shape=SkewShape(outer=(2, 1), inner=(0, 0)),"
        " source=Composition(parts=(1, 2))), ZigzagShape(shape=SkewShape(outer=(1,), inner=(0,)),"
        " source=Composition(parts=(1,)))), colors=(0, 1))",
    ),
    (
        StandardTableau,
        dict(shape=SkewShape((2, 1), (0, 0)), rows=((1, 3), (4,))),
        "StandardTableau(shape=SkewShape(outer=(2, 1), inner=(0, 0)), rows=((1, 3), (4,)))",
    ),
    (
        RPartiteTableau,
        dict(components=(_T1, _T2)),
        "RPartiteTableau(components=(StandardTableau(shape=SkewShape(outer=(2, 1), inner=(0, 0)),"
        " rows=((1, 3), (4,))), StandardTableau(shape=SkewShape(outer=(2,), inner=(1,)),"
        " rows=((2,),))))",
    ),
    (
        MultiAlphabetPolynomial,
        dict(widths=(1, 1), terms={b"\x01\x00": 2}),
        "MultiAlphabetPolynomial(widths=(1, 1), terms=mappingproxy({b'\\x01\\x00': 2}))",
    ),
    (
        Expansion,
        dict(basis="schur", n=2, r=1, coeffs={((2,),): 1}),
        "Expansion(basis='schur', n=2, r=1, coeffs={((2,),): 1})",
    ),
    (
        VerificationReport,
        dict(
            identity="rsk", max_n=2, max_r=1, cases_checked=3, expected_cases=3,
            failure_count=0, failures=[], wall_time=0.5, breakdown={"n=2,r=1": 3}, note="",
        ),
        "VerificationReport(identity='rsk', max_n=2, max_r=1, cases_checked=3,"
        " expected_cases=3, failure_count=0, failures=[], wall_time=0.5,"
        " breakdown={'n=2,r=1': 3}, note='')",
    ),
]

UNHASHABLE = {Expansion, VerificationReport}
MUTABLE = {VerificationReport}
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def _built(cls, kwargs):
    return cls(*kwargs.values())


def _fields(obj, kwargs):
    return tuple(getattr(obj, name) for name in kwargs)


@pytest.mark.parametrize(("cls", "kwargs", "text"), SAMPLES, ids=IDS)
def test_keyword_construction_equals_positional(cls, kwargs, text):
    obj = _built(cls, kwargs)
    assert cls(**kwargs) == obj
    assert not cls(**kwargs) != obj


@pytest.mark.parametrize(("cls", "kwargs", "text"), SAMPLES, ids=IDS)
def test_repr_shows_the_fields_in_order(cls, kwargs, text):
    assert repr(_built(cls, kwargs)) == text


@pytest.mark.parametrize(("cls", "kwargs", "text"), SAMPLES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, kwargs, text):
    obj = _built(cls, kwargs)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    elif cls is MultiAlphabetPolynomial:
        assert hash(obj) == hash((obj.widths, frozenset(obj.terms.items())))
    else:
        assert hash(obj) == hash(_fields(obj, kwargs))
        assert {obj, cls(**kwargs)} == {obj}


@pytest.mark.parametrize(("cls", "kwargs", "text"), SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, text):
    obj = _built(cls, kwargs)
    name = next(iter(kwargs))
    if cls in MUTABLE:
        setattr(obj, name, "other")
        assert getattr(obj, name) == "other"
        return
    with pytest.raises(AttributeError):
        setattr(obj, name, kwargs[name])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert _fields(obj, kwargs) == _fields(_built(cls, kwargs), kwargs)


@pytest.mark.parametrize(("cls", "kwargs", "text"), SAMPLES, ids=IDS)
def test_another_class_never_compares_equal(cls, kwargs, text):
    obj = _built(cls, kwargs)
    others = [_built(c, k) for c, k, _ in SAMPLES if c is not cls]
    assert all(obj != other and not obj == other for other in others)
    assert obj != _fields(obj, kwargs)


@pytest.mark.parametrize(("cls", "kwargs", "text"), SAMPLES, ids=IDS)
def test_every_field_takes_part_in_equality(cls, kwargs, text):
    obj = _built(cls, kwargs)
    for name in kwargs:
        other = copy.copy(obj)
        assert other == obj
        object.__setattr__(other, name, object())
        assert other != obj and not other == obj, name


@pytest.mark.parametrize(
    ("cls", "kwargs", "text"),
    [sample for sample in SAMPLES if sample[0] is not MultiAlphabetPolynomial],
    ids=[name for name in IDS if name != "MultiAlphabetPolynomial"],
)
def test_pickle_and_deepcopy_round_trip(cls, kwargs, text):
    # a polynomial's read-only terms (a mappingproxy) cannot be pickled
    obj = _built(cls, kwargs)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert twin == obj and repr(twin) == text


def test_polynomial_defaults_to_no_terms():
    p = MultiAlphabetPolynomial((2,))
    assert dict(p.terms) == {} and p.is_zero()
    assert p == MultiAlphabetPolynomial((2,), {}) == MultiAlphabetPolynomial(widths=(2,))


def test_polynomial_terms_are_a_read_only_copy():
    terms = {b"\x01": 1}
    p = MultiAlphabetPolynomial((1,), terms)
    terms[b"\x02"] = 1
    assert dict(p.terms) == {b"\x01": 1}
    with pytest.raises(TypeError):
        p.terms[b"\x03"] = 1


def test_reports_without_breakdown_do_not_share_a_dict():
    args = ("rsk", 2, 1, 3, 3, 0, [], 0.5)
    a, b = VerificationReport(*args), VerificationReport(*args)
    a.breakdown["n=2,r=1"] = 3
    assert b.breakdown == {} and a.note == b.note == ""
    assert a != b


@pytest.mark.parametrize(
    "cls", [cls for cls, _, _ in SAMPLES if cls.__module__.rsplit(".", 1)[-1] in
            ("compositions", "permutations", "shapes")],
    ids=lambda cls: cls.__name__,
)
def test_construction_calls_the_class_own_post_init(cls, monkeypatch):
    # the benchmark's tracer times object construction by rebinding each
    # class's own __post_init__, which the constructor must look up on self
    assert "__post_init__" in vars(cls)
    kwargs = next(k for c, k, _ in SAMPLES if c is cls)
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    obj = cls(**kwargs)
    assert calls and calls[-1] is obj


def _value_classes():
    """Every ``Value`` subclass defined in a module of ``coloredsym``."""
    modules = [
        importlib.import_module(f"coloredsym.{info.name}")
        for info in pkgutil.iter_modules(coloredsym.__path__)
    ]
    return {
        cls
        for m in modules
        for cls in vars(m).values()
        if isinstance(cls, type) and issubclass(cls, Value) and cls.__module__ == m.__name__
    } - {Value, FrozenValue}


def test_every_value_class_is_under_the_contract():
    # equality, hashing and repr are the bases' rules over the __init__
    # parameters; only a class whose fields cannot be hashed as they are
    # says how it hashes
    classes = _value_classes()
    assert classes == {cls for cls, _, _ in SAMPLES}
    assert not [cls for cls in classes if "__eq__" in vars(cls)]
    assert {cls for cls in classes if "__hash__" in vars(cls)} == {
        MultiAlphabetPolynomial, Expansion,
    }


class _Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize(
    ("build", "args"),
    [
        (Composition, ((2.9, 1),)),
        (Composition, (("2", 1),)),
        (AugmentedSubset, (2.0, (1, 2))),
        (AugmentedSubset, (2, (1.0, 2))),
        (ColoredComposition, ((1.5,), ("0",), 2)),
        (ColoredComposition, ((1,), (0.0,), 2)),
        (ColoredComposition, ((1,), (0,), 1.5)),
        (ColoredSet, (2, 2.0, ((2, 0),))),
        (ColoredSet, (2.0, 2, ((2, 0),))),
        (ColoredSet, (2, 2, ((2, "0"),))),
        (Permutation, (("2", 1.0),)),
        (ColoredPermutation, (Permutation((1,)), (0,), 1.5)),
        (ColoredPermutation, (Permutation((1,)), (0.0,), 1)),
        (SkewShape, ((2.5, 1), (0.9,))),
        (SkewShape, ((2, 1), (1.0,))),
        (StandardTableau, (SkewShape((2,), ()), ((1, 2.0),))),
        (MultiAlphabetPolynomial, ((2.7,),)),
        (ColoredZigzagShape, ((_ZZ,), (1.5,))),
        (ColoredZigzagShape, ((_ZZ,), ("0",))),
        (RainbowDecomposition, (((Composition((2,)), 1.5),),)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_integer_fields_refuse_non_integers(build, args):
    with pytest.raises(TypeError):
        build(*args)


def test_integer_fields_take_any_index_type_and_store_ints():
    two = _Two()
    assert Composition((two, 1)).parts == (2, 1)
    ce = ColoredComposition((two,), (1,), two)
    assert (ce.parts, ce.r) == ((2,), 2) and type(ce.r) is int
    assert SkewShape((two,), ()).outer == (2,)
    assert Permutation((two, 1)).word == (2, 1)
    assert MultiAlphabetPolynomial((two,)).widths == (2,)
    assert ColoredSet(two, two, ((two, 1),)) == ColoredSet(2, 2, ((2, 1),))
    czz = ColoredZigzagShape((_ZZ,), (two,))
    assert czz.colors == (2,) and type(czz.colors[0]) is int
    (_, color), = RainbowDecomposition(((Composition((1,)), two),)).blocks
    assert type(color) is int and color == 2


_C2, _C1 = Composition((2,)), Composition((1,))


@pytest.mark.parametrize(
    ("cls", "lists", "tuples"),
    [
        (ColoredZigzagShape, ([_ZZ, _ZZ], [0, 1]), ((_ZZ, _ZZ), (0, 1))),
        (RainbowDecomposition, ([(_C2, 0), (_C1, 1)],), (((_C2, 0), (_C1, 1)),)),
        (RainbowDecomposition, ([[_C2, 0], [_C1, 1]],), (((_C2, 0), (_C1, 1)),)),
        (RPartiteTableau, ([_T1, _T2],), ((_T1, _T2),)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_sequence_fields_are_stored_as_tuples(cls, lists, tuples):
    # built from lists, a value is still hashable and equal to the one
    # built from tuples
    obj, expected = cls(*lists), cls(*tuples)
    assert _fields(obj, vars(obj)) == tuples
    assert obj == expected and hash(obj) == hash(expected)


COLD_IMPORT = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import coloredsym, coloredsym.cli
print(sorted(set(sys.modules) - before))
"""

#: What ``import coloredsym, coloredsym.cli`` loads in a fresh ``python -S``
#: under CPython 3.11: the CLI imports ``argparse`` (and with it ``gettext``
#: and ``warnings``) only when it builds its parser for help or an error.
COLD_IMPORT_MODULES = {
    "__future__", "_bisect", "_collections", "_collections_abc", "_functools",
    "_json", "_operator", "_sre", "_stat", "bisect", "collections",
    "collections.abc", "copyreg", "enum", "functools", "genericpath",
    "itertools", "json", "json.decoder", "json.encoder", "json.scanner",
    "keyword", "math", "operator", "os", "os.path", "posixpath", "re",
    "re._casefix", "re._compiler", "re._constants", "re._parser", "reprlib",
    "stat", "types",
}


def _cold_import_modules() -> set:
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_IMPORT, str(src)],
        capture_output=True, text=True, check=True,
    )
    return set(ast.literal_eval(proc.stdout))


def test_cold_import_loads_no_dataclasses_inspect_ast_or_dis():
    # dataclasses imports inspect, which imports ast and dis: together
    # about a third of the package's cold import time
    assert not _cold_import_modules() & {"dataclasses", "inspect", "ast", "dis"}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the module set is CPython 3.11's"
)
def test_cold_import_loads_no_new_standard_module():
    # every module a cold import loads is time in perfbench's setup_s
    loaded = {m for m in _cold_import_modules() if m.partition(".")[0] != "coloredsym"}
    assert loaded <= COLD_IMPORT_MODULES
