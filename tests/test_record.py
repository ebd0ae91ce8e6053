"""The frozen-record decorator against its oracle, stdlib dataclasses.

Every record class of vone is rebuilt from its own class body as a
``@dataclass(frozen=True)`` twin (``eq=False`` where the record has no
``__eq__``). Record and twin must then construct, default, validate,
compare, hash, print and refuse assignment alike; hand-written bodies
cover the cases no vone class exercises (inherited fields with defaults,
a body's own ``__eq__``)."""

from __future__ import annotations

import dataclasses
import importlib
from fractions import Fraction

import pytest

from vone.certify import HypothesisVerdict, SelfMapParameters
from vone.geomfix import PowerMapFixedPoints, TelescopeFixedPoints
from vone.groups import GroupDescriptor, build_group
from vone.powerop import EtaClass, Pi1Element
from vone.record import record

from test_repring import GammaOrbitBasis

MODULES = ("burnside", "certify", "cli", "geomfix", "groups", "jtheory", "powerop", "repring")
MADE_BY_RECORD = ("__record_fields__", "__dict__", "__weakref__")


def _record_classes() -> list:
    out = []
    for name in MODULES:
        module = importlib.import_module(f"vone.{name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and "__record_fields__" in obj.__dict__
            ):
                out.append(obj)
    return out


def _twin(cls, twins: dict):
    """The same class body under @dataclass(frozen=True): everything the
    body defines, nothing the record decorator added."""
    ns = {
        key: value
        for key, value in cls.__dict__.items()
        if key not in MADE_BY_RECORD and getattr(value, "__module__", None) != "vone.record"
    }
    ns["__qualname__"] = cls.__qualname__
    bases = tuple(twins.get(base, base) for base in cls.__bases__)
    eq = cls.__dict__.get("__eq__") is not None
    return dataclasses.dataclass(frozen=True, eq=eq)(type(cls.__name__, bases, ns))


# record classes kept on the test side as oracles: GammaOrbitBasis moved
# out of vone.repring with the convolution path of the Galois-fixed block
ORACLE_RECORDS = (GammaOrbitBasis,)
RECORDS = _record_classes() + list(ORACLE_RECORDS)
TWINS: dict = {}
for _cls in RECORDS:  # bases come before subclasses within a module
    TWINS[_cls] = _twin(_cls, TWINS)

# field values that pass __post_init__ or that a hand-written __repr__
# reads; every other class takes 10, 11, ...
SAMPLES = {
    "SelfMapParameters": (3, 2, 1, Fraction(2), 2, 1, 2),
    "PowerMapFixedPoints": ("degree", 3),
    "TelescopeFixedPoints": ("v1-telescope", 9),
    "Pi1Element": tuple(vars(Pi1Element.zero(build_group(GroupDescriptor.parse("C2")))).values()),
}


def _args(cls) -> tuple:
    names = cls.__record_fields__
    return SAMPLES.get(cls.__name__, tuple(range(10, 10 + len(names))))


def _outcome(make):
    """What a construction did: the instance's repr and fields, or the
    exception type."""
    try:
        obj = make()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return repr(obj), vars(obj)


ids = [cls.__qualname__ for cls in RECORDS]


def test_every_record_class_is_found():
    assert len(_record_classes()) == 29
    assert len(RECORDS) == 30
    for cls in RECORDS:
        assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_match_the_dataclass(cls):
    twin = TWINS[cls]
    assert cls.__record_fields__ == tuple(f.name for f in dataclasses.fields(twin))
    for f in dataclasses.fields(twin):
        default = getattr(cls, f.name, dataclasses.MISSING)
        assert f.default is default or f.default == default


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_construction_matches_the_dataclass(cls):
    twin = TWINS[cls]
    args = _args(cls)
    names = cls.__record_fields__
    kwargs = dict(zip(names, args))
    half = len(args) // 2
    mixed = (args[:half], dict(zip(names[half:], args[half:])))
    calls = [
        (args, {}),
        ((), kwargs),
        mixed,
        (args[:-1], {}),  # one missing, unless it has a default
        (args + (0,), {}),  # one too many
        (args, {names[0]: args[0]} if names else {"x": 0}),  # a repeat
        (args, {"no_such_field": 0}),
    ]
    for a, kw in calls:
        assert _outcome(lambda: cls(*a, **kw)) == _outcome(lambda: twin(*a, **kw)), (a, kw)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_defaults_match_the_dataclass(cls):
    twin = TWINS[cls]
    required = [f for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    args = _args(cls)[: len(required)]
    assert _outcome(lambda: cls(*args)) == _outcome(lambda: twin(*args))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equality_and_hash_match_the_dataclass(cls):
    twin = TWINS[cls]
    args = _args(cls)
    a, b, t = cls(*args), cls(*args), twin(*args)
    assert a == a and not (a != a)
    assert a != t and t != a  # another class with the same fields
    assert a != tuple(vars(a).values())
    if cls.__dict__.get("__eq__") is None:  # eq=False: identity
        assert a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and t == twin(*args)
    assert hash(a) == hash(b) == hash(t)
    if args:
        last = args[-1] + 1 if isinstance(args[-1], int) else ()
        other = args[:-1] + (last,)
        assert (a == cls(*other)) == (t == twin(*other))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_assignment_raises_attribute_error(cls):
    twin = TWINS[cls]
    args = _args(cls)
    for obj in (cls(*args), twin(*args)):
        for name in cls.__record_fields__ + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert vars(cls(*args)) == vars(twin(*args))


def test_a_record_is_not_a_tuple():
    verdict = HypothesisVerdict(True, "k > n")
    assert verdict != (True, "k > n")
    assert not isinstance(verdict, tuple)
    assert repr(verdict) == "HypothesisVerdict(passed=True, clause='k > n')"


def test_group_descriptor_stays_a_cache_key():
    assert GroupDescriptor("cyclic", 8) == GroupDescriptor.parse("C8")
    assert len({GroupDescriptor("cyclic", 8), GroupDescriptor.parse("C8")}) == 1
    assert build_group(GroupDescriptor("cyclic", 8)) is build_group(GroupDescriptor.parse("C8"))


def test_subgroup_classes_compare_by_identity():
    G = build_group(GroupDescriptor.parse("C4"))
    cls = G.subgroup_classes()[1]
    copy = type(cls)(*(getattr(cls, name) for name in cls.__record_fields__))
    assert cls == cls and cls != copy
    assert repr(cls) == repr(copy) == "<SubgroupClass C2 order 2>"


def test_self_map_parameters_validation_matches_the_dataclass():
    twin = TWINS[SelfMapParameters]
    good = (3, 2, 1, 2, 2, 1, 2)  # c_x as an int is coerced to a Fraction
    made = SelfMapParameters(*good)
    assert type(made.c_x) is Fraction and made.c_x == 2
    assert vars(made) == vars(twin(*good))
    for bad in (
        (3, -1, 1, 2, 2, 1, 2),  # n < 0
        (3, 2, 1, 2, -1, 1, 2),  # k < 0
        (3, 2, 1, Fraction(3, 2), 2, 1, 2),  # c_x not a p-local unit
        (3, 2, 1, Fraction(2, 9), 2, 1, 2),
        (3, 2, 1, 2, 2, 6, 2),  # c_v not prime to p
    ):
        with pytest.raises(ValueError):
            SelfMapParameters(*bad)
        with pytest.raises(ValueError):
            twin(*bad)


@pytest.mark.parametrize(
    "cls, good, bad",
    [
        (
            PowerMapFixedPoints,
            [("degree", 3), ("zero",), ("identity",), ("zero", None)],
            [("degree",), ("zero", 3), ("identity", 1), ("other",)],
        ),
        (
            TelescopeFixedPoints,
            [("v1-telescope", 9), ("zero",), ("rational-pair",)],
            [("v1-telescope",), ("zero", 3), ("rational-pair", 9), ("other",)],
        ),
    ],
    ids=["PowerMapFixedPoints", "TelescopeFixedPoints"],
)
def test_variant_validation_matches_the_dataclass(cls, good, bad):
    twin = TWINS[cls]
    for args in good:
        assert _outcome(lambda: cls(*args)) == _outcome(lambda: twin(*args))
    assert repr(PowerMapFixedPoints("degree", degree=3)) == "Degree(3)"
    for args in bad:
        with pytest.raises(ValueError):
            cls(*args)
        with pytest.raises(ValueError):
            twin(*args)


def test_eta_class_coerces_its_coefficient():
    assert EtaClass(3) == EtaClass(1) and EtaClass(3).coefficient == 1
    assert hash(EtaClass(4)) == hash(TWINS[EtaClass](4)) == hash((0,))
    assert repr(EtaClass(5)) == "eta"


def _bodies(decorate):
    @decorate
    class Base:
        a: int
        b: int = 1

    @decorate
    class Child(Base):
        c: str = "x"
        a: int = 5  # redefined: keeps its place, takes a default

    @decorate
    class OwnEq:
        v: int

        def __eq__(self, other):
            return isinstance(other, OwnEq) and self.v % 2 == other.v % 2

    return Base, Child, OwnEq


def test_hand_written_bodies_match_the_dataclass():
    rec = _bodies(record)
    dc = _bodies(dataclasses.dataclass(frozen=True))
    for (r, d), calls in zip(
        zip(rec, dc),
        (
            [((0,), {}), ((0, 2), {}), ((), {"b": 3, "a": 1}), ((), {}), ((0, 1, 2), {})],
            [((), {}), ((1, 2, "y"), {}), ((), {"c": "z"}), ((1,), {"a": 2})],
            [((3,), {}), ((), {"v": 4}), ((), {})],
        ),
    ):
        assert r.__record_fields__ == tuple(f.name for f in dataclasses.fields(d))
        for a, kw in calls:
            assert _outcome(lambda: r(*a, **kw)) == _outcome(lambda: d(*a, **kw)), (r, a, kw)
    OwnEq_r, OwnEq_d = rec[2], dc[2]
    assert OwnEq_r(1) == OwnEq_r(3) and OwnEq_d(1) == OwnEq_d(3)
    assert hash(OwnEq_r(1)) == hash(OwnEq_d(1)) == hash((1,))
    assert rec[1](1) != rec[0](1, 1)  # a subclass instance is another class


def test_a_field_without_default_after_one_with_default_is_rejected():
    def body():
        class Bad:
            a: int = 0
            b: int

        return Bad

    with pytest.raises(TypeError):
        dataclasses.dataclass(frozen=True)(body())
    with pytest.raises(TypeError):
        record(body())
