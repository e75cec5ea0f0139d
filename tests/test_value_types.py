"""The library's value types: fixed field names and order, read-only
fields, equality and hashing by value, and the reprs that refusals quote.
A UnipotentLabel also packs its key once and keeps it."""

import pytest

from weylunip import unipotent, weylgroup as wg
from weylunip.classposet import elliptic_label, hasse
from weylunip.unipotent import UnipotentLabel

# each maker builds a new but equal value on every call
MAKERS = {
    "GroupContext": (lambda: wg.context("BC", 3), ("family", "n", "component")),
    "CountMatrix": (
        lambda: wg.count_matrix(wg.context("BC", 2), (2, -1)),
        ("n", "signed", "rows"),
    ),
    "EllipticClassLabel": (
        lambda: elliptic_label(wg.context("BC", 3), (2, 1)),
        ("ctx", "partition"),
    ),
    "HasseDiagram": (lambda: hasse([1, 2, 3], lambda a, b: a <= b), ("nodes", "covers")),
    "UnipotentLabel": (
        lambda: UnipotentLabel("Sp", 2, "2", (2, 2), ((2, 1),)),
        ("group", "n", "kind", "partition", "epsilon", "split"),
    ),
}


@pytest.mark.parametrize("name", MAKERS)
def test_fields_keep_their_names_and_order(name):
    make, fields = MAKERS[name]
    value = make()
    assert type(value).__name__ == name
    assert type(value)._fields == fields


@pytest.mark.parametrize("name", MAKERS)
def test_fields_are_read_only(name):
    make, fields = MAKERS[name]
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert make() == value


@pytest.mark.parametrize("name", MAKERS)
def test_equal_values_hash_equally_and_key_a_dict(name):
    make, _ = MAKERS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: name}[b] == name


def test_reprs_name_the_type_and_every_field():
    ctx = wg.context("BC", 3)
    assert repr(ctx) == "GroupContext(family='BC', n=3, component='id')"
    assert str(ctx) == repr(ctx)
    assert repr(elliptic_label(ctx, (2, 1))) == (
        "EllipticClassLabel(ctx=GroupContext(family='BC', n=3, component='id'), partition=(2, 1))"
    )
    assert repr(UnipotentLabel("Sp", 2, "good", (4,))) == (
        "UnipotentLabel(group='Sp', n=2, kind='good', partition=(4,), epsilon=None, split=None)"
    )


def test_a_unipotent_label_packs_its_key_once(monkeypatch):
    calls = []
    dim = unipotent._dim
    monkeypatch.setattr(unipotent, "_dim", lambda *args: calls.append(args) or dim(*args))
    label = UnipotentLabel("Sp", 2, "2", (2, 2), ((2, 1),))
    record = label._record
    assert label._record is record
    assert calls == [("Sp", 2)]
    # the cached record is not a field: equality and hashing ignore it
    fresh = UnipotentLabel("Sp", 2, "2", (2, 2), ((2, 1),))
    assert fresh == label and hash(fresh) == hash(label)
