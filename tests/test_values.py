"""The value classes: equality, hashing, immutability and repr, one class at a time."""

import copy
import pickle

import pytest

from quintics import (
    QQ,
    ChainComplex,
    ChainMap,
    ColumnSpec,
    Config,
    Conic,
    DifferentialDecl,
    E1Table,
    PoincarePoly,
    PrimeField,
    ProjLine,
    ProjPoint,
    SingularSet,
    SubspaceBasis,
)
from quintics.ledger import AuxTable, QuinticDataset
from quintics.lsys import ConditionReport
from quintics.projgeom import _from_key
from quintics.taxonomy import ConfigTypeRecord, _Structure

F = PrimeField(101)
P, Q = ProjPoint(F, (1, 2, 3)), ProjPoint(F, (0, 1, 4))
L = ProjLine(F, (1, 1, 1))
ONE = PoincarePoly.one()
TABLE = E1Table.from_dict({(1, 2): 3})
EDGE = ChainComplex((2, 1), [[[-1], [1]]])

# (class, its fields in constructor order with one value each, one field
# with another value, whether instances hash)
CASES = [
    (SubspaceBasis, {"field": F, "ambient_dim": 3, "basis": ((1, 0, 2),)},
     {"basis": ((0, 1, 0),)}, True),
    (E1Table, {"entries": (((1, 2), 3),)}, {"entries": ()}, True),
    (DifferentialDecl, {"page": 2, "source": (3, 4), "declared_rank": 1},
     {"declared_rank": 0}, True),
    (ColumnSpec, {"index": 3, "base_poly": ONE}, {"base_poly": None}, True),
    (AuxTable, {"name": "a", "table": TABLE, "differentials": (), "expected_total": ONE,
                "note": "n"}, {"note": "m"}, True),
    # its twisted values are a dict, so it has never hashed
    (QuinticDataset, {"e1": TABLE, "differentials": (), "columns": (), "aux_tables": (),
                      "twisted_values": {"x": ONE}, "expected_factors": (1, 3),
                      "big_d": 21}, {"big_d": 20}, False),
    (SingularSet, {"field": F, "isolated_points": (P,), "line_components": (L,),
                   "conic_components": (), "whole_plane": False}, {"isolated_points": ()},
     True),
    # unhashable even when its fields hash, since it can change
    (ConditionReport, {"checked": 1, "subset_checks": 4, "violations": ()},
     {"violations": ((3, "self", 2),)}, False),
    (PoincarePoly, {"coeffs": ((0, 1), (3, 1))}, {"coeffs": ()}, True),
    (ProjPoint, {"field": F, "key": (1, 2, 3)}, {"key": (1, 2, 4)}, True),
    (ProjLine, {"field": QQ, "key": (1, 2, 3)}, {"field": F}, True),
    (Conic, {"field": F, "key": (1, 1, -1, 0, 0, 0)}, {"key": (1, 1, 1, 0, 0, 0)}, True),
    (Config, {"field": F, "points": (P, Q), "lines": (), "conics": (), "type_id": 2,
              "whole_plane": False}, {"type_id": "untyped"}, True),
    (_Structure, {"points": 4, "lines": ((0, 1, 2),), "conics": (), "components": 0,
                  "whole_plane": False}, {"components": 1}, True),
    (ConfigTypeRecord, {"type_id": 2, "expected_dim": 15, "description": "two points",
                        "structure": _Structure(2)}, {"expected_dim": 14}, True),
    (ChainMap, {"source": EDGE, "target": EDGE, "blocks": (((1, 0), (0, 1)), ((1,),))},
     {"blocks": (((0, 1), (1, 0)), ((-1,),))}, True),
]


@pytest.mark.parametrize("cls, fields, changed, hashable", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_semantics(cls, fields, changed, hashable):
    # parameter names and order: keyword and positional builds agree
    obj = cls(**fields)
    twin = cls(*fields.values())
    other = cls(**dict(fields, **changed))
    assert obj is not twin and obj == twin and not obj != twin
    assert obj != other and other != obj
    assert obj != object() and obj != tuple(fields.values())
    if hashable:
        assert hash(obj) == hash(twin)
        assert {obj, twin, other} == {obj, other}
    else:
        with pytest.raises(TypeError):
            hash(obj)
    # the repr names the fields in order, and nothing else
    values = ", ".join(f"{name}={getattr(obj, name)!r}" for name in fields)
    assert repr(obj) == f"{cls.__name__}({values})"
    clone = copy.copy(obj)
    assert clone is not obj and clone == obj
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")
    name = next(iter(changed))
    if cls is ConditionReport:
        # the one class that stays mutable
        setattr(obj, name, changed[name])
        assert obj == other
    else:
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert obj == twin


def test_keyed_objects_compare_by_class_and_key_only():
    line = ProjLine(F, P.key)
    assert line.key == P.key and line != P and P != line
    assert len({P, line}) == 2
    # the cached hash is not a field: a point built from its key equals the
    # validated one, and both hash as (field, key)
    built = _from_key(ProjPoint, F, (1, 2, 3))
    assert built == P and hash(built) == hash(P) == hash((F, P.key))
    assert repr(built) == "ProjPoint(field=fp:101, key=(1, 2, 3))"
    assert Config(F, (P,)) != Config(F, (built, Q))
    cfg = Config(F, (built, Q), (L,), type_id=3)
    assert pickle.loads(pickle.dumps(cfg)) == cfg == copy.deepcopy(cfg)
    assert hash(pickle.loads(pickle.dumps(built))) == hash(P)
