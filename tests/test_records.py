"""The exported records are immutable named tuples.

They keep the field order, defaults and reprs they had as frozen classes,
hash by value, refuse assignment and survive a pickle round trip through
their validating constructors; importing the package loads none of
dataclasses, typing or inspect.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from weylpath import (
    Certificate, CertificateValidation, Parabolic, RootSystemError, RootSystemType,
    SuiteReport, TargetWeight, VanishingResult, VerificationReport,
)

A2 = RootSystemType("A", 2)
CERT = Certificate(rst=A2, omitted=1, d=1, entries=(((1, 0), 1),))
ROW = VanishingResult(d=1, m_dijkstra=1, m_lattice_lb=1, c_alpha=1,
                      certificate_cost=1, agreed=True)
REPORT = VerificationReport(family="A", rank=1, omitted=1, minuscule=True, rows=(ROW,),
                            sum_m=1, dim_gp=1, identity=True)

# record, field order, defaults, repr
RECORDS = [
    (A2, ("family", "rank"), {}, "RootSystemType(family='A', rank=2)"),
    (Parabolic(3, (2,)), ("rank", "omitted"), {},
     "Parabolic(rank=3, omitted=frozenset({2}))"),
    (TargetWeight(d=1, value=(1, 1), root_coords=(1, 1)), ("d", "value", "root_coords"), {},
     "TargetWeight(d=1, value=(1, 1), root_coords=(1, 1))"),
    (CERT, ("rst", "omitted", "d", "entries", "origin"), {"origin": ""},
     "Certificate(rst=RootSystemType(family='A', rank=2), omitted=1, d=1, "
     "entries=(((1, 0), 1),), origin='')"),
    (CertificateValidation(CERT, True, True, False, True, False, True, 1, 1, None, True),
     ("certificate", "roots_ok", "outside_levi", "sum_matches", "orthogonal",
      "ladder_uniform", "ladder_sequential", "cost", "dijkstra", "c_alpha",
      "cost_matches", "failures"), {"failures": ()},
     "CertificateValidation(certificate=Certificate(rst=RootSystemType(family='A', rank=2), "
     "omitted=1, d=1, entries=(((1, 0), 1),), origin=''), roots_ok=True, outside_levi=True, "
     "sum_matches=False, orthogonal=True, ladder_uniform=False, ladder_sequential=True, "
     "cost=1, dijkstra=1, c_alpha=None, cost_matches=True, failures=())"),
    (ROW, ("d", "m_dijkstra", "m_lattice_lb", "c_alpha", "certificate_cost", "agreed"), {},
     "VanishingResult(d=1, m_dijkstra=1, m_lattice_lb=1, c_alpha=1, certificate_cost=1, "
     "agreed=True)"),
    (REPORT, ("family", "rank", "omitted", "minuscule", "rows", "sum_m", "dim_gp",
              "identity", "witnesses"), {"witnesses": None},
     "VerificationReport(family='A', rank=1, omitted=1, minuscule=True, rows=("
     "VanishingResult(d=1, m_dijkstra=1, m_lattice_lb=1, c_alpha=1, certificate_cost=1, "
     "agreed=True),), sum_m=1, dim_gp=1, identity=True, witnesses=None)"),
    (SuiteReport(2, (REPORT,), (), (), (), (), ((2, 3, 3, False),), False),
     ("max_rank", "reports", "identity_failures", "disagreements", "spin_cross_checks",
      "parity_checks", "negative_checks", "ok"), {},
     "SuiteReport(max_rank=2, reports=(VerificationReport(family='A', rank=1, omitted=1, "
     "minuscule=True, rows=(VanishingResult(d=1, m_dijkstra=1, m_lattice_lb=1, c_alpha=1, "
     "certificate_cost=1, agreed=True),), sum_m=1, dim_gp=1, "
     "identity=True, witnesses=None),), identity_failures=(), disagreements=(), "
     "spin_cross_checks=(), parity_checks=(), negative_checks=((2, 3, 3, False),), ok=False)"),
]
IDS = [type(rec).__name__ for rec, *_ in RECORDS]


@pytest.mark.parametrize("rec,fields,defaults,text", RECORDS, ids=IDS)
def test_record_fields_defaults_and_repr(rec, fields, defaults, text):
    assert type(rec)._fields == fields
    assert type(rec)._field_defaults == defaults
    assert repr(rec) == text


@pytest.mark.parametrize("rec", [r for r, *_ in RECORDS], ids=IDS)
def test_record_is_an_immutable_value(rec):
    twin = type(rec)(**rec._asdict())
    assert twin == rec and hash(twin) == hash(rec)
    assert twin == tuple(rec)
    with pytest.raises(AttributeError):
        setattr(rec, type(rec)._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is type(rec) and copy == rec and repr(copy) == repr(rec)


@pytest.mark.parametrize("bad", [
    tuple.__new__(RootSystemType, ("E", True)),
    tuple.__new__(RootSystemType, ("H", 3)),
    tuple.__new__(Parabolic, (3, frozenset({4}))),
    tuple.__new__(Parabolic, (3, 1)),
])
def test_unpickling_goes_through_the_checks(bad):
    # Records forged past the constructor must not come back from a pickle.
    data = pickle.dumps(bad)
    with pytest.raises(RootSystemError):
        pickle.loads(data)


def test_import_loads_no_dataclasses_typing_or_inspect():
    root = Path(__file__).resolve().parents[1]
    code = ("import sys, weylpath; "
            "print(' '.join(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
