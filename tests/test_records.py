"""The package's record types are NamedTuples: immutable, updated with
`_replace`, printed as `Name(field=value, ...)`, and told apart by type
wherever two of them could hold equal fields."""

import inspect
import json
import sys

import pytest

import equitiler  # noqa: F401  (loads every module of the package)
from equitiler import DecisionCertificate
from equitiler.certificates import certificate_from_json, certificate_to_json, verify_certificate
from equitiler.extremal import (
    BicliqueObstruction,
    CliqueObstruction,
    Ex1Witness,
    build_ex1_like,
    ex2_witness,
)
from equitiler.graphs import VertexSet
from equitiler.matching import TutteBarrier
from equitiler.oracle import Coloring, Tiling

RECORD_NAMES = [
    "AbsorbingSet", "AugmentationMove", "BicliqueObstruction", "CliqueObstruction",
    "Coloring", "DecisionCertificate", "DoubleBase", "Ex1Witness", "Ex2Witness",
    "GoodPartition", "LayeredFactor", "Matching", "OreStats", "RsPartition",
    "SingleBase", "SweepReport", "Tiling", "TutteBarrier", "VertexClassification",
]


def _records():
    return {
        obj.__name__: obj
        for mod in list(sys.modules.values())
        if mod is not None and mod.__name__.startswith("equitiler.")
        for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
        and issubclass(obj, tuple) and hasattr(obj, "_fields")
    }


RECORDS = _records()


def test_every_record_is_a_named_tuple():
    assert sorted(RECORDS) == RECORD_NAMES


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_semantics(name):
    cls = RECORDS[name]
    values = [f"v{i}" for i in range(len(cls._fields))]
    rec = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, "changed")
    for i, field in enumerate(cls._fields):
        new = rec._replace(**{field: "new"})
        assert type(new) is cls
        assert list(new) == values[:i] + ["new"] + values[i + 1:]
    assert list(rec) == values
    pairs = ", ".join(f"{field}={value!r}" for field, value in zip(cls._fields, values))
    assert repr(rec) == f"{name}({pairs})"


def vs(*vals):
    return VertexSet(vals)


PAYLOADS = {
    "tiling": (Tiling(3, (vs(0, 1, 2), vs(3, 4, 5))), None),
    "coloring": (Coloring((vs(0, 2), vs(1, 3))), None),
    "independent-set": (None, Ex1Witness(vs(0, 1, 2, 3, 4))),
    "odd-split": (None, ex2_witness(12, 3, 1)),
    "clique": (None, CliqueObstruction(vs(0, 1, 2, 3))),
    "biclique": (None, BicliqueObstruction(vs(0), vs(1, 2, 3))),
    "tutte-barrier": (None, TutteBarrier(vs(0))),
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_certificate_json_roundtrip(name):
    certificate, witness = PAYLOADS[name]
    kind = "obstructed" if certificate is None else "factorable"
    cert = DecisionCertificate(kind, certificate is not None, certificate, witness, "oracle",
                               True, ("a note",), (("oracle", 0.25),))
    text = json.dumps(certificate_to_json(cert), sort_keys=True)
    back = certificate_from_json(json.loads(text))
    assert back == cert
    assert type(back.certificate) is type(certificate)
    assert type(back.witness) is type(witness)


def test_witness_kinds_are_told_apart_by_type():
    # Both witnesses are one-field tuples of the same vertex set, so they
    # compare equal; only the independent set blocks a factor.
    g = build_ex1_like(12, 3)
    members = vs(0, 1, 2, 3, 4)
    assert CliqueObstruction(members) == Ex1Witness(members)
    for witness, clauses in ((Ex1Witness(members), []),
                             (CliqueObstruction(members), ["clique witness fails"])):
        cert = DecisionCertificate("obstructed", False, None, witness, "recognizer", True)
        assert verify_certificate(g, cert, "factor", 3) == clauses
