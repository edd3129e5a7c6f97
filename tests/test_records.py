"""`Record`, the base of the package's frozen value classes.

This module needs neither numpy nor pytest, so it also runs as a script
under interpreters that have neither:

    PYTHONPATH=src python tests/test_records.py
"""

import importlib

from symbreak.colourings import Colouring, PartialColouring
from symbreak.graphs import FamilySpec, Truncation
from symbreak.jsonfields import JsonFields, Record
from symbreak.perms import Perm
from symbreak.rng import SeededRng

# Every record class's fields in declaration order, the order of its JSON
# keys: (module, class) -> fields.
FIELDS = {
    ("colourings", "Colouring"): ("colours", "k"),
    ("colourings", "PartialColouring"): ("domain", "colours", "k"),
    ("colourings", "DistinguishReport"): ("distinguishing", "witness"),
    ("colourings", "McEstimate"): ("successes", "trials", "estimate", "stderr"),
    ("colourings", "RusselSundaramReport"): ("bound", "applicable", "witness", "motion", "group_order"),
    ("conditions", "DscReport"): (
        "root", "radius", "horizon_rule", "checked_pairs", "violations", "at_horizon",
        "first_separating_n",
    ),
    ("conditions", "EquivalenceClasses"): ("relation", "classes", "parameters", "closure_added"),
    ("conditions", "SphereEquivalenceResult"): ("equivalent", "in_same_orbit", "matched_n0", "horizon"),
    ("conditions", "RefinementLevel"): ("group_order", "classes"),
    ("conditions", "RefinementIteration"): ("levels", "fixpoint_reached"),
    ("conditions", "LayerFixingReport"): ("group_order", "respecting_fraction"),
    ("conditions", "GrowthBoundReport"): (
        "n", "j", "c", "eps", "log2_pi_bound", "motion_lower", "log2_failure_bound", "product_lower",
    ),
    ("conditions", "GrowthClassifierReport"): ("eps", "c_fit", "ball_sizes", "ratios"),
    ("topology", "ExhaustionSequence"): ("level",),
    ("topology", "Ball"): ("key", "representative", "size", "members"),
    ("topology", "BallDecomposition"): ("level", "radius", "balls", "group_order"),
    ("topology", "StabiliserMeasureReport"): ("colour_first", "group_first"),
    ("graphs", "Truncation"): ("root", "radius"),
    ("graphs", "FamilySpec"): ("kind", "params", "radius"),
    ("graphs", "GrowthProfile"): ("ball_sizes", "sphere_sizes", "eccentricity"),
    ("groups", "MotionReport"): ("motion", "witness", "method"),
    ("rng", "SeededRng"): ("master_seed", "stream_id"),
}


def raises(exception, call, *args, **kwargs):
    """The message of the `exception` that `call(*args, **kwargs)` raises."""
    try:
        call(*args, **kwargs)
    except exception as error:
        return str(error)
    raise AssertionError(f"{call} did not raise {exception.__name__}")


def record_classes():
    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("symbreak.") and cls not in (Record, JsonFields):
            found.append(cls)
    return found


def test_fields_are_pinned_in_order():
    for (module, name), fields in FIELDS.items():
        cls = getattr(importlib.import_module(f"symbreak.{module}"), name)
        assert issubclass(cls, Record), name
        assert cls._fields == fields, name
    assert sorted((c.__module__, c.__name__) for c in record_classes()) == sorted(
        (f"symbreak.{module}", name) for module, name in FIELDS
    )


def test_defaults_and_binding():
    assert Colouring((0, 1)).k == 2
    assert SeededRng(5).stream_id == 0
    assert SeededRng(5) == SeededRng(master_seed=5) == SeededRng(5, stream_id=0)
    assert SeededRng(stream_id=3, master_seed=5) == SeededRng(5, 3)
    assert PartialColouring((1,), colours=(2,), k=3).colour_map() == {1: 2}
    spec = FamilySpec(kind="ladder", params={}, radius=2)
    assert (spec.kind, spec.params, spec.radius) == ("ladder", {}, 2)


def test_binding_refuses_missing_extra_and_repeated_fields():
    assert "missing fields ['radius']" in raises(TypeError, Truncation, 0)
    assert "missing fields ['master_seed']" in raises(TypeError, SeededRng, stream_id=1)
    assert "takes 2 fields but 3 were given" in raises(TypeError, Truncation, 0, 1, 2)
    assert "unexpected field 'depth'" in raises(TypeError, Truncation, 0, 1, depth=2)
    assert "multiple values for field 'root'" in raises(TypeError, Truncation, 0, root=1)


def test_post_init_still_validates_and_normalises():
    assert "must be an int" in raises(ValueError, Colouring, (0, 1, 2), 2.5)
    assert "equal length" in raises(ValueError, PartialColouring, (0, 1), (0,))
    assert Colouring([0, 1], k=2).colours == (0, 1)
    assert Colouring([0, 1]) == Colouring((0, 1))


def test_equality_and_hash_follow_the_field_tuple():
    assert Truncation(0, 3) == Truncation(0, 3)
    assert Truncation(0, 3) != Truncation(3, 0)
    assert hash(Truncation(0, 3)) == hash((0, 3))
    assert len({SeededRng(1), SeededRng(1, 0), SeededRng(1, 1)}) == 2
    # same fields, other class: never equal
    assert SeededRng(0, 3) != Truncation(0, 3)
    assert Truncation(0, 3) != (0, 3)
    # a dict field makes the record unhashable, as a tuple holding it is
    assert "unhashable" in raises(TypeError, hash, FamilySpec("ladder", {}, 2))


def test_repr_names_every_field():
    assert repr(Truncation(0, 3)) == "Truncation(root=0, radius=3)"
    assert repr(Colouring((0, 1))) == "Colouring(colours=(0, 1), k=2)"
    assert repr(SeededRng(7)) == "SeededRng(master_seed=7, stream_id=0)"


def test_records_are_frozen():
    c = Colouring((0, 1))
    assert "frozen" in raises(AttributeError, setattr, c, "k", 3)
    assert "frozen" in raises(AttributeError, setattr, c, "other", 3)
    assert "frozen" in raises(AttributeError, delattr, c, "k")
    assert c == Colouring((0, 1))


def test_json_fields_follow_declaration_order():
    from symbreak.groups import MotionReport

    report = MotionReport(2, Perm([1, 0]), "backtrack")
    assert list(report.to_json_dict()) == ["motion", "witness", "method"]
    assert report.to_json_dict()["witness"] == [1, 0]


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
