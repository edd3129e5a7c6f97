"""Package-wide rules: one JSON form per report, no `assert` statements, no
module importing another's private names, a name it never reads,
`dataclasses` or `typing`, or setting the recursion limit, no module but
groups.py reading the stabiliser chain, no parameter left unread, no
public name without a caller, no private function without a caller in the
package, and every name the bench tracer wraps still exists."""

import ast
import importlib.util
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import symbreak
from symbreak.colourings import (
    Colouring,
    DistinguishReport,
    McEstimate,
    RusselSundaramReport,
)
from symbreak.conditions import (
    DscReport,
    EquivalenceClasses,
    GrowthBoundReport,
    GrowthClassifierReport,
    LayerFixingReport,
    RefinementIteration,
    RefinementLevel,
    SphereEquivalenceResult,
)
from symbreak.graphs import (
    FamilySpec,
    GrowthProfile,
    cartesian_product,
    graph_to_json_dict,
    path_graph,
    rooted_tree,
)
from symbreak.groups import MotionReport, PermGroup
from symbreak.jsonfields import json_value
from symbreak.perms import Perm
from symbreak.topology import Ball, BallDecomposition, StabiliserMeasureReport

CLASSES = EquivalenceClasses("suborbit", ((0, 2), (1,)), {"budget": 1}, ((0, 2),))
BALL = Ball((0, 2), Perm([2, 1, 0]), 2, (Perm([2, 1, 0]), Perm([0, 1, 2])))
FAMILY_PARAMS = {"left": {"kind": "double_ray", "params": {}, "radius": 1}, "right": "p3.txt"}

# One report of each type and its JSON, pinned: renaming or reordering a
# field changes the JSON of a report whose `to_json_dict` lists its fields.
PINNED = [
    (
        MotionReport(2, Perm([1, 0, 2]), "backtrack"),
        '{"motion": 2, "witness": [1, 0, 2], "method": "backtrack"}',
    ),
    (
        PermGroup(3, [Perm([1, 0, 2])]),
        '{"degree": 3, "generators": [[1, 0, 2]], "order": 2}',
    ),
    (
        DscReport(0, 2, "R - depth", 3, ((1, 2),), ((3, 4),), {(1, 5): 1, (1, 3): 2}),
        '{"root": 0, "radius": 2, "horizon_rule": "R - depth", "checked_pairs": 3, '
        '"violations": [[1, 2]], "at_horizon": [[3, 4]], "first_separating_n": {"1,3": 2, "1,5": 1}}',
    ),
    (
        CLASSES,
        '{"relation": "suborbit", "classes": [[0, 2], [1]], "parameters": {"budget": 1}, '
        '"closure_added": [[0, 2]]}',
    ),
    (
        SphereEquivalenceResult(True, False, None, 4),
        '{"equivalent": true, "in_same_orbit": false, "matched_n0": null, "horizon": 4}',
    ),
    (
        RefinementIteration((RefinementLevel(6, CLASSES),), True),
        '{"orders": [6], "fixpoint_reached": true, "levels": [{"group_order": 6, "classes": '
        '{"relation": "suborbit", "classes": [[0, 2], [1]], "parameters": {"budget": 1}, '
        '"closure_added": [[0, 2]]}}]}',
    ),
    (
        LayerFixingReport(2, Fraction(1, 2)),
        '{"group_order": 2, "respecting_fraction": "1/2"}',
    ),
    (
        GrowthBoundReport(16, 2, 1.5, 0.25, 12.5, 64, -3.25, 0.75),
        '{"n": 16, "j": 2, "c": 1.5, "eps": 0.25, "log2_pi_bound": 12.5, "motion_lower": 64, '
        '"log2_failure_bound": -3.25, "product_lower": 0.75}',
    ),
    (
        GrowthClassifierReport(0.25, 1.5, (1, 5), (1.0, 1.25)),
        '{"eps": 0.25, "c_fit": 1.5, "ball_sizes": [1, 5], "ratios": [1.0, 1.25]}',
    ),
    (
        DistinguishReport(False, Perm([1, 0])),
        '{"distinguishing": false, "witness": [1, 0]}',
    ),
    (
        McEstimate(3, 4, 0.75, 0.25),
        '{"successes": 3, "trials": 4, "estimate": 0.75, "stderr": 0.25}',
    ),
    (
        RusselSundaramReport(Fraction(1, 2), True, Colouring((0, 1, 1)), 2, 2),
        '{"bound": "1/2", "applicable": true, "witness": "011", "motion": 2, "group_order": 2}',
    ),
    (
        FamilySpec("cartesian_product", FAMILY_PARAMS, 2),
        '{"kind": "cartesian_product", "params": {"left": {"kind": "double_ray", "params": {}, '
        '"radius": 1}, "right": "p3.txt"}, "radius": 2}',
    ),
    (
        GrowthProfile((1, 3, 5), (1, 2, 2), 2),
        '{"ball_sizes": [1, 3, 5], "sphere_sizes": [1, 2, 2], "eccentricity": 2}',
    ),
    (
        BALL,
        '{"key": [0, 2], "representative": [2, 1, 0], "size": 2, "members": [[2, 1, 0], [0, 1, 2]]}',
    ),
    (
        BallDecomposition(1, Fraction(1, 2), (BALL, Ball((1, 0), Perm([1, 0, 2]), 2, None)), 4),
        '{"level": 1, "radius": "1/2", "group_order": 4, "balls": [{"key": [0, 2], '
        '"representative": [2, 1, 0], "size": 2, "members": [[2, 1, 0], [0, 1, 2]]}, '
        '{"key": [1, 0], "representative": [1, 0, 2], "size": 2, "members": null}]}',
    ),
    (
        StabiliserMeasureReport(Fraction(3, 8), Fraction(5, 8)),
        '{"expected_stabiliser_measure": "3/8", "colour_first": "3/8", "group_first": "5/8", '
        '"fubini_check": "fail"}',
    ),
]


@pytest.mark.parametrize("report, text", PINNED, ids=[type(r).__name__ for r, _ in PINNED])
def test_report_json_is_pinned(report, text):
    assert json.dumps(report.to_json_dict()) == text
    assert json.dumps(json_value(report)) == text


def test_graph_json_is_pinned():
    g = cartesian_product(rooted_tree(2, 1), path_graph(2))
    assert json.dumps(graph_to_json_dict(g)) == (
        '{"vertex_count": 6, "edges": [[0, 1], [0, 2], [0, 4], [1, 3], [1, 5], [2, 3], [4, 5]], '
        '"labels": [[[], 0], [[], 1], [[0], 0], [[0], 1], [[1], 0], [[1], 1]]}'
    )


def test_json_value_refuses_what_has_no_json_form():
    with pytest.raises(TypeError, match="Colouring"):
        json_value({"witness": Colouring((0, 1))})


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so invariants raise real exceptions."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(symbreak.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_no_private_names():
    """A module uses another module's public names only: an underscore name
    is free to change with the module that defines it."""
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(Path(symbreak.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_package_sets_no_recursion_limit():
    """The recursion limit is process-global: no search or walk may need it raised."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(symbreak.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setrecursionlimit"
    ]
    assert found == []


def test_package_imports_only_names_it_reads():
    """An import nothing reads is dead weight that outlives the code that
    needed it.  `__init__.py` is exempt: its imports are the public API."""
    found = []
    for path in sorted(Path(symbreak.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert found == []


#: Standard modules the package does without: `dataclasses` execs
#: generated methods for every class and loads `inspect`, and annotations
#: are strings under `from __future__ import annotations`, so nothing needs
#: `typing`.  Records derive from `jsonfields.Record`.
IMPORTS_REFUSED = {"dataclasses", "typing"}


def test_package_imports_no_dataclasses_or_typing():
    """Each import costs every CLI process its start-up time."""
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(Path(symbreak.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] in IMPORTS_REFUSED
    ]
    assert found == []


#: The stabiliser chain's attributes: groups.py alone reads them.
CHAIN_ATTRIBUTES = {"base", "transversals", "strong_generators"}


def test_only_groups_reads_the_stabiliser_chain():
    """Enumeration, motion and membership read the chain inside `PermGroup`;
    any other module sees a group through its generators and queries, so
    its output cannot depend on which chain the group holds."""
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(Path(symbreak.__file__).parent.glob("*.py"))
        if path.name != "groups.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in CHAIN_ATTRIBUTES
    ]
    assert found == []


#: Parameters a body may leave unread: a frozen class's `__setattr__` refuses
#: every call, and `motion(cap)` is still called as `motion(0)` by the bench.
UNREAD_PARAMETERS_ALLOWED = {("__setattr__", "self"), ("__setattr__", "name"),
                             ("__setattr__", "value"), ("motion", "cap")}


def test_package_functions_read_every_parameter():
    """A parameter the body never reads is an option nobody can set."""
    found = []
    for path in sorted(Path(symbreak.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for statement in body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            found += [
                f"{path.name}:{node.lineno} {name}({p})"
                for p in params
                if p not in read and (name, p) not in UNREAD_PARAMETERS_ALLOWED
            ]
    assert found == []


#: Public names no caller needs: `raw_words` is how the tests pin the README
#: "Reproducibility" stream contract word for word.
UNCALLED_NAMES_ALLOWED = {"SeededRng.raw_words"}


def names_used(tree, bare_names=True):
    """Every attribute and whole-string constant in `tree`, and every bare
    name unless `bare_names` is false: the bench tracer looks the names it
    wraps up by string, and a method is called only as an attribute, so a
    local variable of the same name is no caller."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and bare_names
        or isinstance(n, ast.Attribute)
        or isinstance(n, ast.Constant) and isinstance(n.value, str)
    )


def test_every_public_name_has_a_caller():
    """Each public function, class and method of the package is named in the
    package outside its own definition, in bench/ or in the acceptance
    tests; otherwise it is surface that nothing uses."""
    root = Path(__file__).resolve().parents[1]
    package = sorted(Path(symbreak.__file__).parent.glob("*.py"))
    callers = sorted((root / "bench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    used = {True: Counter(), False: Counter()}  # keyed by `bare_names`
    defined = []  # (qualified name, definition, whether bare names count)
    for path in package + callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for bare_names, counter in used.items():
            counter.update(names_used(tree, bare_names))
        for node in tree.body if path in package else ():
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.append((node.name, node, True))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{method.name}", method, False)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                ]
    found = [
        qualified
        for qualified, node, bare_names in defined
        if used[bare_names][node.name] == names_used(node, bare_names)[node.name]
        and qualified not in UNCALLED_NAMES_ALLOWED
    ]
    assert found == []


def test_every_private_function_has_a_package_caller():
    """Each `_name` function and method of the package, dunders aside, is
    named in the package outside its own definition: a helper that only the
    tests call belongs in the tests."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(symbreak.__file__).parent.glob("*.py"))
    ]
    used = {bare_names: sum((names_used(t, bare_names) for t in trees), Counter())
            for bare_names in (True, False)}
    methods = {
        id(method)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for method in node.body
    }
    found = []
    for node in (node for tree in trees for node in ast.walk(tree)):
        name = getattr(node, "name", "")
        if not isinstance(node, ast.FunctionDef) or name[:1] != "_" or name.endswith("__"):
            continue
        bare_names = id(node) not in methods  # a method is called only as an attribute
        if used[bare_names][name] == names_used(node, bare_names)[name]:
            found.append(name)
    assert found == []


def test_bench_tracer_installs_and_uninstalls():
    """bench/tracer.py wraps symbreak names by lookup, so a deleted or renamed
    one makes install() raise here rather than in a traced bench run."""
    import symbreak.cli  # noqa: F401  (the tracer patches the bindings of loaded modules)

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    def bindings():
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "symbreak"]
        owners = modules + [PermGroup, Perm, symbreak.Graph, symbreak.SeededRng]
        return {(id(owner), k): v for owner in owners for k, v in vars(owner).items()}

    before = bindings()
    tracer = tracer_module.Tracer(symbreak)
    tracer.install()
    try:
        assert PermGroup.__dict__["element_list"] is not before[(id(PermGroup), "element_list")]
        tracer.enabled = True
        symbreak.automorphism_group(symbreak.cycle_graph(4)).element_list()
        tracer.enabled = False
        _, inclusive, counts = tracer.take_pass()
    finally:
        tracer.uninstall()
    assert counts["groups.elements_yielded"] == 8
    assert "groups.chain" in inclusive
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
