"""Records declare their fields once, in ``__slots__``.

``_Record`` writes every record's constructor from its slots, so no
record in the package writes its own, and only ``terms`` sets fields
with ``_setattr``.  Each constructor takes the fields in slot order,
which is what pickling, copying and class patterns rely on.
"""
import ast
import copy
import inspect
import pickle
from pathlib import Path

import pytest

import meadow
from meadow import (
    Add, BasicTerm, CheckReport, CrtDecomposition, Div, Exhaustive,
    ExponentPair, Inv, MultiPoly, Mul, Neg, ONE, Sampled, SignedFraction,
    SimpleClosedFraction, SumOfSimpleFractions, Term, UniPoly, Var, ZERO,
)
from meadow.terms import _Record

x = Var("x")

# one value of each record class that can be built
SAMPLES = [
    ZERO, ONE, x, Add(x, ONE), Mul(x, x), Neg(x), Div(ONE, x), Inv(x),
    Exhaustive(), Sampled(7, 3), CheckReport("refuted", {"x": 2}, 5, 1),
    CrtDecomposition(6, (2, 3), ()), SignedFraction(-1, 3, 2),
    BasicTerm((SignedFraction(1, 1, 2),)), UniPoly("x", (1, 0, 2)),
    MultiPoly.variable("x"), SimpleClosedFraction(-1, 2, 3),
    ExponentPair(3, 1),
    SumOfSimpleFractions(((MultiPoly.constant(1), MultiPoly.variable("x")),)),
]


def record_classes() -> list[type]:
    """Every subclass of _Record in the package, at any depth."""
    found, todo = [], [_Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("meadow."):
                found.append(cls)
                todo.append(cls)
    return found


def test_samples_cover_every_record():
    # Term is the abstract base of the term nodes
    assert sorted(type(v).__name__ for v in SAMPLES) == sorted(
        cls.__name__ for cls in record_classes() if cls is not Term)


@pytest.mark.parametrize("cls", record_classes(), ids=lambda c: c.__name__)
def test_constructor_takes_the_slots_in_order(cls):
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_pickle_and_copy_give_back_an_equal_value(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
        assert type(twin) is type(value) and twin == value


def test_no_record_writes_its_own_constructor_or_sets_fields():
    records = {cls.__name__ for cls in record_classes()} | {"_Record"}
    package = Path(meadow.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in records:
                assert "__init__" not in {
                    f.name for f in node.body
                    if isinstance(f, ast.FunctionDef)}, node.name
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert ("_setattr" in names) == (path.name == "terms.py"), path.name


@pytest.mark.parametrize("make, message", [
    (lambda: Add(x), "Add.__init__() missing 1 required positional "
     "argument: 'right'"),
    (lambda: Add(x, x, x), "Add.__init__() takes 3 positional arguments "
     "but 4 were given"),
    (lambda: Add(x, x, left=x), "Add.__init__() got multiple values for "
     "argument 'left'"),
    (lambda: Add(x, rigth=x), "Add.__init__() got an unexpected keyword "
     "argument 'rigth'"),
    (lambda: CheckReport("valid", None), "CheckReport.__init__() missing 1 "
     "required positional argument: 'evaluations'"),
    (lambda: CheckReport("valid", None, 1, 0, 0), "CheckReport.__init__() "
     "takes from 4 to 5 positional arguments but 6 were given"),
    (lambda: CheckReport("valid", None, 1, sed=0), "CheckReport.__init__() "
     "got an unexpected keyword argument 'sed'"),
], ids=["add-missing", "add-extra", "add-twice", "add-unknown",
        "report-missing", "report-extra", "report-unknown"])
def test_a_missing_or_extra_argument_is_a_type_error(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message
