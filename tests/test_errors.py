"""The exception taxonomy: every class is still in use."""

import ast
import inspect
from pathlib import Path

from descriptor_minimax import errors

SOURCE = Path(errors.__file__).resolve().parent


def test_every_error_class_is_raised_somewhere():
    # constructed counts: linalg returns InvalidBounds for its caller to
    # raise. A class whose last raise is gone would otherwise linger.
    defined = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__ and name != "EstimationError"
    }
    built = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                built.add(node.func.id)
    assert defined - built == set()
