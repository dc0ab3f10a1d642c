"""Source guard: every function and method defined in `src/tokenloc` is
named somewhere in the package, so no helper lives on for the tests
alone."""

import ast
from pathlib import Path

import tokenloc

PACKAGE = Path(tokenloc.__file__).parent
# called from outside the package's code: argparse calls its parser's `error`
EXEMPT = {("cli.py", "error")}


def unnamed_functions(sources: dict) -> list:
    """`module:function` for each function or method of the {module:
    source} texts that no Name, Attribute or import of any of them names;
    dunders and EXEMPT are skipped."""
    defined, named = [], set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text, module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}:{name}" for module, name in defined
            if name not in named and (module, name) not in EXEMPT
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_function_of_the_package_is_named_in_it():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "localization.py" in sources and "cli.py" in sources
    assert unnamed_functions(sources) == []


def test_the_guard_finds_a_helper_that_nothing_names():
    sources = {"a.py": "from .b import imported\n\n"
                       "def called():\n    pass\n\n"
                       "def unused():\n    pass\n\n"
                       "class C:\n    def __init__(self):\n        pass\n\n"
                       "    def method(self):\n        pass\n\n"
                       "    def error(self):\n        pass\n\n"
                       "called()\n",
               "b.py": "def imported():\n    pass\n\n"
                       "def attribute():\n    pass\n\n"
                       "def helper():\n    return C().attribute\n",
               "cli.py": "def error():\n    pass\n"}
    assert unnamed_functions(sources) == ["a.py:unused", "a.py:method", "a.py:error",
                                          "b.py:helper"]
