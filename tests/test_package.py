import ast
import pathlib

import freesplit

SRC = pathlib.Path(freesplit.__file__).parent


def test_no_function_level_imports():
    # imports sit at module level, so the module graph has no hidden cycle
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
