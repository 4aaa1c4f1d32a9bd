import ast
import pathlib

import freesplit

SRC = pathlib.Path(freesplit.__file__).parent
TESTS = pathlib.Path(__file__).parent


def test_no_function_level_imports():
    # imports sit at module level, in the library and in its tests, so the
    # module graph has no hidden cycle and each file names what it uses
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found += [f"{path.parent.name}/{path.name}:{node.lineno}"
                      for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


# process-wide caches; a per-instance cached_property lives with its object
CACHE_DECORATORS = {"lru_cache", "cache"}


def test_no_process_wide_state():
    # no module keeps state between calls: no global statement and no
    # functools cache, so each memo lives with the object that uses it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in CACHE_DECORATORS:
                    found.append(f"{path.name}:{dec.lineno} {name}")
    assert found == []
