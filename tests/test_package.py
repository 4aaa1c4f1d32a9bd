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


def _import_targets(node) -> list[str]:
    """Dotted names an import statement may bind a module from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_whitehead_and_fixtures_import_no_config():
    # the Whitehead letter budget is a module constant, so the fills
    # verdicts and the fixtures they check take no Config
    found = []
    for name in ("whitehead.py", "fixtures.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and any("config" in target.split(".")
                          for target in _import_targets(node))]
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


# Public names kept without a caller, each for a stated reason.
UNCALLED = {
    # reserved for ROADMAP item 2, the search for invariant splittings
    # from free factor supports
    "co_edge_number", "ffs_carried", "free_factor_support",
}


def _referenced(node, skip=None) -> set:
    """Names loaded as a Name or an Attribute anywhere under ``node``,
    except under ``skip``; a stored name, such as a dataclass field of the
    same name, is not a use."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def test_every_public_name_has_a_caller():
    # every top-level public def or class, and every name the package
    # re-exports, is used by the library itself or by an acceptance
    # criterion; helpers only tests reach are deleted, not kept
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defs = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defs[node.name] = node
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    acceptance = _referenced(ast.parse(
        (TESTS / "test_acceptance.py").read_text(encoding="utf-8")))
    uncalled = sorted(
        name for name in set(defs) | exported
        if name not in acceptance and not any(
            name in _referenced(tree, defs.get(name))
            for tree in trees.values()))
    assert uncalled == sorted(UNCALLED)


def test_every_field_is_read():
    # an annotated class field that no attribute load reads, in the
    # library, its tests or the bench harness, is state kept for nothing
    def trees(folder):
        return [ast.parse(p.read_text(encoding="utf-8"))
                for p in sorted(folder.glob("*.py"))]
    fields = [f"{cls.name}.{node.target.id}"
              for tree in trees(SRC) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)]
    read = {node.attr
            for folder in (SRC, TESTS, TESTS.parent / "bench")
            for tree in trees(folder) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert [f for f in fields if f.split(".")[1] not in read] == []
