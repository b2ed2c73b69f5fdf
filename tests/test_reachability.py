"""Every module-level function and class in src/xmodcoh is reached from the
program's entry points, or is on an allowlist with its reason, and so is
every method of a reached class.

The walk is by name over the source's syntax trees, so it is approximate:
a definition counts as reached once a reached body names it, directly, as
an imported name, or as an attribute of an imported module.  A reached
class brings its class-level statements and its dunder methods, which
Python calls itself; any other method counts as reached only once reached
code uses its name as an attribute, on whatever object.  Type annotations
reach nothing.  The entry points are ``cli.TASKS``, ``cli.main``,
``xmodcoh.__all__``, every module-level statement that is not a
definition, and the functions and methods that ``perfbench/tracer.py``
wraps by name."""

import ast
from pathlib import Path

from test_tracer_names import load_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "xmodcoh"

# module-level functions and classes that no entry point reaches, each
# with the reason it stays
ALLOWED = {
    "crossed.Witness1": "a coboundary witness; only homotopies.py builds it",
    "homotopies.SimplicialHomotopy": "homotopies.py awaits a task (item 6)",
    "homotopies._check_witness": "homotopies.py awaits a task (item 6)",
    "homotopies._layers": "homotopies.py awaits a task (item 6)",
    "homotopies._theta_simplex": "homotopies.py awaits a task (item 6)",
    "homotopies.coboundary_to_homotopy":
        "homotopies.py awaits a task (item 6)",
    "homotopies.cocycle_to_simplicial_map":
        "homotopies.py awaits a task (item 6)",
    "homotopies.compose_maps": "homotopies.py awaits a task (item 6)",
    "homotopies.conjugation_nerve_map":
        "homotopies.py awaits a task (item 6)",
    "homotopies.homotopy_violations": "homotopies.py awaits a task (item 6)",
    "homotopies.outer_witness_homotopy":
        "homotopies.py awaits a task (item 6)",
    "simplicial.prism": "used by homotopies.py only (item 6)",
    "simplicial.prism_end": "used by homotopies.py only (item 6)",
    "unitary.CircleValue.snap":
        "the lazy fraction of a circle value, which no report reads; its "
        "snap_tol is a field of every value",
}
# "item n" is an open item of ROADMAP.md


class _Names(ast.NodeVisitor):
    """The names and module attributes a syntax tree uses, annotations
    left out."""

    def __init__(self):
        self.names, self.attrs, self.attr_names = set(), set(), set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            self.attrs.add((node.value.id, node.attr))
        self.attr_names.add(node.attr)
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        """A class's bases, decorators and class-level statements; its
        methods are walked on their own."""
        for child in node.bases + node.keywords + node.decorator_list:
            self.visit(child)
        for child in node.body:
            if not _is_method(child):
                self.visit(child)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for part in (node.decorator_list, node.args.defaults,
                     node.args.kw_defaults, node.body):
            for child in part:
                if child is not None:
                    self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _is_method(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _modules():
    """name -> (definitions, imports, other top-level statements)."""
    files = {p.stem: p for p in SRC.glob("*.py")}
    out = {}
    for name, path in files.items():
        tree = ast.parse(path.read_text())
        defs, imports, rest = {}, {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[t.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                rest.append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (alias.name, None) if node.module is None \
                        and alias.name in files else \
                        (node.module or "__init__", alias.name)
                    imports[alias.asname or alias.name] = target
        out[name] = defs, imports, rest
    return out


def unreached() -> list[str]:
    modules = _modules()

    def resolve(module, name):
        """The (module, definition) a name stands for, or None."""
        for _ in range(len(modules)):
            defs, imports, _ = modules[module]
            if name in defs:
                return module, name
            if name not in imports or imports[name][1] is None:
                return None
            module, name = imports[name]
        return None

    tracer = load_tracer()
    roots = [("cli", "TASKS"), ("cli", "main")]
    public = modules["__init__"][0]["__all__"].value.elts
    roots += [resolve("__init__", e.value) for e in public]
    roots += [resolve(mod, attr.split(".")[0])
              for _, mod, attr, _ in tracer.LAYERS]
    todo = [r for r in roots if r is not None]
    for module, (_, _, rest) in modules.items():
        todo += [(module, node) for node in rest]
    # attribute names that reached code uses, and the methods of reached
    # classes that wait for one: name -> [(module, "Class.method", node)]
    used = {attr.split(".")[1] for _, _, attr, _ in tracer.LAYERS
            if "." in attr}
    waiting: dict[str, list] = {}
    seen = set()
    while todo:
        module, item = todo.pop()
        if isinstance(item, str):
            if (module, item) in seen:
                continue
            seen.add((module, item))
            item = modules[module][0][item]
            if isinstance(item, ast.ClassDef):
                for method in filter(_is_method, item.body):
                    name = method.name
                    if name.startswith("__") and name.endswith("__"):
                        todo.append((module, method))
                    else:
                        waiting.setdefault(name, []).append(
                            (module, f"{item.name}.{name}", method))
        names = _Names()
        names.visit(item)
        imports = modules[module][1]
        found = [resolve(module, n) for n in names.names]
        found += [resolve(imports[a][0], attr) for a, attr in names.attrs
                  if a in imports and imports[a][1] is None]
        todo += [f for f in found if f is not None and f not in seen]
        used |= names.attr_names
        for name in used & waiting.keys():
            todo += [(owner, method) for owner, _, method in waiting.pop(name)]
    return sorted([f"{module}.{name}"
                   for module, (defs, _, _) in modules.items()
                   for name, node in defs.items()
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and (module, name) not in seen]
                  + [f"{owner}.{key}" for entries in waiting.values()
                     for owner, key, _ in entries])


def test_every_definition_is_reached_or_allowed():
    missing = sorted(set(unreached()) - set(ALLOWED))
    assert not missing, f"unreached and not allowed: {missing}"


def test_the_allowlist_holds_only_unreached_names():
    stale = sorted(set(ALLOWED) - set(unreached()))
    assert not stale, f"reached now, drop from ALLOWED: {stale}"
