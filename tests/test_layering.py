"""Package layering: every import between sliceprofit modules runs at
module level, those imports form no cycle, only the CLI and the package
root import the scenario file format, only orthogonal reaches the LP
engine, and the stream and Pareto modules sit below multiplex. Small
tolerances are named, every command-line option is read by the CLI, and
every function the benchmark's tracer wraps still exists.
Every defaulted parameter of a public function is passed by some call in
the package, and every public name is used by some package module or
kept on purpose."""

import ast
import graphlib
import importlib
import inspect
import pathlib
import sys

import sliceprofit

PACKAGE = pathlib.Path(sliceprofit.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def sibling_imports(node) -> set:
    """Package modules an import statement names; empty for other nodes."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        found = {parts[1] if len(parts) > 1 else "__init__"
                 for parts in names if parts[0] == "sliceprofit"}
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            module = node.module
        elif (node.module or "").split(".")[0] == "sliceprofit":
            module = node.module.partition(".")[2]
        else:
            return set()
        found = {module.split(".")[0]} if module else {alias.name for alias in node.names}
    else:
        return set()
    return found & TREES.keys()


def module_level_graph() -> dict:
    """Module -> package modules it imports outside any function body."""
    graph = {}
    for name, tree in TREES.items():
        deps, stack = set(), list(tree.body)
        while stack:
            node = stack.pop()
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deps |= sibling_imports(node)
                stack.extend(ast.iter_child_nodes(node))
        graph[name] = deps - {name}
    return graph


def test_no_function_level_package_imports():
    local = [
        f"{name}.py:{node.lineno}"
        for name, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if sibling_imports(node)
    ]
    assert local == []


def test_module_imports_form_no_cycle():
    graph = module_level_graph()
    assert {"model", "scenario", "game", "cli"} <= graph.keys()
    order = list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
    assert order.index("model") < order.index("game") < order.index("scenario")


def test_streams_and_pareto_sit_below_multiplex():
    # numpy's stream copy stands on numpy alone and the Pareto kernel on the
    # model's errors alone, so neither reaches the GA that uses them
    graph = module_level_graph()
    assert graph["streams"] == set()
    assert graph["pareto"] <= {"model"}
    assert {"pareto", "streams"} <= graph["multiplex"]
    imported = {
        (alias.name if isinstance(node, ast.Import) else node.module or "").split(".")[0]
        for node in ast.walk(TREES["streams"]) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported - {"numpy"} <= sys.stdlib_module_names | {"__future__"}


def test_only_cli_and_package_root_read_the_file_format():
    graph = module_level_graph()
    assert {name for name, deps in graph.items() if "scenario" in deps} == {"cli", "__init__"}


def test_orthogonal_is_the_one_lp_boundary():
    # the benchmark's tracer counts LPs at orthogonal.linprog, and the HiGHS
    # driver is bound there alone, so no other module reaches the LP engine
    crossing = [
        f"{name}.py:{node.lineno}"
        for name, tree in TREES.items() if name != "orthogonal"
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("scipy.optimize"))
        or (isinstance(node, ast.Import)
            and any(alias.name.startswith("scipy.optimize") for alias in node.names))
        or (isinstance(node, ast.Call)
            and "linprog" in (getattr(node.func, "attr", None), getattr(node.func, "id", None)))
    ]
    assert crossing == []


def test_small_float_literals_are_named_constants():
    # a float below 1e-3 in magnitude is a tolerance: it is named once, as a
    # module-level constant or a class-body field default, never inline
    named = set()
    for tree in TREES.values():
        for node in tree.body:
            for stmt in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    named |= {id(c) for c in ast.walk(stmt)}
    inline = [
        f"{name}.py:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < 1e-3 and id(node) not in named
    ]
    assert inline == []


def parser_dests(func) -> set:
    """Destinations of the add_argument and add_subparsers calls in func."""
    dests = set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add_argument", "add_subparsers")):
            continue
        named = [kw.value.value for kw in node.keywords if kw.arg == "dest"]
        flags = [arg.value for arg in node.args if isinstance(arg, ast.Constant)
                 and arg.value.startswith("--")]
        dests |= set(named) if named else {flags[0][2:].replace("-", "_")}
    return dests


def test_every_cli_option_is_read():
    # an option no command reads is a knob that does nothing
    tree = TREES["cli"]
    (parser,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    read = {
        node.attr
        for func in tree.body if func is not parser
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    dests = parser_dests(parser) - {"command", "scenario", "out", "dry_run"}
    assert dests and sorted(dests - read) == []


def test_all_lists_every_public_name_but_the_submodules():
    # the package imports bind its submodules too; `from sliceprofit import *`
    # must not bind `scenario` or `game` to a module
    public = {name for name in dir(sliceprofit) if not name.startswith("_")}
    modules = {name for name in public if inspect.ismodule(getattr(sliceprofit, name))}
    assert {"model", "scenario", "game"} <= modules
    assert sorted(sliceprofit.__all__) == sorted(public - modules)
    star = {}
    exec("from sliceprofit import *", star)
    assert [name for name, value in star.items() if inspect.ismodule(value)] == []


def test_every_traced_name_exists():
    # the tracer skips a wrapped name it cannot find, and with it every
    # per-layer metric of that name, so a rename here fails no traced run
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    missing = [
        f"{module}.{attr}" for module, attr in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"sliceprofit.{module}"), attr, None))
    ]
    assert tracing.WRAPPED and missing == []
    # the tracer wraps one object in every module that binds it, so a local
    # wrapper in multiplex would still resolve but change what it counts
    assert sliceprofit.multiplex.nondominated_sort is sliceprofit.pareto.nondominated_sort
    assert sliceprofit.multiplex.crowding_distance is sliceprofit.pareto.crowding_distance
    # the tracer reads the first three arguments of solve_sizes by position
    params = list(inspect.signature(sliceprofit.orthogonal.solve_sizes).parameters.values())
    assert [p.name for p in params[:3]] == ["specs", "scheme", "pool"]
    assert all(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params[:3])



# Defaulted parameters that stay although no call in the package passes them.
UNPASSED_ALLOWED = {
    # the independent reference the weighted-sum LP is checked against
    "brute_force_oracle.weights",
}


def passed_arguments() -> dict:
    """Function name -> the keywords and positions any call in the package
    passes it; "*" stands for an unpacked *args or **kwargs."""
    passed = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                args = passed.setdefault(name, set())
                args |= {kw.arg or "*" for kw in node.keywords}
                args |= {"*" if isinstance(arg, ast.Starred) else pos
                         for pos, arg in enumerate(node.args)}
    return passed


def test_every_defaulted_parameter_has_a_caller():
    # a keyword only tests set is a knob the program never turns
    passed = passed_arguments()
    unpassed = []
    for name in sliceprofit.__all__:
        func = getattr(sliceprofit, name)
        if not inspect.isfunction(func):
            continue
        args = passed.get(func.__name__, set())
        for pos, param in enumerate(inspect.signature(func).parameters.values()):
            by_position = param.kind is not param.KEYWORD_ONLY and pos in args
            if param.default is not param.empty and not (
                    param.name in args or by_position or "*" in args):
                unpassed.append(f"{func.__name__}.{param.name}")
    assert sorted(set(unpassed) - UNPASSED_ALLOWED) == []


# Public names that no package module uses, each kept for a reason.
PUBLIC_ALLOWED = {
    "check_feasible": "the benchmark's tracer wraps it (perfbench/tracing.py WRAPPED); "
                      "it goes with the tracer",
    "build_allocation": "the benchmark's tracer wraps it (perfbench/tracing.py WRAPPED); "
                        "it goes with the tracer",
    "multiplexing_gain": "the paper's sharing gain, pinned by test_04",
    "save_scenario": "the documented scenario file writer",
    "verify_nash": "the Nash check the benchmark's market jobs run; the CLI does not",
}


def referenced_names() -> set:
    """Names the package modules other than __init__ reference: as a
    Name, as an Attribute or as an import alias."""
    found = set()
    for name, tree in TREES.items():
        if name == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def test_every_public_name_has_a_user():
    # a public name that only tests use is surface nothing needs; keeping
    # one is a decision, recorded in PUBLIC_ALLOWED, and a stale entry fails
    referenced = referenced_names()
    unused = {name for name in sliceprofit.__all__ if name not in referenced}
    assert sorted(unused) == sorted(PUBLIC_ALLOWED)
    assert all(PUBLIC_ALLOWED.values())
