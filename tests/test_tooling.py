"""Checks on the library source itself and on the demos that use it."""

import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sofic_lab"
TESTS = ROOT / "tests"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# sha256 of the stdout of the deterministic demos.  The two counting demos
# were recorded with the backtracking coloring search, and the frontier pass
# that replaced it prints the same bytes.  rate_curves.py was recorded while
# every scan point still took each logarithm afresh; it prints a symmetry
# gap of order 1e-31, so a change in any bit of the rate curve shows.
DEMO_STDOUT_DIGESTS = {
    "sample_and_count.py": "d048e1fe4e95e4e25fbfabd78b16d1b4989386456bc4891713675de5c9c73813",
    "core_and_rigidity.py": "eb17f42e7e08b92c6dcef903e1bb36b743f94b61739eae144eb9096dbdd59db9",
    "rate_curves.py": "fac4c67acf9a094dec9abfa7173cf8320886cc6721452ca3b91b9b1f660d532a",
}


def _library_nodes():
    """(file name, node) for every syntax node of the library source."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a guard written as one vanishes
    # from optimized runs; every check in the library must raise explicitly
    found = [
        "%s:%d" % (name, node.lineno)
        for name, node in _library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _reads_environment(node):
    if isinstance(node, ast.Attribute):
        return (node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os")
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ("environ", "getenv") for alias in node.names)
    return False


def test_library_reads_no_environment_variables():
    # an environment variable is an input that no "# params:" line records,
    # so an artifact could not be reproduced from itself
    found = ["%s:%d" % (name, node.lineno)
             for name, node in _library_nodes() if _reads_environment(node)]
    assert found == []


def _unique_with_axis(node):
    func = getattr(node, "func", None)
    name = getattr(func, "attr", getattr(func, "id", None))
    return name == "unique" and any(kw.arg == "axis" for kw in node.keywords)


def test_library_calls_no_unique_along_an_axis():
    # np.unique with an axis sorts the rows or columns as structured
    # records, several times slower than a 1-D unique of one code per row
    # or column (the census packs each window column into one code)
    found = ["%s:%d" % (name, node.lineno)
             for name, node in _library_nodes() if _unique_with_axis(node)]
    assert found == []


def test_only_group_model_reads_into_the_images():
    # group_model builds every power of the generator images once, in the
    # orbit table; another module that subscripts the images or the table, or
    # imports a private group_model function that takes either one, walks
    # them again in its own way. Reading a whole array, or passing it on, is
    # fine.
    model = ast.parse((SRC / "group_model.py").read_text())
    walkers = {node.name for node in model.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and {"images", "orbits"} & {arg.arg for arg in _parameters(node)}}
    found = []
    for name, node in _library_nodes():
        if name == "group_model.py":
            continue
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("images", "orbits")):
            found.append("%s:%d %s" % (name, node.lineno, ast.unparse(node)))
        if isinstance(node, ast.ImportFrom) and node.module == "group_model":
            found += ["%s:%d %s" % (name, node.lineno, alias.name)
                      for alias in node.names if alias.name in walkers]
    assert found == []


def test_library_reads_no_syllables_attribute():
    # a reduced word is the plain tuple of its (generator, exponent)
    # syllables and reduce_word its one normalizer; reading .syllables means
    # a wrapper class around the tuple has come back
    found = ["%s:%d %s" % (name, node.lineno, ast.unparse(node))
             for name, node in _library_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "syllables"]
    assert found == []


def test_only_tree_markov_names_tree_domain():
    # every tree window is built from generator words, by build_ball or
    # single_edge_domain; a module that names TreeDomain itself builds its
    # windows another way, or reads one that is built another way
    found = sorted(path.name for path in SRC.glob("*.py") if path.name != "tree_markov.py"
                   and "TreeDomain" in _names_in(ast.parse(path.read_text())))
    assert found == []


def test_only_build_hypergraph_builds_a_hypergraph():
    # LabeledHypergraph checks nothing: build_hypergraph reads its blocks off
    # the orbit table, which the UniformHom constructor checked; a module
    # that names the class, or a call of it outside build_hypergraph, builds
    # a graph whose partition nobody checked
    tree = ast.parse((SRC / "hypergraph.py").read_text())
    builder = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "build_hypergraph")
    inside = {id(sub) for sub in ast.walk(builder)}
    found = sorted(path.name for path in SRC.glob("*.py") if path.name != "hypergraph.py"
                   and "LabeledHypergraph" in _names_in(ast.parse(path.read_text())))
    found += ["hypergraph.py:%d %s" % (node.lineno, ast.unparse(node))
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and id(node) not in inside and "LabeledHypergraph" in _names_in(node.func)]
    assert found == []


def _converts_a_coloring(node):
    """A call np.fromiter, np.array or np.asarray of a name chi or coloring,
    or of a .bits attribute."""
    func = getattr(node, "func", None)
    if not (isinstance(func, ast.Attribute) and func.attr in ("fromiter", "array", "asarray")
            and isinstance(func.value, ast.Name) and func.value.id == "np" and node.args):
        return False
    arg = node.args[0]
    return ((isinstance(arg, ast.Name) and arg.id in ("chi", "coloring"))
            or (isinstance(arg, ast.Attribute) and arg.attr == "bits"))


def test_only_the_coloring_array_converts_a_coloring():
    # hypergraph._coloring_array checks every entry of a coloring that is not
    # a Coloring, and builds a Coloring's array once and keeps it on it; a
    # module that converts a coloring itself skips the check or rebuilds the
    # array on every call
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        if path.name == "hypergraph.py":
            reader = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                          and node.name == "_coloring_array")
            inside = {id(sub) for sub in ast.walk(reader)}
        found += ["%s:%d %s" % (path.name, node.lineno, ast.unparse(node))
                  for node in ast.walk(tree)
                  if _converts_a_coloring(node) and id(node) not in inside]
    assert found == []


def _is_kind(node):
    return ((isinstance(node, ast.Name) and node.id == "kind")
            or (isinstance(node, ast.Attribute) and node.attr == "kind"))


def test_harness_compares_no_experiment_kind():
    # each experiment kind is one entry of harness.EXPERIMENT_KINDS, which
    # gives its draw, row, summary and params; a comparison with a kind
    # starts a chain of branches that every new kind must find and extend
    tree = ast.parse((SRC / "harness.py").read_text())
    found = ["harness.py:%d %s" % (node.lineno, ast.unparse(node))
             for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(map(_is_kind, [node.left, *node.comparators]))]
    assert found == []


def test_harness_compares_no_subcommand_or_route_name():
    # each subcommand and each of its routes is one entry of
    # harness.SUBCOMMANDS, which gives the flags the route reads and its body,
    # and the parser is built from that table alone: a comparison with a
    # command, quantity or route name starts a chain of branches beside the
    # table, and an add_argument call outside the loop over it offers a flag
    # that no route declares it reads
    from sofic_lab.harness import SUBCOMMANDS
    names = set(SUBCOMMANDS) | {route for command in SUBCOMMANDS.values()
                                for route in command.routes if route is not None}
    # the arguments whose parsed value is a command or route name
    keys = {command.key for command in SUBCOMMANDS.values()
            if command.key and command.choose is None} | {"subcommand"}

    def names_a_route(node):
        return ((isinstance(node, ast.Constant) and node.value in names)
                or (isinstance(node, ast.Name) and node.id in keys)
                or (isinstance(node, ast.Attribute) and node.attr in keys))

    tree = ast.parse((SRC / "harness.py").read_text())
    found = ["harness.py:%d %s" % (node.lineno, ast.unparse(node))
             for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(names_a_route(sub) for operand in [node.left, *node.comparators]
                     for sub in ast.walk(operand))]
    builder = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    loops = [node for function in builder for node in ast.walk(function)
             if isinstance(node, ast.For) and "SUBCOMMANDS" in _names_in(node.iter)]
    in_loop = {id(node) for loop in loops for node in ast.walk(loop)}
    found += ["harness.py:%d %s" % (node.lineno, ast.unparse(node))
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "add_argument" and id(node) not in in_loop]
    assert loops and found == []


def test_harness_parses_fractions_and_colorings_only_in_its_check_table():
    # each CLI flag and config value read as text is parsed once, by its
    # entry of harness._PARAM_CHECKS, and the instance loader reads a file's
    # coloring; a route body that parsed a flag itself would decide for
    # itself what the "# params:" record shows of it
    tree = ast.parse((SRC / "harness.py").read_text())
    allowed = [node for node in tree.body
               if (isinstance(node, ast.Assign) and "_PARAM_CHECKS" in map(ast.unparse, node.targets))
               or (isinstance(node, ast.FunctionDef) and node.name == "load_instance")]
    inside = {id(sub) for node in allowed for sub in ast.walk(node)}
    found = ["harness.py:%d %s" % (node.lineno, ast.unparse(node))
             for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in inside
             and ast.unparse(node.func) in ("_fraction", "Coloring.from_string")]
    assert len(allowed) == 2 and found == []


def _imports_the_library(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "sofic_lab"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "sofic_lab" for alias in node.names)
    return False


def test_analytics_imports_no_other_library_module():
    # analytics evaluates formulas on numbers and plain tuples of them; an
    # import of a module that samples, counts or builds hypergraphs would tie
    # the formulas to those objects again
    tree = ast.parse((SRC / "analytics.py").read_text())
    found = ["analytics.py:%d %s" % (node.lineno, ast.unparse(node))
             for node in ast.walk(tree) if _imports_the_library(node)]
    assert found == []


def _parameters(node):
    args = node.args
    return [arg for arg in args.posonlyargs + args.args + args.kwonlyargs
            + [args.vararg, args.kwarg] if arg is not None]


def test_library_functions_take_no_private_parameters():
    # a parameter named as private is a switch that callers are not meant to
    # set, such as one that skips a check; a route that needs one is a
    # separate function, or a test helper
    found = ["%s:%d %s" % (name, node.lineno, arg.arg)
             for name, node in _library_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in _parameters(node) if arg.arg.startswith("_")]
    assert found == []


def test_library_reads_outside_fractions_only_through_the_parser():
    # Fraction(x) of a float is its binary value, so Fraction(0.1) is not
    # 1/10; a fraction argument is read by group_model._fraction, the one
    # parser, which reads a float through its repr
    found, parsers = [], []
    for name, func in _library_nodes():
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if getattr(func, "name", None) == "_fraction":
            parsers.append(name)
            continue
        params = {arg.arg for arg in _parameters(func)}
        found += ["%s:%d %s" % (name, node.lineno, ast.unparse(node))
                  for node in ast.walk(func) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "Fraction" and len(node.args) == 1
                  and not node.keywords and isinstance(node.args[0], ast.Name)
                  and node.args[0].id in params]
    assert parsers == ["group_model.py"] and found == []


def _library_functions():
    """(file name, node, called as, bound) for every function of the library,
    nested ones and methods included; a constructor is called as its class,
    and bound is 1 for a method, whose first parameter the call's receiver
    fills, else 0."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {sub: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for sub in node.body if isinstance(sub, ast.FunctionDef)
                   and "staticmethod" not in map(ast.unparse, sub.decorator_list)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                called = methods[node] if node.name == "__init__" else node.name
                yield path.name, node, called, int(node in methods)


def _callers():
    """The syntax trees of the code that sets library options: the library,
    the demos and perfbench/ but for its tests."""
    paths = sorted(SRC.glob("*.py")) + DEMOS + [
        path for path in PERFBENCH if not path.name.startswith("test_")]
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


# An oracle kept in the library only because perfbench/ imports it; the tests
# set its l_max.
_DEFAULTS_SET_IN_TESTS = {"core_decomposition_reference"}


def test_every_default_is_set_by_some_caller_outside_tests():
    # a default that no call overrides is a constant written as a parameter:
    # a knob nobody turns, which a reader must still trace through every call.
    # A function named as a value, not called, may be called with anything.
    calls, values = {}, set()
    for tree in _callers():
        funcs = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.setdefault(name, []).append(node)
                funcs.add(node.func)
        values |= {node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node not in funcs}
    found = []
    for name, node, called, bound in _library_functions():
        if called in values or called in _DEFAULTS_SET_IN_TESTS:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        # (position in a call, name); a keyword-only parameter has no position
        defaulted = [(i - bound, arg.arg) for i, arg in enumerate(positional) if i >= first]
        defaulted += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        for index, param in defaulted:
            # a call that unpacks *args or **kwargs may pass any parameter
            if not any(
                    any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index)
                    or any(kw.arg in (param, None) for kw in call.keywords)
                    for call in calls.get(called, ())):
                found.append("%s:%d %s(%s=)" % (name, node.lineno, node.name, param))
    assert found == []


def _names_in(node):
    """Every name a node mentions: bare names, attribute names and the
    names it imports. An attribute name is listed once more with a leading
    dot; that is the only way a method is reached, so a local variable that
    shares a method's name does not reach it."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names |= {sub.attr, "." + sub.attr}
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _library_reads(node):
    """The names a piece of library code reads, as _names_in gives them but
    for what reaches no top-level definition: a name being bound, an
    attribute, which reaches only a method, and a name the enclosing
    function binds itself, as an argument or by assignment."""
    names = set()
    for child in ast.iter_child_nodes(node):
        names |= _library_reads(child)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add("." + node.attr)
    elif isinstance(node, ast.alias):
        names.add(node.name.rsplit(".", 1)[-1])
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        names -= {sub.arg for sub in ast.walk(node.args) if isinstance(sub, ast.arg)}
        names -= {sub.id for sub in ast.walk(node)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    return names


def _strings_in(node):
    return {sub.value for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _class_parts(node):
    """A class's own names and its methods but the dunders.

    The dunder methods are the class's own code: they run whenever the
    class is used. Every other method is reached by an attribute of its
    name."""
    methods = [sub for sub in node.body
               if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name)]
    own = node.bases + node.keywords + node.decorator_list + [
        sub for sub in node.body if sub not in methods]
    return set().union(*map(_library_reads, own)), methods


def _library_definitions():
    """The library's definitions and the names its other top-level code
    reads.

    Returns {(file name, qualified name): (name, names it reads)} for every
    top-level function, class and assigned name and every method but the
    dunders, and the names read by the remaining module-level statements,
    the top-level dunder definitions and the entries of __all__. A module's
    own imports are not reads: a name the package re-exports is reached
    through __all__."""
    definitions = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name == "__all__":
                    read |= _strings_in(node)
                elif _is_dunder(name):
                    read |= _library_reads(node)
                elif isinstance(node, ast.ClassDef):
                    own, methods = _class_parts(node)
                    definitions[path.name, name] = name, own
                    for method in methods:
                        definitions[path.name, "%s.%s" % (name, method.name)] = (
                            "." + method.name, _library_reads(method))
                else:
                    definitions[path.name, name] = name, _library_reads(node)
            if not names:
                read |= _library_reads(node)
    return definitions, read


def _names_used_outside_tests():
    """The names the demos and perfbench/ read, the functions perfbench/
    wraps by name in LAYER_FUNCTIONS, and the CLI entry points."""
    names = set()
    for path in DEMOS + PERFBENCH:
        tree = ast.parse(path.read_text(), filename=str(path))
        names |= _names_in(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS"
                    for t in node.targets):
                names |= _strings_in(node.value)
    entry_points = (ROOT / "pyproject.toml").read_text()
    names |= set(re.findall(r'"sofic_lab[\w.]*:(\w+)"', entry_points))
    return names


def test_every_library_definition_is_reached_outside_tests():
    # code that only the tests call is an oracle and lives in tests/helpers.py,
    # or a wrapper whose tests can call the core it wraps; this holds for the
    # methods of library classes too
    definitions, read = _library_definitions()
    reached = set()
    frontier = read | _names_used_outside_tests()
    while frontier:
        found = {key for key, (name, _) in definitions.items()
                 if name in frontier} - reached
        reached |= found
        frontier = set().union(*(definitions[key][1] for key in found))
    unreached = sorted("%s:%s" % key for key in definitions if key not in reached)
    assert unreached == []


def test_every_slot_is_read_in_the_library():
    # a slot that no attribute load reads is state written and kept for
    # nothing, one more field a reader must trace through every method
    slots, loaded = [], set()
    for name, node in _library_nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in sub.targets):
                    value = ast.literal_eval(sub.value)
                    for slot in (value,) if isinstance(value, str) else value:
                        slots.append(("%s:%s.%s" % (name, node.name, slot), slot))
    assert slots
    assert [key for key, slot in slots if slot not in loaded] == []


def test_every_exported_definition_has_a_docstring():
    # read off the definition itself, so the __doc__ that dataclass writes
    # for a class without one does not count
    import sofic_lab

    trees = {}
    found = []
    for name in sofic_lab.__all__:
        module = getattr(sofic_lab, name).__module__.rsplit(".", 1)[-1]
        if module not in trees:
            trees[module] = ast.parse((SRC / (module + ".py")).read_text())
        node = next(node for node in trees[module].body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        if ast.get_docstring(node) is None:
            found.append("%s.%s" % (module, name))
    assert found == []


def test_every_oracle_is_reached_from_a_test():
    # an oracle that no test compares with checks nothing; a test may reach
    # it directly or through another helper (the private ones, parts of a
    # larger oracle, included)
    helpers = {node.name: _names_in(node)
               for node in ast.parse((TESTS / "helpers.py").read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    oracles = {name for name in helpers if name.endswith("_oracle")}
    assert oracles
    reached = set()
    frontier = set().union(*(_names_in(ast.parse(path.read_text()))
                             for path in sorted(TESTS.glob("test_*.py"))))
    while frontier:
        found = {name for name in helpers if name in frontier} - reached
        reached |= found
        frontier = set().union(*(helpers[name] for name in found))
    assert sorted(oracles - reached) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # experiment_pipeline writes under tempfile's directory, so point it here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    assert list(tmp_path.glob("sofic_demo_*")) == []
    if demo.name in DEMO_STDOUT_DIGESTS:
        assert hashlib.sha256(result.stdout).hexdigest() == DEMO_STDOUT_DIGESTS[demo.name]
