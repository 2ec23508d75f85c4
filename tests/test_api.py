"""The public names of the varjet package, with no aliases among them, the
public names of its numeric layer and the signature of its evaluate, an
Expr's one slot and substitution's signature, the
signatures of the momentum-side constructions, the total derivatives and the
jet context, the fields of an equation system and of a reduction, no unused
import in a module, no module importing another's private name, the
problem-file reader importing only the kernel and the density, no module
but the kernel importing fractions, one
elimination routine, one home for the domain refusals' wording, the
README's library sketch, and the benchmark's map of the modules it traces."""

import ast
import dataclasses
import glob
import inspect
import os
import types
from collections import defaultdict

import varjet
from varjet import numeric, symcore

EXPORTED = {
    "CoordinateId",
    "EquationSystem", "Expr", "HessianMatrix", "JetContext",
    "LagrangianDensity", "MultiIndex", "ParseError",
    "RankReport", "ReducedSystem", "UnknownCoordinateError",
    "UnsupportedExpressionError", "VarjetError", "WrongDomainError",
    "constraints", "elh_system", "energy_density", "euler_lagrange",
    "hessian", "horizontal_d_legendre", "iterated_total_derivative", "legendre_form",
    "momentum_shift", "multiindices", "multiindices_up_to", "parse", "prolong",
    "reduce_lagrangian", "render", "total_derivative",
    "vertical_differential",
}

# the functions and classes varjet.numeric defines: residual is its one
# finite-difference path, with no second prolongation entry point
NUMERIC = {
    "GridFunction", "GridTooSmallError", "MissingFieldError",
    "evaluate", "fd_weights", "load_grid", "residual", "save_grid", "stencil_radius",
}


def exported():
    # submodules become package attributes once imported; they are not API names
    return {name: value for name, value in vars(varjet).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_exported_names_are_pinned():
    assert set(exported()) == EXPORTED


def test_numeric_names_are_pinned():
    defined = {name for name, value in vars(numeric).items()
               if getattr(value, "__module__", None) == numeric.__name__}
    assert {name for name in defined if not name.startswith("_")} == NUMERIC


def test_evaluate_takes_no_power_cache():
    # each call computes the powers it reads: no cache is shared across calls
    assert str(inspect.signature(numeric.evaluate)) == (
        "(e: 'Expr', sample: 'Mapping[CoordinateId, object]', into: 'Optional[Tuple["
        "np.ndarray, Optional[np.ndarray], Mapping[Power, np.ndarray]]]' = None)")


def test_expr_stores_its_terms_alone_and_substitution_threads_no_cache():
    # an Expr keeps nothing it could compute from its terms, its hash
    # included, and each substitution step builds the image power it reads
    assert symcore.Expr.__slots__ == ("terms",)
    assert str(inspect.signature(symcore._substituted)) == (
        "(terms, images: 'Mapping[CoordinateId, Expr]') -> 'Optional[List[Term]]'")


def test_no_exported_name_is_an_alias():
    names_by_object = defaultdict(list)
    for name, value in exported().items():
        names_by_object[id(value)].append(name)
    assert [sorted(names) for names in names_by_object.values() if len(names) > 1] == []


def test_constructions_take_the_level_from_the_density():
    # the momentum level is the density's order minus one; the rank's seed
    # is keyword-only, so a stale positional level cannot pass as the seed
    signatures = {
        varjet.elh_system: "(lag: 'LagrangianDensity') -> 'EquationSystem'",
        varjet.constraints: "(lag: 'LagrangianDensity') -> 'EquationSystem'",
        varjet.energy_density: "(lag: 'LagrangianDensity') -> 'Expr'",
        varjet.hessian: "(lag: 'LagrangianDensity', *, seed: 'int' = 0)"
                        " -> 'Tuple[HessianMatrix, RankReport]'",
        varjet.reduce_lagrangian: "(lag: 'LagrangianDensity') -> 'ReducedSystem'",
    }
    for function, expected in signatures.items():
        assert str(inspect.signature(function)) == expected, function.__name__


def test_variational_results_are_plain_values():
    # one E_a(L) per dependent; d^V L and dbar theta keyed by jets; the
    # Legendre form keyed by its momenta
    signatures = {
        varjet.euler_lagrange: "(lag: 'LagrangianDensity') -> 'Tuple[Expr, ...]'",
        varjet.vertical_differential:
            "(lag: 'LagrangianDensity') -> 'Dict[CoordinateId, Expr]'",
        varjet.horizontal_d_legendre:
            "(theta: 'Mapping[CoordinateId, Expr]') -> 'Dict[CoordinateId, Expr]'",
        varjet.legendre_form: "(lag: 'LagrangianDensity') -> 'Dict[CoordinateId, Expr]'",
    }
    for function, expected in signatures.items():
        assert str(inspect.signature(function)) == expected, function.__name__


def test_legendre_form_is_keyed_by_momenta_in_ascending_order():
    # the print order of `varjet legendre` is the coordinates' own order
    ctx = varjet.JetContext(("t", "x"), ("u", "v"))
    lag = varjet.LagrangianDensity(
        ctx, varjet.parse("u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2 + v_t*u_tx + v_xx*v", ctx))
    theta = varjet.legendre_form(lag)
    assert all(isinstance(p, varjet.CoordinateId) and p.kind == "momentum" for p in theta)
    # by dependent, then |I|, then I, then i; the zero p^u_t.t is absent
    assert [ctx.name(p) for p in theta] == [
        "p^u_.t", "p^u_.x", "p^u_t.x", "p^u_x.t", "p^u_x.x", "p^v_.t", "p^v_.x", "p^v_x.x"]
    assert list(theta) == sorted(theta)


def test_total_derivatives_and_contexts_carry_no_order_bound():
    # the density fixes the jet orders a construction reads, so neither the
    # total derivatives nor the context take a bound; mixed systems share
    # their density's context, so it carries no naming style either
    assert str(inspect.signature(varjet.total_derivative)) == "(e: 'Expr', i: 'int') -> 'Expr'"
    assert str(inspect.signature(varjet.iterated_total_derivative)) == \
        "(e: 'Expr', J: 'MultiIndex') -> 'Expr'"
    assert [f.name for f in dataclasses.fields(varjet.JetContext)] == \
        ["independents", "dependents"]


def test_equation_systems_carry_rows_only():
    # a system is its context, its labelled rows and, for a mixed
    # first-order system, its fiber and momentum level; its JSON is written
    # by cli alone
    assert [f.name for f in dataclasses.fields(varjet.EquationSystem)] == \
        ["context", "equations", "fiber", "level"]


def test_a_reduction_holds_one_equation_system():
    # the HDW rows read P0 coordinates only, so they are the system on P too:
    # a reduction builds them once, over one fiber
    assert [f.name for f in dataclasses.fields(varjet.ReducedSystem)] == \
        ["diagnosis", "p_coordinates", "p0_coordinates", "substitutions", "hamiltonian",
         "system_hdw", "offending"]


def test_no_module_imports_a_name_it_never_uses():
    # the package's modules and the tests'; __init__.py re-exports what it
    # imports, and "from __future__" binds no name
    unused = []
    paths = glob.glob(os.path.join(os.path.dirname(varjet.__file__), "*.py")) + \
        glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))
    for path in sorted(paths):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{os.path.basename(path)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_module_imports_another_module_s_private_name():
    # a rule that a module keeps private (a leading underscore) has one home:
    # the problem-file reader re-checked names with symcore's _NAME_RE
    imports = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(varjet.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imports += [f"{os.path.basename(path)}:{node.lineno}: {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert imports == []


def test_the_problem_file_reader_imports_the_kernel_and_the_density_alone():
    # each rule about a setting has one home: the reader checks the file's
    # syntax and leaves the density's rules to variational and the rho count
    # to pdham's momentum_shift, so it imports no pdham bound
    with open(os.path.join(os.path.dirname(varjet.__file__), "problemfile.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.level} == {"symcore", "variational"}


def test_only_the_kernel_imports_fractions():
    # symcore's Q is the one coefficient class: every other module makes its
    # constants as Q, so none builds a stdlib Fraction
    importers = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(varjet.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions" or \
                    isinstance(node, ast.Import) and \
                    any(alias.name == "fractions" for alias in node.names):
                importers.append(os.path.basename(path))
    assert importers == ["symcore.py"]


def test_one_elimination_routine():
    # symcore.eliminate is the one exact elimination: the Hessian rank and
    # both stages of the reduction (pdham) and the stencil weights (numeric)
    # import it, and neither module defines an elimination, a pivot search
    # or a back-substitution of its own
    words = ("elimina", "echelon", "pivot", "resolve", "back_sub", "solve")
    for module in ("numeric", "pdham"):
        with open(os.path.join(os.path.dirname(varjet.__file__), f"{module}.py"),
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imports = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "symcore"
                   for alias in node.names]
        assert "eliminate" in imports, module
        defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        assert [name for name in defined if any(word in name for word in words)] == [], module


def test_one_string_constant_holds_each_domain_refusal():
    # JetContext.refuse is the one domain check: the density, the systems,
    # render and the momentum shift word their refusals through it
    homes = {"which is outside its context": [], "which is not jet-side": []}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(varjet.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for text, found in homes.items():
                    if text in node.value:
                        found.append(os.path.basename(path))
    assert homes == {text: ["symcore.py"] for text in homes}


def test_the_benchmark_traces_every_module_of_the_package():
    # a traced benchmark run imports varjet.<name> for each name in
    # perfbench/tracing.py's MODULES, so the map names each module file once;
    # it is read as text, without importing perfbench
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    [modules] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(target, "id", None) for target in node.targets] == ["MODULES"]]
    files = [os.path.basename(name)[:-3]
             for name in glob.glob(os.path.join(os.path.dirname(varjet.__file__), "*.py"))]
    assert sorted(modules) == sorted(name for name in files if name != "__init__")


def test_readme_library_sketch_runs_as_commented():
    # the python block under "## Library sketch" runs, and its comments on the
    # Euler-Lagrange component and on the ELH system's rows hold
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, "r", encoding="utf-8") as fh:
        section = fh.read().split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    comments = {code.strip(): comment.strip() for code, comment in
                (line.split("#", 1) for line in block.splitlines() if "#" in line)}
    el = "euler_lagrange(lag)[0]"
    assert varjet.render(eval(el, namespace), namespace["ctx"]) == comments[el] == \
        "u_tx - 6*u_x*u_xx + u_xxxx"
    rows = comments["system = elh_system(lag)"].rsplit(", ", 1)[1]
    assert rows == f"{len(namespace['system'].equations)} rows" == "12 rows"
