"""The package's public surface: the README examples and CLI lines run as written,
``shuffle_regress.__all__`` holds exactly the documented names, and the
settings a caller can pass (CLI options, function parameters) and the fields
of the package's records are pinned, so one joins or leaves only with an edit
here.  Importing the package loads no third-party module but numpy, a rank-2
solve loads no ``numpy.ma``, every
function the benchmark's tracer wraps still exists under the name it looks
up, every lattice span fires on a lattice solve and nests in the span that
calls it, one traced benchmark
workload runs correctly end to end, and no function or class of the package
is there for the tests alone."""
import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import types
import typing
from pathlib import Path

import shuffle_regress
from shuffle_regress import cli, lattice
from shuffle_regress.cli import build_parser
from shuffle_regress.model import InstanceRecord

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "shuffle_regress"
PERFBENCH = README.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# The functions the README names, the types they take or return, and the
# error classes.  A name joins only together with its README entry.
SURFACE = {
    "AnchoredInstance",
    "BudgetExceededError",
    "CapExceededError",
    "DegenerateInstanceError",
    "GroundTruth",
    "Instance",
    "InternalInvariantError",
    "LatticeBasis",
    "MatchResult",
    "ParseError",
    "Permutation",
    "RankDeficiencyError",
    "RecoveryResult",
    "SamplingMatrix",
    "SchemaError",
    "Solution",
    "ThreePartitionInstance",
    "brute_force",
    "fptas_solve",
    "gen_gaussian_noisy",
    "gen_noiseless_anchored",
    "gen_uniform_noisy",
    "lll_reduce",
    "quantize_noiseless",
    "recover",
    "reduce_3partition",
    "row_sample",
    "sort_match",
}


OPTIONS = {
    "gen": {
        "--d", "--help", "--model", "--n", "--output", "--p",
        "--seed", "--snr", "--unanchored", "-h", "-o",
    },
    "solve": {
        "--budget", "--eps", "--help", "--instance", "--solver", "-h",
    },
    "sweep-snr": {
        "--budget", "--d", "--eps", "--help", "--jobs", "--model",
        "--n", "--output", "--seed", "--snr-grid", "--solver",
        "--trials", "-h", "-o",
    },
    "check-order-stats": {"--help", "-h"},
    "check-w2": {"--help", "--output", "-h", "-o"},
    "reduce": {"--help", "--output", "--z", "-h", "-o"},
}

PARAMETERS = {
    "brute_force": ("inst",),
    "fptas_solve": ("inst", "eps", "budget"),
    "gen_gaussian_noisy": ("w_bar", "n", "sigma", "seed"),
    "gen_noiseless_anchored": ("w_bar", "n", "seed", "anchored"),
    "gen_uniform_noisy": ("w_bar", "n", "sigma", "seed"),
    "lll_reduce": ("basis",),
    "quantize_noiseless": ("inst", "truth", "p"),
    "recover": ("inst",),
    "reduce_3partition": ("tp",),
    "row_sample": ("u_mat",),
    "sort_match": ("a", "b"),
}

# The fields of every exported dataclass and of the instance file
# reader's record.
FIELDS = {
    "AnchoredInstance": ("x0", "y0", "x", "y"),
    "GroundTruth": ("w_bar", "pi_bar", "sigma"),
    "Instance": ("x", "y"),
    "InstanceRecord": ("instance", "truth"),
    "LatticeBasis": ("columns",),
    "MatchResult": ("perm", "cost"),
    "Permutation": ("map",),
    "RecoveryResult": ("perm", "w"),
    "SamplingMatrix": ("n", "rows"),
    "Solution": ("w", "perm", "cost"),
    "ThreePartitionInstance": ("z",),
}


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_examples_run():
    blocks = _python_blocks()
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _cli_lines():
    """The ``shuffle-regress`` commands of README's CLI block as argv lists:
    ``\\`` continuations joined, ``#`` comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    (block,) = [b for b in blocks if "shuffle-regress" in b]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("shuffle-regress ")]


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # in order, in one directory: later lines read the files earlier ones write
    lines = _cli_lines()
    assert len(lines) == 12
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_readme_flags_exist():
    # every flag README names is an option of some subcommand, so a removed
    # option cannot live on in the docs; pip's flag is the one outsider
    options = set().union(*OPTIONS.values())
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text()))
    assert named - options == {"--no-build-isolation"}


def test_all_names_resolve():
    for name in shuffle_regress.__all__:
        assert getattr(shuffle_regress, name) is not None


def test_all_is_the_documented_surface():
    assert len(shuffle_regress.__all__) == len(set(shuffle_regress.__all__))
    assert set(shuffle_regress.__all__) == SURFACE


def test_readme_names_every_function():
    text = README.read_text()
    for name in SURFACE:
        if name[0].islower():
            assert re.search(r"\b%s\b" % name, text), name


def test_cli_options_pinned():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {opt for action in parser._actions for opt in action.option_strings}
        for name, parser in sub.choices.items()
    }
    assert got == OPTIONS


def test_function_parameters_pinned():
    got = {
        name: tuple(inspect.signature(getattr(shuffle_regress, name)).parameters)
        for name in SURFACE
        if name[0].islower()
    }
    assert got == PARAMETERS


def test_dataclass_fields_pinned():
    classes = [getattr(shuffle_regress, name) for name in SURFACE]
    classes = [c for c in classes if dataclasses.is_dataclass(c)]
    got = {
        c.__name__: tuple(f.name for f in dataclasses.fields(c))
        for c in (*classes, InstanceRecord)
    }
    assert got == FIELDS


def test_import_loads_no_mpmath():
    # numpy is the only runtime dependency
    src = str(Path(shuffle_regress.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, shuffle_regress.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_rank_two_solve_loads_no_numpy_ma():
    # np.unique imports numpy.ma, about 1 MB more resident per process
    src = str(Path(shuffle_regress.__file__).resolve().parent.parent)
    code = (
        "import sys, numpy as np; from shuffle_regress import Instance, fptas_solve; "
        "rng = np.random.default_rng(0); "
        "fptas_solve(Instance(x=rng.normal(size=(8, 2)), y=rng.normal(size=8)), 0.5); "
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def _load_tracing():
    # compiled from source, so nothing is written next to it
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_traced_functions_resolve():
    # the benchmark's tracer wraps package functions by (module, attribute);
    # a rename or restructure in the package would silently drop a span
    tracing = _load_tracing()
    for mod, attr, *_ in tracing.WRAP_TABLE:
        fn = getattr(importlib.import_module("shuffle_regress." + mod), attr, None)
        assert callable(fn), (mod, attr)
    first = next(iter(inspect.signature(lattice.lll_reduce).parameters))
    assert typing.get_type_hints(lattice.lll_reduce)[first] is shuffle_regress.LatticeBasis
    basis = shuffle_regress.LatticeBasis(columns=((1, 0, 5), (0, 1, -9)))
    assert tracing._lll_input((basis,), {}) == {"dim": 3, "input_bits": 4}


def test_every_lattice_span_fires(tmp_path, capsys):
    # a rename is caught above; this catches a traced function that keeps
    # its name but is no longer called on the lattice path.  At d = 4 the
    # power sums leave two free directions, so the guesses reach LLL
    inst = tmp_path / "inst.json"
    assert cli.main([
        "gen", "--model", "noiseless", "--unanchored", "--n", "5", "--d", "4", "--p", "16",
        "--seed", "3", "-o", str(inst),
    ]) == 0
    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        assert cli.main(["solve", "--solver", "lattice", "--instance", str(inst)]) == 0
    capsys.readouterr()
    lattice_spans = {name for name in tracing.SPAN_NAMES if name.startswith("lattice.")}
    assert len(lattice_spans) == 6
    assert lattice_spans <= {span.name for span in tracer.spans}
    # each span nests where the per-layer self times assume it does
    names = [span.name for span in tracer.spans]
    assert {(name, names[span.parent]) for name, span in zip(names, tracer.spans)
            if name in lattice_spans} == {
        ("lattice.recover", "cli.main"),
        ("lattice.find_permutation", "lattice.recover"),
        ("lattice.build_sources", "lattice.find_permutation"),
        ("lattice.subset_sum_basis", "lattice.find_permutation"),
        ("lattice.lll_reduce", "lattice.find_permutation"),
        ("lattice.epsilon_bound", "lattice.subset_sum_basis"),
    }


def test_benchmark_workload_runs():
    # one traced pass of the smallest workload through the benchmark's own
    # entry point: every op answers correctly, and the tracer's wrap table
    # and report run end to end
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "lattice-recover",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=README.parent, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert (doc["correct"], doc["failed"], doc["attempted"]) == (True, 0, 36)


def _loaded_names(paths):
    """The names ``Name`` nodes load, and the names ``Attribute`` nodes load
    or an import binds."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                attrs.add(node.name)
    return names, attrs


def _definitions():
    """``(qualified name, name, is_method)`` of every top-level function and
    class of the package and every method of those classes; dunder methods
    are called by Python itself, so they are left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield "%s.%s" % (path.stem, node.name), node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield "%s.%s.%s" % (path.stem, node.name, item.name), item.name, True


def test_nothing_defined_for_the_tests_alone():
    # a helper only tests call belongs in tests/reference.py; the package
    # keeps what it runs itself and what the benchmark calls.  Neither the
    # re-export in __init__.py nor a README mention is a use: a function
    # that only those reach is still there for the tests alone.  A method is
    # reached only through an attribute or an import, so a bare local of the
    # same name does not count as its use.
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    names, attrs = _loaded_names([*modules, *PERFBENCH.glob("*.py")])
    unused = [
        qual
        for qual, name, is_method in _definitions()
        if name not in attrs and (is_method or name not in names)
    ]
    assert unused == []
