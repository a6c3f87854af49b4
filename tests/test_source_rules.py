"""Rules on the package source that no single behaviour test can see."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfree
from bfree import errors

SOURCES = sorted(Path(bfree.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no result may depend on one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


# Random sources that only the sampler core may use: the modules that draw
# random numbers (numpy.random, random, secrets), and the functions and
# SplitMix64 constants that build the v4 counter words.
RNG_NAMES = {"random", "secrets", "_words", "_key", "_mix64"}
WORD_CONSTANTS = {0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB}


def _rng_lines(source):
    """Lines that import or name a random source, or hold a word constant."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
        else:
            names = [getattr(node, "attr", None) or getattr(node, "id", None) or ""]
        constant = isinstance(node, ast.Constant) and node.value in WORD_CONSTANTS
        if constant or any(part in RNG_NAMES for name in names for part in name.split(".")):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "measures.py"], ids=lambda p: p.name
)
def test_random_draws_only_in_the_sampler_core(path):
    # measures._sample is the one RNG contract; a second random source
    # elsewhere would be a second stream with its own keys
    lines = _rng_lines(path.read_text())
    assert not lines, f"{path.name} draws random numbers at lines {lines}"


def test_sampler_core_is_seen_by_the_rule():
    assert _rng_lines((Path(bfree.__file__).parent / "measures.py").read_text())
    source = (
        "import random\nfrom numpy.random import default_rng\nfrom numpy import random as r\n"
        "import numpy as np\nx = np.random.Philox\nimport secrets\nG = 0x9E3779B97F4A7C15\n"
        "from .measures import _words\ny = measures._key(1, 0, 0)\nimport randomness, numpy\n"
    )
    assert sorted(set(_rng_lines(source))) == [1, 2, 3, 5, 6, 7, 8, 9]


def _strided_zero_lines(source):
    """Lines that assign 0 to a strided slice, as ``x[..., a::b] = 0``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)):
            continue
        if node.value.value != 0:
            continue
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                index = target.slice
                parts = index.elts if isinstance(index, ast.Tuple) else [index]
                if any(isinstance(p, ast.Slice) and p.step is not None for p in parts):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "sieve.py"], ids=lambda p: p.name
)
def test_strided_strikes_only_in_the_sieve(path):
    # sieve._sieve is the one strike kernel for windows and samplers; a
    # second strided strike elsewhere would be a second sieve to keep right
    lines = _strided_zero_lines(path.read_text())
    assert not lines, f"{path.name} strikes strided slices at lines {lines}"


def test_sieve_kernel_is_seen_by_the_rule():
    assert _strided_zero_lines((Path(bfree.__file__).parent / "sieve.py").read_text())
    source = "def f(x, rows):\n    x[rows, 3::5] = 0\n    x[::2] = 1\n    x[1:4] = 0\n    x[::3] = False\n"
    assert _strided_zero_lines(source) == [2, 5]


def _byte_kernel_lines(source):
    """Lines that import or name ``_sieve``, the byte kernel."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "value", None)]
        if "_sieve" in names:
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in ("sieve.py", "measures.py")], ids=lambda p: p.name
)
def test_one_row_windows_only_through_the_coding(path):
    # sieve._coding builds every one-row window; the byte kernel serves it,
    # the packed kernel's masks and the sampler's blocks, so a module that
    # called it for a window would be a second path to keep right
    lines = _byte_kernel_lines(path.read_text())
    assert not lines, f"{path.name} names the byte kernel _sieve at lines {lines}"


def test_byte_kernel_rule_sees_every_reference():
    assert _byte_kernel_lines((Path(bfree.__file__).parent / "measures.py").read_text())
    source = (
        "from .sieve import _sieve\nfrom . import sieve\nx = sieve._sieve(0, 1, r, o)\ny = _sieve\n"
        "z = sieve._packed_sieve\nfrom .sieve import _sieve as s\nf = getattr(sieve, '_sieve')\n"
    )
    assert _byte_kernel_lines(source) == [1, 3, 4, 6, 7]


def _self_calls(source):
    """(function name, line) of every call a function makes to itself by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == node.name
                ):
                    found.append((node.name, call.lineno))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursion(path):
    # recursion depth grows with the input and ends in RecursionError, not a
    # BFreeError; walk with an explicit stack or a loop instead
    calls = _self_calls(path.read_text())
    assert not calls, f"{path.name} has recursive calls {calls}"


def test_recursion_rule_sees_nested_functions():
    source = "def outer(xs):\n    def walk(i):\n        return 0 if i == len(xs) else walk(i + 1)\n    return walk(0)\n"
    assert _self_calls(source) == [("walk", 3)]


def _raised_names(source):
    """Names of the exceptions a source raises, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead API: callers catch it in vain
    raised = set().union(*(_raised_names(path.read_text()) for path in SOURCES))
    classes = [
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type)
        and issubclass(cls, errors.BFreeError)
        and cls is not errors.BFreeError
        and cls.__module__ == errors.__name__
    ]
    dead = sorted(set(classes) - raised)
    assert classes and not dead, f"errors.py classes raised nowhere: {dead}"


def test_raise_rule_sees_calls_and_attributes():
    source = "def f(x):\n    if x:\n        raise Foo('x')\n    raise errors.Bar\n"
    assert _raised_names(source) == {"Foo", "Bar"}


def _words_reads(source):
    """Lines that read a ``.words`` attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "words"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_batches_read_through_bits(path):
    # a SampleBatch is its (count, L) block; the BinaryWord row views are for
    # callers outside the package, so no package code pays to build them
    lines = _words_reads(path.read_text())
    assert not lines, f"{path.name} reads .words at lines {lines}"


def test_words_rule_sees_attribute_reads():
    source = "def f(batch):\n    return [w.bits for w in batch.words]\n"
    assert _words_reads(source) == [2]


def _budget_names(source):
    """Module-level ``MAX_*`` names that a source assigns."""
    names = set()
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    return names


def _names_read_in_functions(source):
    """Names that a source's functions load."""
    return {
        node.id
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_budget_is_read():
    # a MAX_* setting that no function reads is a dead budget: a caller who
    # patches it, or a reader who trusts it, is misled
    budgets = set().union(*(_budget_names(path.read_text()) for path in SOURCES))
    read = set().union(*(_names_read_in_functions(path.read_text()) for path in SOURCES))
    unread = sorted(budgets - read)
    assert budgets and not unread, f"budgets no function reads: {unread}"


def test_budget_rule_sees_module_constants_and_function_reads():
    source = "MAX_A = 1\nMAX_B: int = 2\n_MAX_C = 3\nMAX_D = MAX_B\n\ndef f(x):\n    MAX_E = 4\n    return x > MAX_A\n"
    assert _budget_names(source) == {"MAX_A", "MAX_B", "MAX_D"}
    assert _names_read_in_functions(source) == {"x", "MAX_A"}


def _imported_modules(source):
    """Top-level names of the absolute imports in a source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_threading(path):
    # every computation runs on the calling thread: no module starts a thread
    assert "threading" not in _imported_modules(path.read_text()), f"{path.name} imports threading"


def test_thread_rule_sees_every_import_form():
    source = "import os.path, threading as t\nfrom concurrent.futures import wait\nfrom . import core\nfrom .sieve import _sieve\n"
    assert _imported_modules(source) == {"os", "threading", "concurrent"}


def _modules_after(statement):
    """Names in ``sys.modules`` after a fresh interpreter runs one statement."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))\n"
    src = Path(bfree.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_cli_start_up_leaves_concurrent_futures_unimported():
    # concurrent.futures adds about 2.5 ms to every cold bfree process, and
    # no computation of the package needs it
    loaded = _modules_after("import bfree.cli")
    assert "bfree.sieve" in loaded and "concurrent.futures" not in loaded


def test_start_up_rule_sees_an_import():
    assert "concurrent.futures" in _modules_after("import concurrent.futures")


# Subcommands that compute with Python ints only, with their exit codes:
# results, domain errors (exit 1) and usage errors (exit 2).
NUMPY_FREE_COMMANDS = [
    (["complexity", "--bset", "2,5", "--n", "14"], 0),
    (["entropy", "--formula", "bfree", "--bset", "4,9,25"], 0),
    (["entropy", "--formula", "product", "--bset", "2,3", "--p", "1/3"], 0),
    (["entropy", "--formula", "generalized", "--bset", "4,9", "--s", "2,3", "--a", "0,2;0,3,6"], 0),
    (["mirsky", "--bset", "4,9", "--ones", "0,2", "--zeros", "1,3,5"], 0),
    (["include", "--bset", "4,9", "--other", "20,63"], 0),
    (["construct-admissible", "--small", "2,3", "--bprime", "7"], 0),
    (["admissible", "--bset", "4,6", "--word", "1"], 1),  # NotCoprime
    (["complexity", "--bset", "4,9,25", "--n", "5"], 1),  # StateSpaceTooLarge
    (["frobnicate"], 2),
    (["eta", "--bset", "2,3"], 2),
    (["eta", "--bset", "2,3", "--window", "7"], 2),
]


def _modules_after_cli(commands):
    """``sys.modules`` after one fresh interpreter runs each command through
    ``bfree.cli.main``; the child fails unless every exit code matches."""
    return _modules_after(
        "import contextlib, io\nimport bfree.cli\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            return bfree.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            return exc.code\n"
        f"codes = [run(argv) for argv, _ in {commands!r}]\n"
        f"if codes != {[code for _, code in commands]!r}:\n"
        "    raise SystemExit(f'exit codes {codes}')"
    )


def test_integer_subcommands_leave_numpy_unimported():
    # numpy is most of a cold bfree process's import time; these commands
    # compute with Python ints, so neither they nor the CLI's import load it
    loaded = _modules_after_cli(NUMPY_FREE_COMMANDS)
    assert "bfree.cli" in loaded and "numpy" not in loaded


def test_numpy_rule_sees_a_window():
    assert "numpy" in _modules_after_cli([(["eta", "--bset", "2,3", "--window", "0:6"], 0)])


def test_samplers_leave_numpy_random_unimported():
    # numpy.random costs about 12 ms on first import; the v4 words are plain
    # numpy arithmetic, so no sampler needs it
    loaded = _modules_after(
        "import bfree\nfrom fractions import Fraction\n"
        "bfree.sample_product(bfree.ProductMeasureSpec(bfree.validate_bset([2, 3]), Fraction(1, 3)), 0, 8, 100, 1)\n"
        "bfree.sample_periodic_windows(bfree.two_mme_system()[0], Fraction(1, 2), 9, 100, 1)"
    )
    assert "bfree.measures" in loaded and "numpy.random" not in loaded


def test_sampler_start_up_rule_sees_numpy_random():
    assert "numpy.random" in _modules_after("import numpy as np\nnp.random.default_rng")
