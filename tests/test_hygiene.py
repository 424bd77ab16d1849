"""Static checks on the package source, and what importing it loads."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "reqtrace"

MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read anywhere in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_checker_finds_an_unused_import():
    source = "import os\nfrom a.b import c as d, e\nimport x.y\nprint(e, x)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(tree: ast.AST) -> set[str]:
    """Every name loaded, or read as an attribute, anywhere in the tree."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants of a package
    (file name -> source) that no module of it reads."""
    defined = []
    read = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                (file, node.lineno, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        read |= names_read(tree)
    return [f"{file} line {line}: {name}" for file, line, name in defined if name not in read]


def test_checker_finds_an_unused_private_name():
    sources = {
        "a.py": "import re\n_ASCII_KIND = {}\n_Token: type = tuple\n__all__ = []\n"
        "_WORD = re.compile('w')\ndef _lex(): return _WORD\nclass _Cursor: pass\n",
        "b.py": "from . import a\nfrom .a import _Cursor\nprint(a._lex())\n",
    }
    assert unused_private_names(sources) == [
        "a.py line 2: _ASCII_KIND",
        "a.py line 3: _Token",
        "a.py line 7: _Cursor",
    ]


def test_every_module_level_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def unread_exports(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Entries of `__all__` in a package (file name -> source) that neither
    the package, their own module included, nor the `readers` sources read."""
    exported = []
    read = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exported += [(file, entry.lineno, entry.value) for entry in node.value.elts]
        read |= names_read(tree)
    for source in readers.values():
        read |= names_read(ast.parse(source))
    return [f"{file} line {line}: {name}" for file, line, name in exported if name not in read]


def test_checker_finds_an_export_nothing_outside_the_tests_reads():
    sources = {
        "a.py": "__all__ = [\n    'f',\n    'g',\n    'h',\n    'k',\n]\n"
        "def f(): return g()\ndef g(): pass\ndef h(): pass\ndef k(): pass\n",
        "b.py": "from . import a\nprint(a.h)\n",
    }
    readers = {"child.py": "from pkg.a import k\nk()\n"}
    assert unread_exports(sources, readers) == ["a.py line 2: f"]
    assert unread_exports(sources, {}) == ["a.py line 2: f", "a.py line 5: k"]


def test_every_public_name_is_read_outside_the_tests():
    # The benchmark drives the package through these two files; tests/ do
    # not count, so an export kept alive only by its tests fails here.
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    readers = {
        name: (ROOT / "perfbench" / name).read_text(encoding="utf-8")
        for name in ("child.py", "run.py")
    }
    assert unread_exports(sources, readers) == []


def self_calls(source: str) -> list[str]:
    """Module-level functions that call themselves by name."""
    return [
        f"line {node.lineno}: {node.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]


def test_checker_finds_a_function_that_calls_itself():
    source = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g(): return h()\ndef h(): return g\n"
        "class C:\n    def m(self): return self.m()\n"
        "def k(items):\n    return [k(item) for item in items]\n"
    )
    assert self_calls(source) == ["line 1: f", "line 7: k"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_calls_itself(path):
    # Input size must not set the recursion depth: a long enough input
    # would raise RecursionError.
    assert self_calls(path.read_text(encoding="utf-8")) == []


FILE_READS = ("read_text", "read_bytes", "open")

# Where a module may open or read a file: the one reader of text inputs, the
# Java source loop (it falls back to ISO-8859-1, and an unreadable source is
# a diagnostic, not an error) and the facts XML (bytes, because the file
# declares its own encoding).
ALLOWED_READS = {
    "errors.py": {"read_input: read_text"},
    "javaparser.py": {"_parse_file: read_text"},
    "pipeline.py": {"_load: read_bytes"},
}


def calls_named(source: str, names: tuple[str, ...]) -> list[str]:
    """Calls of a function or method of one of `names`, each as "definition:
    name", where the definition is the module-level function or class that
    holds the call, or "<module>" for any other statement."""
    calls = []
    for node in ast.parse(source).body:
        where = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in names:
                calls.append(f"{where}: {name}")
    return calls


def file_reads(source: str) -> list[str]:
    """Calls that open or read a file (`calls_named`)."""
    return calls_named(source, FILE_READS)


def test_checker_finds_every_call_that_reads_a_file():
    source = (
        "import io, os\nfrom pathlib import Path\n"
        "def f(p):\n    return Path(p).read_text()\n"
        "class C:\n    def m(self, p):\n        with open(p) as h:\n"
        "            return h.read()\n"
        "DATA = io.open('x').read()\nREADER = Path('y').read_bytes\n"
        "def g(p):\n    return p.read_bytes(), os.fdopen(3), p.reopen()\n"
    )
    assert file_reads(source) == [
        "f: read_text", "C: open", "<module>: open", "g: read_bytes"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_allowed_places_read_a_file(path):
    # Every text input goes through `errors.read_input`, so each is decoded
    # and refused in one way.
    allowed = ALLOWED_READS.get(path.name, set())
    reads = file_reads(path.read_text(encoding="utf-8"))
    assert [read for read in reads if read not in allowed] == []


PROCESS_STARTS = ("fork", "forkpty", "ProcessPoolExecutor", "Pool", "Process", "Popen")

# Where a module may start a process: the pool that parses a source tree,
# and the reader of a facts file.  Each one kills or joins what it started
# before its command returns, and its tests check that no process outlives
# the command.
ALLOWED_STARTS = {
    "javaparser.py": {"parse_source_files: ProcessPoolExecutor"},
    "pipeline.py": {"_load: fork"},
}


def process_starts(source: str) -> list[str]:
    """Calls that start a process (`calls_named`)."""
    return calls_named(source, PROCESS_STARTS)


def test_checker_finds_every_call_that_starts_a_process():
    source = (
        "import os, subprocess\nfrom concurrent import futures\n"
        "def f():\n    return os.fork()\n"
        "class C:\n    def m(self):\n        return futures.ProcessPoolExecutor(2)\n"
        "CHILD = subprocess.Popen(['true'])\nFORK = os.fork\n"
        "def g(context):\n    return context.Process(), os.forkpty(), os.getpid()\n"
    )
    assert process_starts(source) == [
        "f: fork", "C: ProcessPoolExecutor", "<module>: Popen", "g: Process",
        "g: forkpty",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_allowed_places_start_a_process(path):
    # A process that a command starts must not outlive it.
    allowed = ALLOWED_STARTS.get(path.name, set())
    starts = process_starts(path.read_text(encoding="utf-8"))
    assert [start for start in starts if start not in allowed] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_line_is_longer_than_88_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [number for number, line in enumerate(lines, 1) if len(line) > 88] == []


SOURCES = sorted(
    path
    for tree in ("src", "tests", "perfbench")
    for path in (ROOT / tree).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_the_oldest_supported_python(path):
    # pyproject.toml: requires-python = ">=3.10"
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Standard-library packages that no command uses.  `xml.sax.saxutils` alone
# once loaded all of them, 42 modules in all.  The process pool's two are
# imported only when a source tree is large enough to parse in a pool.
UNUSED_PACKAGES = (
    "xml.sax", "urllib.request", "http.client", "email", "ssl", "socket",
    "multiprocessing", "concurrent.futures",
)


def test_importing_the_cli_loads_no_package_a_run_does_not_use():
    code = "import sys, reqtrace.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "reqtrace.cli" in loaded
    assert [name for name in UNUSED_PACKAGES if name in loaded] == []



def fresh_interpreter(code: str, *argv: str) -> subprocess.CompletedProcess:
    """`code` with `argv`, run by a new interpreter that imports from src."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True,
        text=True, timeout=60,
    )


def test_importing_the_cli_or_extracting_loads_no_numpy_module(tmp_path, ds_source):
    # numpy is bound lazily in `lsi`: its stub module may be in sys.modules,
    # but none of numpy's own modules is loaded until LSI reads a name of it
    argv = ["extract", "--src", str(ds_source), "--out", str(tmp_path / "facts.xml")]
    code = (
        "import sys\nimport reqtrace.cli\nprint(*sorted(sys.modules))\n"
        "code = reqtrace.cli.main(sys.argv[1:])\nprint(*sorted(sys.modules))\n"
        "sys.exit(code)"
    )
    done = fresh_interpreter(code, *argv)
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    imported, extracted = lines[0].split(), lines[-1].split()
    for loaded in (imported, extracted):
        assert [name for name in loaded if name.startswith("numpy.")] == []
    # the modules of `trace` are still compiled on import, not in its run
    modules = ("lsi", "fca", "links", "evaluation", "textprep", "porter")
    assert [m for m in modules if f"reqtrace.{m}" not in imported] == []


@pytest.mark.parametrize("topics", [[], ["--topics", "2"]], ids=["full rank", "k=2"])
def test_a_trace_that_loads_numpy_in_its_run_writes_what_this_process_writes(
    tmp_path, capsys, ds_source, ds_requirements, ds_gold, topics
):
    from reqtrace.cli import main

    argv = ["trace", "--src", str(ds_source), "--reqs", str(ds_requirements)]
    argv += ["--gold", str(ds_gold), "--dump-intermediates", *topics]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    code = main([*argv, "--out", str(here)])
    stdout, stderr = capsys.readouterr()
    done = fresh_interpreter(
        "import sys\nfrom reqtrace.cli import main\ncode = main(sys.argv[1:])\n"
        "assert [name for name in sys.modules if name.startswith('numpy.')]\n"
        "sys.exit(code)",
        *argv, "--out", str(fresh),
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)
    assert code == 0
    written = {path.name: path.read_bytes() for path in sorted(here.iterdir())}
    assert len(written) == 9
    assert {path.name: path.read_bytes() for path in sorted(fresh.iterdir())} == written
