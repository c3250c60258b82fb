"""Reach check: the CLI tests run every statement of the ``metroflow`` package.

A pytest plugin, loaded only when asked for::

    PYTHONPATH=src:tests python -m pytest -q -p reach tests/test_cli.py

``tests/test_cli.py`` drives the program through ``cli.main``.  From the
start of the session, before the tests import the package, the plugin
traces the package's lines with ``sys.settrace`` and ``threading.settrace``.
At the end it fails the session when an executable statement never ran,
apart from three kinds:

- a ``raise``;
- a statement in a block that ends in a ``raise``, and everything inside it;
- a statement an ``EXEMPT`` entry covers.

An ``EXEMPT`` entry that covers no unreached statement is stale, and a stale
entry fails the session too, so the list cannot outlive the code it names.
"""

import ast
import dis
import sys
import threading
from importlib.util import find_spec
from pathlib import Path

import pytest

#: Qualified name -> why its statements may go unreached.  A name such as
#: ``metroflow.tensor.concat`` covers every statement of that def or class;
#: ``<name>: <statement>`` covers one statement directly inside it, given by
#: its first source line, and whatever that statement contains.
EXEMPT = {
    "metroflow.layers.LstmCell.step":
        "Settled test reference: TestFusedUnroll checks unroll against it at 1e-12",
    "metroflow.tensor.Tensor.sigmoid": "Settled test reference: step's gates",
    "metroflow.tensor.Tensor.tanh": "Settled test reference: step's candidate and cell",
    "metroflow.tensor.Tensor.sum": "Settled test reference: the acceptance gradient sweep",
    "metroflow.tensor.softmax": "Settled test reference: the attention tests' op chain",
    "metroflow.tensor.concat": "Settled test reference: step joins [h_prev, x_t] with it",
    "metroflow.cli: sys.exit(main())":
        "the __main__ guard: test_installed_entry_point runs it in a subprocess, "
        "and CI's smoke step runs it",
    "metroflow.data.Windows.nbytes":
        "perfbench's data.window_bytes reads it, and perfbench/ lies outside the package",
    "metroflow.plot.line_chart: lo, hi = lo - 1.0, hi + 1.0":
        "the zero-range guard keeps y_at from dividing by zero; no CLI input is known "
        "to give equal actual and predicted values at every point",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _code_lines(code) -> set:
    """Every line that holds an instruction of ``code`` or of the code it nests."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The statement's lines without its nested blocks: the header of a
    compound statement, decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    return range(first, body[0].lineno if body else node.end_lineno + 1)


def _blocks(node: ast.stmt):
    """The statement lists nested directly in ``node``."""
    for name in ("body", "orelse", "finalbody"):
        if getattr(node, name, None):
            yield getattr(node, name)
    for handler in getattr(node, "handlers", []):
        yield handler.body


def statements(path: Path, module: str) -> list:
    """(label, own lines, exempt as a raise, covering EXEMPT keys) for every
    statement of one source file that compiles to an instruction."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    found = []

    def walk(block, scope, raises, keys):
        raises = raises or isinstance(block[-1], ast.Raise)
        for node in block:
            text = ast.get_source_segment(source, node).splitlines()[0].strip()
            inner = f"{scope}.{node.name}" if isinstance(node, _DEFS) else scope
            names = [f"{scope}: {text}"] + ([inner] if inner != scope else [])
            covered = keys + [name for name in names if name in EXEMPT]
            lines = _own_lines(node)
            if executable.intersection(lines):
                label = f"{path.parent.name}/{path.name}:{node.lineno} {scope}: {text}"
                found.append((label, lines, raises or isinstance(node, ast.Raise), covered))
            for child in _blocks(node):
                walk(child, inner, raises, covered)

    walk(ast.parse(source).body, module, False, [])
    return found


class Reach:
    def __init__(self, package: Path):
        self.package = package
        self.prefix = f"{package}/"
        self.hits = set()  # (file name, line) of every traced line event
        self.findings = []

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def check(self) -> list:
        """One line per unreached statement and per stale exemption."""
        unreached, used = [], set()
        for path in sorted(self.package.rglob("*.py")):
            parts = path.relative_to(self.package.parent).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            for label, lines, raises, keys in statements(path, module):
                if raises or any((str(path), line) in self.hits for line in lines):
                    continue
                used.update(keys)
                if not keys:
                    unreached.append(f"unreached: {label}")
        return unreached + [f"stale exemption: {key}" for key in EXEMPT if key not in used]


_KEY = pytest.StashKey()


def pytest_sessionstart(session):
    if "metroflow" in sys.modules:
        raise pytest.UsageError("reach: metroflow was imported before tracing started")
    reach = Reach(Path(find_spec("metroflow").origin).parent)
    session.config.stash[_KEY] = reach
    reach.start()


def pytest_sessionfinish(session):
    reach = session.config.stash[_KEY]
    reach.stop()
    reach.findings = reach.check()
    if reach.findings:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    reach = config.stash.get(_KEY, None)
    if reach is None:
        return
    if reach.findings:
        terminalreporter.write_sep("=", f"reach: {len(reach.findings)} findings", red=True)
        for line in reach.findings:
            terminalreporter.write_line(line)
    else:
        terminalreporter.write_line(f"reach: every statement of {reach.package} ran, "
                                    f"raises or is exempt ({len(EXEMPT)} exemptions)")
