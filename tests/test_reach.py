"""The reach check's own rule, on a two-module package built for the test:
a line counts as reached only inside a ``cli.main`` call, or in a module or
class body as the import executes it."""

import importlib
import sys

import pytest

from reach import Reach

SOURCES = {
    "__init__.py": '"""A package with a docstring only, as metroflow.schemas is."""\n',
    "cli.py": "from .tools import helper\n\n\ndef main():\n    return helper()\n",
    "tools.py": "def helper():\n    value = 41\n    return value + 1\n",
}


def unreached(tmp_path, name, through_main, init=SOURCES["__init__.py"]):
    """The unreached findings after importing ``<name>.cli`` and calling
    ``helper`` directly or through ``main``; ``init`` is the package's
    ``__init__.py``."""
    package = tmp_path / name
    package.mkdir()
    for file, text in {**SOURCES, "__init__.py": init}.items():
        (package / file).write_text(text)
    sys.path.insert(0, str(tmp_path))
    reach = Reach(package)
    prior = sys.gettrace()
    reach.start()
    try:
        cli = importlib.import_module(f"{name}.cli")
        assert (cli.main() if through_main else cli.helper()) == 42
    finally:
        reach.stop()
        sys.settrace(prior)
        sys.path.remove(str(tmp_path))
        for module in [m for m in sys.modules if m.split(".")[0] == name]:
            del sys.modules[module]
    return [line for line in reach.check() if line.startswith("unreached")]


@pytest.mark.parametrize("through_main", [False, True], ids=["test-call", "cli-main"])
def test_only_cli_main_reaches(tmp_path, through_main):
    name = f"reach_{'main' if through_main else 'test'}"
    got = unreached(tmp_path, name, through_main)
    assert got == ([] if through_main else [
        f"unreached: {name}/cli.py:5 {name}.cli.main: return helper()",
        f"unreached: {name}/tools.py:2 {name}.tools.helper: value = 41",
        f"unreached: {name}/tools.py:3 {name}.tools.helper: return value + 1",
    ])


def test_empty_init(tmp_path):
    """An empty ``__init__.py`` holds no statement, so nothing in it goes unreached."""
    assert unreached(tmp_path, "reach_empty", through_main=True, init="") == []
