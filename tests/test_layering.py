"""The library modules import nothing from the application.

The application (``config``, ``experiment``, ``cli``) reads a YAML file and is
the one gate for its values; the library holds the model and raises only
``ValueError``-family errors, so it must not reach back into the application.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flmarket"
LIBRARY = ("estimator", "fltrain", "market", "strategies", "winmodel")
APPLICATION = {"config", "experiment", "cli", "errors"}


def application_imports(source: str) -> list:
    """The application modules that a package module's source imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("flmarket"):
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            # "from . import config" names the module; "from .config import X" the package path
            names = parts[:1] or [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("flmarket.")]
        else:
            continue
        found += [name for name in names if name in APPLICATION]
    return found


@pytest.mark.parametrize("name", LIBRARY)
def test_library_does_not_import_application(name):
    assert application_imports((PACKAGE / f"{name}.py").read_text()) == []


def test_finds_application_imports():
    source = (
        "from . import estimator, config\n"
        "from .errors import ConfigurationError\n"
        "from flmarket.experiment import run_experiment\n"
        "import flmarket.cli\n"
        "from .winmodel import WinForm\n"
    )
    assert application_imports(source) == ["config", "errors", "experiment", "cli"]
