"""Every example script imports against the current library API.

The examples run real sweeps in ``main()``, so only their imports are
exercised here; each keeps its work behind a ``__main__`` guard.  CI's
``examples-smoke`` job runs every script end to end.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
