"""Every example script imports against the current library API.

The examples run real sweeps in ``main()``, so only their imports are
exercised here; each keeps its work behind a ``__main__`` guard.  CI's
``examples-smoke`` job runs every script end to end.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_imports(path):
    assert callable(_load(path).main)


def test_csv_pipeline_removes_its_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _load(EXAMPLES[0].with_name("csv_pipeline.py")).main()
    printed = capsys.readouterr().out
    workdir = Path(printed.split("pipeline working directory: ", 1)[1].splitlines()[0])
    assert workdir.parent == tmp_path  # the run did work under tmp_path
    assert not list(tmp_path.glob("seer_pipeline_*"))
