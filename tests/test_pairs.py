"""tools/pairs.py refuses a parent checkout it cannot name before any run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [["--base-dir", "."], ["--base-commit", "a4a9c8c"]], ids=["dir", "commit"])
def test_base_dir_and_base_commit_go_together(monkeypatch, tmp_path, capsys, extra):
    pairs = _pairs()

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(pairs, "run_once", no_run)
    monkeypatch.setattr(pairs, "ROOT", tmp_path)  # a BENCH file would land here
    with pytest.raises(SystemExit) as err:
        pairs.main(["--topic", "refused", "--workloads", "zoo-auto", *extra])
    assert err.value.code == 2
    assert "--base-commit" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
