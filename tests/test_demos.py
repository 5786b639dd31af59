"""Every script in demos/ runs to a clean finish and prints something; public names resolve."""

import pathlib
import runpy

import pytest

import markoff

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"


def test_public_names_resolve():
    # a stale name in __all__ would break only at `from markoff import *`
    assert len(set(markoff.__all__)) == len(markoff.__all__)
    assert [name for name in markoff.__all__ if not hasattr(markoff, name)] == []
    assert not {"u_coords", "u_move", "u_move_equivariance",
                "class_label", "degenerate_label"} & set(markoff.__all__)
