"""Smoke test: every script under demos/ runs to a clean exit (in process)."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_exit_0(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        assert stop.code in (None, 0)
    assert capsys.readouterr().out
