"""The installed console scripts: exactly three, each importable."""

import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def scripts() -> dict:
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def test_exactly_three_console_scripts():
    assert set(scripts()) == {"repro-experiments", "repro-lint",
                              "repro-obs"}


@pytest.mark.parametrize("name", sorted(scripts()))
def test_console_script_target_is_callable(name):
    module, _, func = scripts()[name].partition(":")
    assert callable(getattr(importlib.import_module(module), func))
