"""Package metadata: the distribution version is ``repro.__version__``."""

import pathlib

import pytest

import repro

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.filterwarnings("ignore")  # setuptools flags [tool.setuptools] as beta
def test_pyproject_version_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    project = pyprojecttoml.read_configuration(PYPROJECT)["project"]
    assert project["version"] == repro.__version__
