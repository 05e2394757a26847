"""The package namespace re-exports each module's public names; its
import pulls in no more of SciPy than it needs."""

import os
import subprocess
import sys
from pathlib import Path

import ltnet
from ltnet import control, equilibria, hierarchy, io, network, stability, sysid


def test_package_all_is_the_union_of_module_lists():
    modules = (network, equilibria, stability, control, hierarchy)
    expected = {name for m in modules for name in m.__all__} | {"io", "sysid", "__version__"}
    assert set(ltnet.__all__) == expected
    assert len(ltnet.__all__) == len(expected)  # no name listed twice
    for m in modules:
        for name in m.__all__:
            assert getattr(ltnet, name) is getattr(m, name), name
    assert ltnet.io is io and ltnet.sysid is sysid
    assert isinstance(ltnet.__version__, str)


def test_import_loads_no_csgraph():
    # certification needs no graph routines
    env = dict(os.environ, PYTHONPATH=str(Path(ltnet.__file__).parents[1]))
    code = ("import sys, ltnet, ltnet.cli; "
            "print([k for k in sys.modules if k.startswith('scipy.sparse.csgraph')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
