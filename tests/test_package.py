"""The package namespace re-exports each module's public names."""

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
