import layerfem
from layerfem import femcore, interpolants, mesh, norms, problem, study

SUBMODULES = (femcore, interpolants, mesh, norms, problem, study)


def test_package_exports_every_submodule_export():
    for module in SUBMODULES:
        for name in module.__all__:
            assert name in layerfem.__all__, f"{module.__name__}.{name} is not exported"
            assert getattr(layerfem, name) is getattr(module, name)
    for name in layerfem.__all__:
        assert hasattr(layerfem, name), f"layerfem.__all__ names missing {name!r}"
    assert len(set(layerfem.__all__)) == len(layerfem.__all__)
