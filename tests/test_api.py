"""The package's public API: each name is declared once, in its module."""

import importlib

import covshift

MODULES = ("core", "sparse_eig", "sdp_relax", "univariate", "multivariate", "simulate",
           "exceptions")


def test_package_all_concatenates_module_lists():
    declared = [name for mod in MODULES
                for name in importlib.import_module(f"covshift.{mod}").__all__]
    assert len(declared) == len(set(declared))
    assert covshift.__all__ == ["__version__"] + declared


def test_every_public_name_resolves():
    for mod in MODULES:
        module = importlib.import_module(f"covshift.{mod}")
        for name in module.__all__:
            assert getattr(covshift, name) is getattr(module, name), (mod, name)
