"""The package's public API: each name is declared once, in its module,
and a bad value raises ``InvalidInputError``."""

import importlib
import inspect

import pytest

import covshift
from covshift import InvalidInputError

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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: covshift.minimax_lower_bound("a"), id="alpha-str"),
    pytest.param(lambda: covshift.signal_strength_uni(4, 8, None, 1.0), id="variance-none"),
    pytest.param(lambda: covshift.chisq_cross_term(1, 2, 0.1, 0.1, 1.0, None), id="inner-none"),
    pytest.param(lambda: covshift.chisq_cross_term(1, 2, None, 0.1, 1.0, 0.5), id="kappa-none"),
    pytest.param(lambda: covshift.chisq_cross_term(None, 2, 0.1, 0.1, 1.0, 0.5), id="gap-none"),
    pytest.param(lambda: covshift.chisq_cross_term(1, "a", 0.1, 0.1, 1.0, 0.5), id="gap-str"),
    pytest.param(lambda: covshift.mixture_chisq_uni_proof_bound(64, 1.0, None), id="rho-none"),
    pytest.param(lambda: covshift.mixture_chisq_uni_proof_bound(64, 1.0, -2.0),
                 id="rho-negative"),
    pytest.param(lambda: covshift.mixture_chisq_uni_proof_bound(64, None, 2.0),
                 id="sigma-sq-none"),
    pytest.param(lambda: covshift.relaxed_sparse_eigmax([[1.0]], 1, tol=None), id="tol-none"),
    pytest.param(lambda: covshift.variance_test(["a", "b", "c"], 1.0), id="series-str"),
    pytest.param(lambda: covshift.adaptive_test([[1, 2], [3]], 1.0), id="series-ragged"),
    pytest.param(lambda: covshift.operator_norm("x"), id="matrix-str"),
    pytest.param(lambda: covshift.sparse_abs_eigmax([["a"]], 1), id="matrix-cell-str"),
])
def test_bad_values_raise_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


def test_run_test_and_calibrate_take_no_solver_knobs():
    # The support cap and the relaxation gap are the solvers' own constants.
    for fn in (covshift.run_test, covshift.calibrate_lambda):
        assert not {"budget", "tol"} & set(inspect.signature(fn).parameters), fn.__name__
