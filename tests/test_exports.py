import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
import scipy.sparse as sp

import delam2d
import references

MODULES = sorted(
    f"delam2d.{info.name}" for info in pkgutil.iter_modules(delam2d.__path__)
) + ["delam2d"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize(
    "name", ["stored_energy", "energy_inequality_residual", "semistability_check"]
)
def test_from_states_audits_live_in_the_tests(name):
    # src sums these from the step reports; the recomputations from every
    # state are test references (tests/references.py), not package API
    assert name not in delam2d.__all__
    assert not hasattr(importlib.import_module("delam2d.energetics"), name)
    assert callable(getattr(references, name))


def test_the_qp_entry_takes_the_steps_factor_g_and_c():
    # the package's one QP is the step's: solve_qp takes the factor that
    # factorize(H, B) built and the call's g and c; a problem container
    # is a test reference, and a factor keeps no H and no caller's B
    qp = importlib.import_module("delam2d.qp")
    assert not hasattr(delam2d, "QpProblem") and not hasattr(qp, "QpProblem")
    assert not hasattr(qp, "_Lowered")
    params = list(inspect.signature(qp.solve_qp).parameters)
    assert params == ["factor", "g", "c", "tol", "max_iter", "warm_start"]
    factor = qp.factorize(sp.csc_matrix(np.eye(2)), sp.csr_matrix(np.eye(2)))
    assert not hasattr(factor, "H") and not hasattr(factor, "built_for")
    with pytest.raises(ValueError, match="entries for 2 constraint rows"):
        qp.solve_qp(factor, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="CSR"):
        qp.factorize(sp.csc_matrix(np.eye(2)), np.eye(2))


def test_test_only_certificates_live_in_the_tests():
    # the package certifies a step by its energy check and the closed-form
    # momentum certificate; the generic KKT residuals, the QP objective and
    # the ledger's energy scale are test references, and a QpSolution keeps
    # no copy of the problem it solved
    qp = importlib.import_module("delam2d.qp")
    assert not hasattr(qp, "kkt_check") and not hasattr(qp, "KktResiduals")
    assert not hasattr(delam2d.EnergyLedger, "scale")
    fields = [f.name for f in dataclasses.fields(qp.QpSolution)]
    assert fields == ["x", "active_set", "multipliers", "slacks", "iterations"]
    assert callable(references.kkt_residuals) and callable(references.ledger_scale)
