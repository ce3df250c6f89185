import numpy as np
import pytest

import grasscode.core_linalg as core_linalg
from grasscode.constructions import extraspecial_code, mub_code, pauli_code
from grasscode.core_linalg import Code, Subspace, haar_basis_batch


@pytest.fixture(scope="session")
def pauli2():
    return pauli_code(2)


@pytest.fixture(scope="session")
def mub5():
    return mub_code(5)


@pytest.fixture(scope="session")
def es321():
    return extraspecial_code(3, 2, 1)


@pytest.fixture(scope="session")
def es320():
    return extraspecial_code(3, 2, 0)


@pytest.fixture(scope="session")
def haar9():
    "60 Haar 9-planes of C^27, the G(9, 27) of es(3,3,2)"
    return random_code(27, 9, 60, seed=29)


def random_code(n, m, N, seed):
    "N independent Haar subspaces as a Code (duplicates astronomically unlikely)"
    B = haar_basis_batch(n, m, N, seed=seed)
    return Code([Subspace(b) for b in B], check_duplicates=False)


def random_subspace_pair(n, m, rng):
    from grasscode.core_linalg import subspace_from_basis
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return subspace_from_basis(a), subspace_from_basis(b)


def pass_form(form, out):
    """what a pair pass formed besides the gram: "gram" (nothing else),
    "angles" (squared_cosines of each W^dagger W) or ("sums", degree), the
    degree read off the formed array"""
    if form is None:
        return "gram"
    return ("angles" if form is core_linalg.squared_cosines
            else ("sums", out.shape[-1]))


def counting_kernel(monkeypatch):
    """replace the blocked pair kernel by a wrapper that logs what each
    completed pass formed (pass_form)"""
    calls = []
    kernel = core_linalg._overlap_pass

    def counted(bases, form=None):
        gram, out = kernel(bases, form)
        calls.append(pass_form(form, out))
        return gram, out

    monkeypatch.setattr(core_linalg, "_overlap_pass", counted)
    return calls
