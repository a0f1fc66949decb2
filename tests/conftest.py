from fractions import Fraction

import pytest

from nilpoisson import AlgebraSpec, ExteriorComplex, GaussianRational
from nilpoisson.catalog import heisenberg_ext, w_family


@pytest.fixture(scope="session")
def w6():
    """W_6: basis T1, T2, V with the single pairing entry E_12 = -1/2."""
    return w_family(0)


@pytest.fixture(scope="session")
def w6_complex(w6):
    return ExteriorComplex(w6)


@pytest.fixture(scope="session")
def heis1():
    """Extension of h_3: basis T1, V with E_11 = -i/2."""
    return heisenberg_ext(1)


@pytest.fixture(scope="session")
def heis1_complex(heis1):
    return ExteriorComplex(heis1)


@pytest.fixture(scope="session")
def three_step():
    """A 3-step algebra with two-dimensional (1,0) center.

    Brackets: [X1bar, X1] = X2 - X2bar, [X1bar, X2] = X3 - X3bar; X3 and X4
    are central.  The layers come out as {X1, X4}, {X2}, {X3}.
    """
    one = GaussianRational(1)
    return AlgebraSpec(
        "three-step", 4, ("X1", "X2", "X3", "X4"),
        {(1, 1, 2): one, (1, 2, 3): one},
    )


@pytest.fixture(scope="session")
def three_step_complex(three_step):
    return ExteriorComplex(three_step)


@pytest.fixture(scope="session")
def step3():
    """A 3-step algebra with one-dimensional (1,0) center X4.

    A^3_{21} = A^4_{32} = -i/2, so dbar X1 = -i/2 wbar^2 ^ X3 and
    dbar X2 = -i/2 wbar^3 ^ X4.  The layers come out as {X1, X2}, {X3},
    {X4}; wbar^1 occurs in no image of dbar or of ad_{X4^X3}.
    """
    half = GaussianRational(0, Fraction(-1, 2))
    return AlgebraSpec("step3", 4, ("X1", "X2", "X3", "X4"),
                       {(2, 1, 3): half, (3, 2, 4): half})
