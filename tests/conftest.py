"""Values shared by more than one test module, and one import made early.

When a hypothesis test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to print a patch hint.  That import pulls in
``libcst``, whose ``mypy_extensions`` raises a DeprecationWarning, and
``filterwarnings = ["error"]`` would turn it into an INTERNALERROR that hides
every later result.  Importing the module here, with that warning ignored,
caches it before any test runs; the filter still holds for project code.
"""

import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips its patch hint too
        pass


@pytest.fixture(scope="session")
def nodal_cubic_rho() -> float:
    """The real root of t^3 = t + 1, by Cardano's formula.

    Its logarithm is the exact supremum of |residual| over the rational
    points of the nodal cubic; no rational point attains it.
    """
    root69 = 69**0.5
    return ((9 + root69) / 18) ** (1 / 3) + ((9 - root69) / 18) ** (1 / 3)
