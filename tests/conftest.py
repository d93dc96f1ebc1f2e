"""Values shared by more than one test module, one import made early, and
the curve and sample memos cleared before each test.

When a hypothesis test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to print a patch hint.  That import pulls in
``libcst``, whose ``mypy_extensions`` raises a DeprecationWarning, and
``filterwarnings = ["error"]`` would turn it into an INTERNALERROR that hides
every later result.  Importing the module here, with that warning ignored,
caches it before any test runs; the filter still holds for project code.

``logpairs.curves`` keeps the answers of its squarefree check and of the
centers of ``resolve`` for the last input each, and ``logpairs.experiments``
keeps the sample of the last (curve, bound).  A test that counts the calls those
steps make would otherwise see nothing when an earlier test used the same
curve.
"""

import sys
import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips its patch hint too
        pass


@pytest.fixture(autouse=True)
def _fresh_memos():
    # Looked up, not imported: this file also runs in a session without src.
    curves = sys.modules.get("logpairs.curves")
    if curves is not None:
        curves._is_squarefree.cache_clear()
        curves._CENTERS.clear()
    experiments = sys.modules.get("logpairs.experiments")
    if experiments is not None:
        experiments.sample_param_points.cache_clear()


@pytest.fixture(scope="session")
def nodal_cubic_rho() -> float:
    """The real root of t^3 = t + 1, by Cardano's formula.

    Its logarithm is the exact supremum of |residual| over the rational
    points of the nodal cubic; no rational point attains it.
    """
    root69 = 69**0.5
    return ((9 + root69) / 18) ** (1 / 3) + ((9 - root69) / 18) ** (1 / 3)
