import numpy as np
import pytest

from pcmkit import RiTable, validate
from pcmkit.core import STRICT_FILE_POLICY, reciprocal_from_upper
from pcmkit.verify import CASES


def case_matrix(name: str):
    for case in CASES:
        if case.name == name:
            return case.matrix
    raise KeyError(name)


@pytest.fixture(scope="session")
def four_alt():
    """Four-alternative matrix with a published right/inverse-left flip."""
    return case_matrix("four-alternative-reversal")


@pytest.fixture(scope="session")
def reciprocal_pair():
    """Inconsistent matrix whose left/right eigenvectors are still reciprocal."""
    return case_matrix("reciprocal-pair-family")


@pytest.fixture(scope="session")
def five_alt():
    return case_matrix("five-alternative-acceptable")


@pytest.fixture(scope="session")
def near_consistent():
    return case_matrix("minimal-inconsistency-reversal")


@pytest.fixture(scope="session")
def full_reversal():
    return case_matrix("fully-reversed-ranking")


@pytest.fixture(scope="session")
def distant_reversal():
    return case_matrix("distant-priority-reversal")


@pytest.fixture(scope="session")
def judge_pair():
    return case_matrix("opposed-judges-first"), case_matrix("opposed-judges-second")


def random_reciprocal(n: int, rng: np.random.Generator):
    """Random reciprocal matrix with log-uniform entries in [1/9, 9]."""
    upper = np.exp(rng.uniform(-np.log(9.0), np.log(9.0), size=(n, n)))
    iu, ju = np.triu_indices(n, 1)
    return validate(reciprocal_from_upper(upper[iu, ju], n), STRICT_FILE_POLICY)


@pytest.fixture(scope="session")
def toy_ri_table():
    """Fixed small table so tests do not depend on the shipped estimates."""
    return RiTable.supplied({3: 0.525, 4: 0.88, 5: 1.11, 6: 1.25, 7: 1.34, 8: 1.40, 9: 1.45})
