"""Byte-identity of CLI stdout at sizes where summation order or
normalisation could differ between implementations.

The inputs, the cases and their digests are in ``tests/golden_digests.py``,
which also runs them without pytest.  A changed digest means changed bytes;
the command line is in the case id.
"""

import pytest

from golden_digests import CASES, golden_outcome, write_specs


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    return write_specs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("argv,expected", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_stdout_digest(specs, argv, expected):
    assert golden_outcome(argv, specs) == (0, expected)
