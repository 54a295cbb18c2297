"""Every output of the golden cases (see ``golden.py``) against the committed files.

Where numpy and the BLAS match those recorded in ``tests/golden/environment.json``, the
files must be equal byte for byte, so a one-ulp change that reaches any printed digit
fails. Elsewhere every number must agree to a relative 1e-9 and all other text exactly,
and the test warns that the bytes were not compared.
"""

import json
import warnings

import pytest

import golden


class GoldenBytesNotCompared(UserWarning):
    pass


@pytest.fixture(scope="module")
def outputs():
    return golden.run_cases()


@pytest.fixture(scope="module")
def same_environment():
    recorded = json.loads(golden.ENVIRONMENT.read_text())
    here = golden.environment()
    if here != recorded:
        warnings.warn(GoldenBytesNotCompared(
            f"numpy/BLAS {here} differ from the recorded {recorded}: golden outputs are "
            f"compared number by number at rel {golden.REL_TOL}, not byte for byte"))
    return here == recorded


@pytest.mark.parametrize("case", sorted(golden.cases()))
def test_outputs_match_golden(case, outputs, same_environment):
    got, want = outputs[case], golden.read_golden(case)
    assert sorted(got) == sorted(want)
    for name in want:
        if same_environment:
            assert got[name] == want[name], f"{case}/{name} differs"
        else:
            assert golden.numbers_differ(got[name], want[name]) is None, f"{case}/{name}"


def test_numbers_differ_reads_every_number():
    assert golden.numbers_differ(b"a,1.5,x2e-3\n", b"a,1.5000000000001,x2e-3\n") is None
    assert golden.numbers_differ(b"a,1.5\n", b"a,1.50001\n") == "number 0: 1.5 against 1.50001"
    assert golden.numbers_differ(b"a,1.5\n", b"b,1.5\n") is not None
    assert golden.numbers_differ(b"nan,-inf", b"nan,-inf") is None
