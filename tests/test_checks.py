import pytest

from quantakit import checks


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_every_check_in_the_suite_passes(suite):
    results = checks.run_suites([suite])
    assert results and all(r.suite == suite for r in results)
    failed = [f"{r.name} -- {r.detail}" if r.detail else r.name for r in results if not r.ok]
    assert failed == []
