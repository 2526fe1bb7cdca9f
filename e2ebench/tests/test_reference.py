"""The reference table against the explicit-state oracle and the cases."""

import pytest

from reference import REFERENCE
from workloads import WORKLOADS, catalogue


def test_every_case_has_a_reference_row():
    keys = {case.key for cases in WORKLOADS.values() for case in cases}
    assert keys == set(REFERENCE)


def _problems():
    seen = {}
    for case in catalogue():
        seen.setdefault((case.model, case.params, case.bug), case)
    return sorted(seen.values(), key=lambda case: case.key)


@pytest.mark.parametrize("case", _problems(), ids=lambda case: case.key)
def test_short_mixed_verdict_matches_explicit_oracle(repro, case):
    from repro.explicit import explicit_check
    problem = repro.build_model(case.model, bug=case.bug, **dict(case.params))
    oracle = explicit_check(problem.machine, problem.conjuncts())
    assert not oracle.truncated
    for other in catalogue():
        if (other.model, other.params, other.bug) == \
                (case.model, case.params, case.bug):
            assert REFERENCE[other.key][3] == oracle.holds, other.key
