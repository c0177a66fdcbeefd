"""Every oracle of the :mod:`vql.selfcheck` registry, at its registry parameters.

One test id per ``CHECKS`` entry, named by the check, so tier-1 runs every
oracle that ``vql selfcheck`` runs.
"""

import pytest

from vql.selfcheck import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_check(name):
    passed, detail = CHECKS[name]()
    assert passed is True, detail
