"""Every oracle of the :mod:`vql.selfcheck` registry, at its registry parameters.

One test id per ``CHECKS`` entry, named by the check, so tier-1 runs every
oracle that ``vql selfcheck`` runs; and the scalar-loop loss checks are
shown to fail when the loss they check is off by a relative 1e-9.
"""

import pytest

from vql import amm, glm
from vql.selfcheck import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_check(name):
    passed, detail = CHECKS[name]()
    assert passed is True, detail


@pytest.mark.parametrize(
    "module,loss,check",
    [(glm, "track_loss", "glm.track_loss_scalar_loop"), (amm, "seg_loss", "amm.seg_loss_scalar_loop")],
)
def test_scalar_loop_check_fails_on_a_perturbed_loss(monkeypatch, module, loss, check):
    # a loss off by one part in 1e9 is well outside the checks' 1e-12 relative tolerance
    exact = getattr(module, loss)
    monkeypatch.setattr(module, loss, lambda *args, **kwargs: exact(*args, **kwargs) * (1.0 + 1e-9))
    passed, detail = CHECKS[check]()
    assert passed is False, detail
