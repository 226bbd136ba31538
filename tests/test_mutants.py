"""The verifier must reject a wrong algebra, not only pass the right one.

Mutant class: one entry of the product sign table flipped.  Each of the
1 + 4 + 16 + 64 entries at dims 1, 2, 4 and 8 is flipped in turn by
monkeypatching `core._product_tables`, and the core suite alone must fail
on the mutated product.
"""

import pytest

from octotriple import core
from octotriple.verify import RunConfig, run_all


def _flipped_tables(dim, i, k):
    """_product_tables with sign entry [i, k] of dimension dim negated."""
    original = core._product_tables
    xor, sign = original(dim)
    mutant = sign.copy()
    mutant[i, k] = -mutant[i, k]
    return lambda d: (xor, mutant) if d == dim else original(d)


@pytest.mark.parametrize("dim", core.VALID_DIMS)
def test_core_suite_catches_every_sign_flip(dim, monkeypatch):
    config = RunConfig(seed=1, trials=4, dims=(dim,))
    assert all(r.passed for r in run_all(config, suites=("core",)))
    missed = []
    for i in range(dim):
        for k in range(dim):
            with monkeypatch.context() as m:
                m.setattr(core, "_product_tables", _flipped_tables(dim, i, k))
                if all(r.passed for r in run_all(config, suites=("core",))):
                    missed.append((i, k))
    assert missed == []
