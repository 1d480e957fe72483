"""Freudenthal multiplicities of large highest weights against recorded digests.

The digests were recorded from the recursion that walked every alpha-string
to its first weight outside the character and tried every positive root in
the dominance closure.  Each case also checks ``dim`` against the Weyl
dimension.  ``check_chi_digests.py`` also checks E6 2rho and E8 rho, which
take longer than the rest together.
"""

import pytest

from check_chi_digests import CASES, case_key, chi_case, recorded


@pytest.mark.parametrize("spec", [spec for spec in CASES if spec not in ("E6", "E8")])
def test_chi_matches_its_recorded_digest(spec):
    digest, dimension, weyl_dimension = chi_case(spec)
    assert digest == recorded()[case_key(spec)]
    assert dimension == weyl_dimension


def test_every_recorded_case_is_known():
    assert sorted(recorded()) == sorted(map(case_key, CASES))
