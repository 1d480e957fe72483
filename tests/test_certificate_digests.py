"""Levi certificates of whole facet sweeps against recorded digests.

The digests were recorded from the engine that compressed each layer weight
by weight (dominant conjugates, counts divided by orbit sizes), expanded each
layer by Freudenthal's recursion and expanded the aggregate character of
rule E1 on its own.  Here each type's facets are modelled once and certified
by every sweep of the type.  ``check_certificate_digests.py`` also checks the
recorded E7 and E8 sweeps.
"""

import functools

import pytest

from check_certificate_digests import PRIMES, facet_sequences, recorded, sweep_digest, sweep_key

sequences = functools.cache(facet_sequences)

SWEEPS = [(spec, p, refine) for spec in ("F4", "E6") for p in PRIMES for refine in (False, True)]
SWEEPS += [("E7", 5, False), ("E7", 5, True)]


@pytest.mark.parametrize("spec,p,refine", SWEEPS, ids=lambda v: str(v))
def test_certificate_sweep_matches_its_recorded_digest(spec, p, refine):
    assert sweep_digest(sequences(spec), p, refine) == recorded()[sweep_key(spec, p, refine)]


def test_every_recorded_sweep_is_known():
    assert sorted(recorded()) == sorted(
        sweep_key(spec, p, refine)
        for spec in ("F4", "E6", "E7", "E8")
        for p in PRIMES
        for refine in (False, True)
    )
