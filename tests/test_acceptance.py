"""Acceptance suite: one test per criterion, exact values, stated time caps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  All equalities are exact integer equalities; the only
tolerances are the per-criterion wall-clock caps, asserted here.
"""

import itertools
import json
import random
import time

from parahoric import (
    SimpleLedger,
    build_root_datum,
    certify,
    chi_char,
    chi_expand,
    classify_quotient,
    dim,
    dual,
    enumerate_facets,
    ext2_chain,
    extended_basis,
    exterior_square,
    from_parahoric,
    jantzen_sum,
    parahoric_model,
    parse_facet_spec,
    quotient_by_deletion,
    resolve_simple,
    tensor,
    unitary_report,
)
from parahoric.charring import VirtualChiSum
from parahoric.rootdata import wneg

from _oracles import canonical_rep, chi_expand_map, evaluate_chi_sum

PRIMES = (3, 5, 7, 11)

RANK_LE_4_SIMPLE = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4",
    "F4", "G2",
]


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS  {text}")


def test_criterion_1_sl3_jantzen_sums():
    a2 = build_root_datum("A2")
    for p in PRIMES:
        started = time.monotonic()
        mu = (p - 2, 1)
        lam = (p, 0)
        gamma = (p - 3, 0)
        assert jantzen_sum(a2, p, mu).coeffs == {gamma: 1}
        assert jantzen_sum(a2, p, lam).coeffs == {mu: 1, gamma: -1}
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"p={p} took {elapsed:.3f}s"
    _report(1, f"Jantzen sums exact for p in {PRIMES}, each under 1 s")


def test_criterion_2_ext2_chain():
    a2 = build_root_datum("A2")
    for p in PRIMES:
        ledger = SimpleLedger(a2, p)
        assert ext2_chain(a2, p, (p, 0), (p - 2, 1), (p - 3, 0), ledger) == 1
    _report(2, f"dim Ext^2 = 1 for the chain at p in {PRIMES}")


def test_criterion_3_dim_w():
    a2 = build_root_datum("A2")
    dims = {}
    for p in PRIMES:
        ledger = SimpleLedger(a2, p)
        resolve_simple(a2, p, (p - 3, 0), ledger)
        resolve_simple(a2, p, (p, 0), ledger)
        w = tensor(
            dual(ledger.entries[(p, 0)].char), ledger.entries[(p - 3, 0)].char
        )
        dims[p] = dim(w)
        assert dims[p] == 3 * (p - 1) * (p - 2) // 2
    assert dims[5] == 18
    _report(3, f"dim W = 3(p-1)(p-2)/2 exactly: {dims}")


def test_criterion_4_unitary_example():
    for n in (2, 3, 4, 5):
        for p in (3, 5):
            started = time.monotonic()
            rd = build_root_datum(f"C{n}")
            w1 = tuple(1 if i == 0 else 0 for i in range(n))
            w2 = tuple(1 if i == 1 else 0 for i in range(n))
            lam2 = exterior_square(chi_char(rd, w1))
            expansion = chi_expand(lam2)
            assert expansion.coeffs == {w2: 1, (0,) * n: 1}
            assert dim(lam2) == n * (2 * n - 1)
            assert rd.weyl_dim(w2) == 2 * n * n - n - 1
            report = unitary_report(n, p)
            assert report["existence"] is True
            assert report["conjugacy_by_group_points"] == (n % p != 0)
            assert report["h1_nonzero_reported"] == (n % p == 0)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"n={n} p={p} took {elapsed:.3f}s"
    _report(4, "exterior-square expansion, dims, and verdict table for n=2..5, p in {3,5}")


def test_criterion_5_parahoric_bookkeeping():
    started = time.monotonic()
    checked = 0
    for name in RANK_LE_4_SIMPLE:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        root_coords = {r.coords for r in rd.roots}
        for theta in enumerate_facets(rd, basis):
            model = parahoric_model(rd, theta, basis)
            assert len(model.quotient_roots) + model.dim_R == len(rd.roots)
            quotient = {rd.roots[k].coords for k in model.quotient_roots}
            for c in quotient:
                assert wneg(c) in quotient
            for x, y in itertools.combinations(quotient, 2):
                s = tuple(a + b for a, b in zip(x, y))
                if s in root_coords:
                    assert s in quotient
            assert quotient_by_deletion(rd, theta, basis) == classify_quotient(model)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(5, f"{checked} facets over {len(RANK_LE_4_SIMPLE)} types in {elapsed:.1f}s")


def test_criterion_6_character_engine():
    started = time.monotonic()
    for name in ["A1", "A2", "B2", "C2", "G2", "A1xA1"]:
        rd = build_root_datum(name)
        for lam in itertools.product(range(3), repeat=rd.n):
            assert dim(chi_char(rd, lam)) == rd.weyl_dim(lam)
    rng = random.Random(1105)
    names = ["A1", "A2", "B2", "C2", "A1xA1"]
    data = {name: build_root_datum(name) for name in names}
    for _ in range(200):
        rd = data[rng.choice(names)]
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randint(0, 3) for _ in range(rd.n))
            coeffs[w] = rng.choice([-3, -2, -1, 1, 2, 3])
        vcs = VirtualChiSum(coeffs)
        assert chi_expand_map(rd, evaluate_chi_sum(rd, vcs)) == vcs
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(6, f"degree formula grid and 200 expansion roundtrips in {elapsed:.1f}s")


def test_criterion_7_facet_counts():
    counts = {}
    for name, expected in [("A1", 3), ("A2", 7), ("C2", 7), ("A1xA1", 9)]:
        rd = build_root_datum(name)
        counts[name] = len(enumerate_facets(rd))
        assert counts[name] == expected
    _report(7, f"facet counts {counts}")


GOLDEN_A1_IWAHORI = {
    "conjugacy": "certified",
    "existence": "certified",
    "notes": [],
    "rules": [
        {
            "hypothesis": "reductive quotient has no roots",
            "id": "T",
            "satisfied": True,
            "values": {
                "note": (
                    "rule T uses the standard vanishing of higher cohomology "
                    "for a diagonalizable group; it is independent of the "
                    "dimension-based rules"
                ),
                "quotient_root_count": 0,
            },
        },
        {
            "hypothesis": "every layer dimension is below the bound",
            "id": "C1",
            "satisfied": True,
            "values": {"bound": 5, "dims": [2], "rank_refined": False},
        },
        {
            "hypothesis": (
                "total radical dimension is within the bound and the "
                "aggregate character is a nonnegative chi-combination"
            ),
            "id": "E1",
            "satisfied": True,
            "values": {
                "bound": 5,
                "expansion": {"-2": 1, "2": 1},
                "nonnegative": True,
                "total_dim": 2,
            },
        },
        {
            "hypothesis": (
                "each layer has dimension at most p and a nonnegative "
                "chi-combination character"
            ),
            "id": "E2",
            "satisfied": True,
            "values": {
                "layers": [
                    {"dim": 2, "expansion": {"-2": 1, "2": 1}, "nonnegative": True}
                ],
                "p": 5,
            },
        },
    ],
}

GOLDEN_A2_FACET = {
    "conjugacy": "certified",
    "existence": "certified",
    "notes": [],
    "rules": [
        {
            "hypothesis": "reductive quotient has no roots",
            "id": "T",
            "satisfied": False,
            "values": {
                "note": (
                    "rule T uses the standard vanishing of higher cohomology "
                    "for a diagonalizable group; it is independent of the "
                    "dimension-based rules"
                ),
                "quotient_root_count": 2,
            },
        },
        {
            "hypothesis": "every layer dimension is below the bound",
            "id": "C1",
            "satisfied": True,
            "values": {"bound": 5, "dims": [4], "rank_refined": False},
        },
        {
            "hypothesis": (
                "total radical dimension is within the bound and the "
                "aggregate character is a nonnegative chi-combination"
            ),
            "id": "E1",
            "satisfied": True,
            "values": {
                "bound": 5,
                "expansion": {"-2,1": 1, "1,1": 1},
                "nonnegative": True,
                "total_dim": 4,
            },
        },
        {
            "hypothesis": (
                "each layer has dimension at most p and a nonnegative "
                "chi-combination character"
            ),
            "id": "E2",
            "satisfied": True,
            "values": {
                "layers": [
                    {
                        "dim": 4,
                        "expansion": {"-2,1": 1, "1,1": 1},
                        "nonnegative": True,
                    }
                ],
                "p": 5,
            },
        },
    ],
}


def test_criterion_8_certificate_regression():
    a1 = build_root_datum("A1")
    b1 = extended_basis(a1)
    cert1 = certify(from_parahoric(parahoric_model(a1, parse_facet_spec("0,1", b1), b1)), 5)
    assert json.loads(json.dumps(cert1.to_json_dict())) == GOLDEN_A1_IWAHORI
    a2 = build_root_datum("A2")
    b2 = extended_basis(a2)
    cert2 = certify(from_parahoric(parahoric_model(a2, parse_facet_spec("0,2", b2), b2)), 5)
    assert json.loads(json.dumps(cert2.to_json_dict())) == GOLDEN_A2_FACET
    _report(8, "golden certificate JSON matches for A1 Iwahori and the A2 facet at p=5")


def test_criterion_9_psi_literal_consistency():
    checked = 0
    for name in RANK_LE_4_SIMPLE:
        rd = build_root_datum(name)
        basis = extended_basis(rd)
        for theta in enumerate_facets(rd, basis):
            affine_nodes_in = all(
                cb.rank in part for cb, part in zip(basis.components, theta.theta)
            )
            if not affine_nodes_in:
                continue
            model = parahoric_model(rd, theta, basis)
            assert model.psi_literal_agrees, (name, str(theta))
            for a in rd.positive_roots:
                assert canonical_rep(rd, basis, theta, a).level == 0
            checked += 1
    _report(9, f"canonical representatives equal literal Psi on {checked} facets")
