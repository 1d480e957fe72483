import collections
import itertools
import os
import random
import subprocess
import sys

import pytest

from parahoric import (
    DatumMismatch,
    HypothesisUnmet,
    InvariantViolation,
    NotPrime,
    SimpleLedger,
    build_root_datum,
    chi_char,
    chi_normalize,
    dim,
    dot_reflect,
    dual,
    ext1_dim,
    ext2_chain,
    jantzen_report,
    jantzen_sum,
    lowest_alcove_test,
    resolve_simple,
    tensor,
)
from parahoric import jantzen
from parahoric.jantzen import JANTZEN_RESOLVED, LOWEST_ALCOVE, LedgerEntry
from parahoric.rootdata import NotDominant, dot

from _oracles import chi_normalize_by_rescans, lowest_alcove_by_scan, merge_ledgers, resolve_by_evaluation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (type, p, side) of the box [0, side)^rank, as in the modular_ledger
# benchmark workload, which also issues each box in this shuffled order
LEDGER_BOXES = (("A2", 5, 12), ("A2", 7, 15), ("B2", 5, 10), ("G2", 7, 7), ("A3", 5, 5))


def _shuffled_box(rd, name, p, side):
    box = list(itertools.product(range(side), repeat=rd.n))
    random.Random(f"{name}:{p}").shuffle(box)
    return box


def _by_evaluation(call, *args):
    """Run a ledger call with the multiset-matching oracle as the resolver."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jantzen, "_resolve", resolve_by_evaluation)
        return call(*args)


def test_dot_reflect_anchor(a2):
    theta = a2.highest_root(0)
    assert dot_reflect(a2, theta, 5, (3, 1)) == (2, 0)
    alpha1 = a2.simple_roots[0]
    assert dot_reflect(a2, alpha1, 5, (5, 0)) == (3, 1)


def test_dot_reflect_fixes_hyperplane(a2):
    for lam in [(2, 0), (3, 1), (0, 0)]:
        for alpha in a2.positive_roots:
            n = dot(lam, alpha.coroot) + alpha.coroot_height
            assert dot_reflect(a2, alpha, n, lam) == lam


def test_dot_reflect_involution(a2):
    for lam in itertools.product(range(-2, 4), repeat=2):
        for alpha in a2.positive_roots:
            for n in (3, 5):
                image = dot_reflect(a2, alpha, n, lam)
                assert dot_reflect(a2, alpha, n, image) == lam


def test_jantzen_sum_known_values(a2):
    assert jantzen_sum(a2, 5, (3, 1)).coeffs == {(2, 0): 1}
    assert jantzen_sum(a2, 5, (5, 0)).coeffs == {(3, 1): 1, (2, 0): -1}
    assert jantzen_sum(a2, 5, (0, 0)).coeffs == {}


def test_jantzen_sum_validates_input(a2):
    with pytest.raises(NotPrime):
        jantzen_sum(a2, 6, (1, 0))
    with pytest.raises(NotDominant):
        jantzen_sum(a2, 5, (-1, 0))


def test_chi_normalize_matches_the_rescanning_oracle_on_jantzen_reflections():
    # every dot reflection s_{alpha, mp} . lam that jantzen_sum normalizes,
    # over the weight boxes [0, side)^rank of six types at p = 5 and 7
    outcomes = {None: 0, 1: 0, -1: 0}
    for name, side in (("A2", 12), ("B2", 10), ("G2", 7), ("A3", 5), ("B3", 4), ("C3", 4)):
        rd = build_root_datum(name)
        for p, lam in itertools.product((5, 7), itertools.product(range(side), repeat=rd.n)):
            for alpha in rd.positive_roots:
                for mp in range(p, dot(lam, alpha.coroot) + alpha.coroot_height, p):
                    mu = dot_reflect(rd, alpha, mp, lam)
                    got = chi_normalize(rd, mu)
                    assert got == chi_normalize_by_rescans(rd, mu), (name, p, lam, alpha, mp)
                    outcomes[got and got[0]] += 1
    assert outcomes == {None: 1137, 1: 1965, -1: 917}


def test_jantzen_sum_empty_for_interior_lowest_alcove():
    for name in ["A2", "B2", "G2"]:
        rd = build_root_datum(name)
        for p in (2, 3, 5, 7):
            for lam in itertools.product(range(p + 1), repeat=rd.n):
                interior = all(
                    dot(lam, a.coroot) + a.coroot_height < p
                    for a in rd.positive_roots
                )
                if lowest_alcove_test(rd, p, lam) and interior:
                    assert jantzen_sum(rd, p, lam).coeffs == {}, (name, p, lam)


def test_lowest_alcove_examples(a2):
    assert lowest_alcove_test(a2, 2, (0, 0))
    assert lowest_alcove_test(a2, 5, (2, 0))
    assert not lowest_alcove_test(a2, 5, (3, 1))


def test_lowest_alcove_matches_the_scan_over_every_positive_coroot():
    verdicts = collections.Counter()
    for name, side in [("A2", 8), ("A3", 6), ("B2", 8), ("B3", 5), ("C2", 8), ("C3", 5), ("D4", 4),
                       ("G2", 8), ("F4", 3), ("E6", 2), ("B2xG2", 3), ("A1xA1+T1", 5)]:
        rd = build_root_datum(name)
        for lam in itertools.product(range(side), repeat=rd.n):
            for p in (2, 3, 5, 7, 11):
                verdict = lowest_alcove_test(rd, p, lam)
                assert verdict == lowest_alcove_by_scan(rd, p, lam), (name, p, lam)
                verdicts[verdict] += 1
    assert verdicts == {True: 1042, False: 5603}


def test_lowest_alcove_matches_rank2_inequality(a2):
    # for this type the test amounts to <tau, a1^vee + a2^vee> <= p - 2
    for p in (3, 5, 7):
        for tau in itertools.product(range(p + 2), repeat=2):
            assert lowest_alcove_test(a2, p, tau) == (tau[0] + tau[1] <= p - 2)


def test_resolve_simple_chain_p5(a2):
    ledger = SimpleLedger(a2, 5)
    ch_gamma = resolve_simple(a2, 5, (2, 0), ledger)
    assert dim(ch_gamma) == 6
    assert ledger.entries[(2, 0)].provenance == LOWEST_ALCOVE
    ch_mu = resolve_simple(a2, 5, (3, 1), ledger)
    assert dim(ch_mu) == 18
    assert ledger.entries[(3, 1)].provenance == JANTZEN_RESOLVED
    assert ledger.entries[(3, 1)].radical == {(2, 0): 1}
    ch_lam = resolve_simple(a2, 5, (5, 0), ledger)
    assert dim(ch_lam) == 3
    assert ledger.entries[(5, 0)].radical == {(3, 1): 1}


def test_resolve_simple_is_memoized(a2):
    ledger = SimpleLedger(a2, 5)
    first = resolve_simple(a2, 5, (5, 0), ledger)
    again = resolve_simple(a2, 5, (5, 0), ledger)
    assert first == again
    assert dim(first) <= a2.weyl_dim((5, 0))


def test_ledger_merge(a2):
    left = SimpleLedger(a2, 5)
    right = SimpleLedger(a2, 5)
    resolve_simple(a2, 5, (2, 0), left)
    resolve_simple(a2, 5, (3, 1), right)
    merged = merge_ledgers(left, right)
    assert set(merged.entries) == {(2, 0), (3, 1)}


def test_ledger_merge_checks(a2, c2):
    left = SimpleLedger(a2, 5)
    resolve_simple(a2, 5, (2, 0), left)
    with pytest.raises(DatumMismatch):
        merge_ledgers(left, SimpleLedger(c2, 5))
    with pytest.raises(ValueError):
        merge_ledgers(left, SimpleLedger(a2, 7))
    with pytest.raises(DatumMismatch):
        resolve_simple(c2, 5, (1, 0), left)
    with pytest.raises(ValueError):
        resolve_simple(a2, 7, (1, 0), left)
    other = SimpleLedger(a2, 5)
    other.entries[(2, 0)] = LedgerEntry(chi_char(a2, (1, 0)), LOWEST_ALCOVE, {})
    with pytest.raises(InvariantViolation):
        merge_ledgers(left, other)


def test_ledger_remembers_undetermined_weights(a2, monkeypatch):
    ledger = SimpleLedger(a2, 5)
    for lam in itertools.product(range(8), repeat=2):
        resolve_simple(a2, 5, lam, ledger)
    assert ledger.undetermined and not ledger.undetermined & ledger.entries.keys()
    lam = min(ledger.undetermined)
    merged = merge_ledgers(SimpleLedger(a2, 5), ledger)
    assert merged.undetermined == ledger.undetermined and merged.entries == ledger.entries

    def no_sums(*args):
        raise AssertionError("J recomputed")

    monkeypatch.setattr(jantzen, "jantzen_sum", no_sums)
    assert resolve_simple(a2, 5, lam, ledger) is None
    assert resolve_simple(a2, 5, lam, merged) is None


def test_report_computes_the_jantzen_sum_once(a2, monkeypatch):
    calls = []
    real = jantzen._jantzen_sum

    def counted(rd, p, lam):
        calls.append(lam)
        return real(rd, p, lam)

    monkeypatch.setattr(jantzen, "_jantzen_sum", counted)
    for lam in [(5, 0), (6, 3)]:
        jantzen_report(a2, 5, lam)
        assert calls.count(lam) == 1


def test_ledger_is_order_independent():
    # one shared ledger fed in three orders reports what a fresh ledger per
    # weight reports
    for name, p, side in [("A2", 5, 12), ("B2", 5, 10), ("G2", 7, 7)]:
        rd = build_root_datum(name)
        box = list(itertools.product(range(side), repeat=rd.n))
        fresh = {lam: jantzen_report(rd, p, lam, SimpleLedger(rd, p)) for lam in box}
        assert any(report.chL is None for report in fresh.values())
        for seed in range(3):
            order = random.Random(seed).sample(box, len(box))
            ledger = SimpleLedger(rd, p)
            for lam in order:
                assert jantzen_report(rd, p, lam, ledger) == fresh[lam], (name, lam)
            assert not ledger.undetermined & ledger.entries.keys()


def test_chi_basis_match_agrees_with_evaluation(a2):
    for name, p, side in LEDGER_BOXES:
        rd = build_root_datum(name)
        fast, slow = SimpleLedger(rd, p), SimpleLedger(rd, p)
        for lam in _shuffled_box(rd, name, p, side):
            expected = _by_evaluation(jantzen_report, rd, p, lam, slow)
            assert jantzen_report(rd, p, lam, fast) == expected, (name, p, lam)
        assert fast.entries == slow.entries, (name, p)
        assert fast.undetermined == slow.undetermined, (name, p)
    for p in (3, 5, 7, 11, 13):
        args = (a2, p, (p, 0), (p - 2, 1), (p - 3, 0))
        fast, slow = SimpleLedger(a2, p), SimpleLedger(a2, p)
        assert ext2_chain(*args, fast) == _by_evaluation(ext2_chain, *args, slow) == 1
        assert fast.entries == slow.entries and fast.undetermined == slow.undetermined


def test_chi_basis_match_runs_no_freudenthal_for_jantzen_terms():
    # only the weights the ledger resolves get a character; the chi-support
    # of J(lam) is matched without evaluating it
    rd = build_root_datum("A2")
    ledger = SimpleLedger(rd, 5)
    for lam in _shuffled_box(rd, "A2", 5, 12):
        jantzen_report(rd, 5, lam, ledger)
    assert ledger.undetermined
    assert set(rd.chi_cache) == set(ledger.entries)


def test_ext1_examples(a2):
    ledger = SimpleLedger(a2, 5)
    assert ext1_dim(a2, 5, (2, 0), (0, 0), ledger) == 0  # lowest alcove: rad 0
    assert ext1_dim(a2, 5, (3, 1), (2, 0), ledger) == 1
    assert ext1_dim(a2, 5, (3, 1), (0, 0), ledger) == 0
    with pytest.raises(HypothesisUnmet):
        ext1_dim(a2, 5, (2, 0), (5, 0), ledger)  # gamma strictly above tau


def test_ext2_chain_values(a2):
    for p in (3, 5, 7, 11):
        lam, mu, gamma = (p, 0), (p - 2, 1), (p - 3, 0)
        ledger = SimpleLedger(a2, p)
        assert ext2_chain(a2, p, lam, mu, gamma, ledger) == 1


def test_ext2_chain_zero_case(a2):
    # rad V(mu) = L((2,0)) does not contain the trivial module
    ledger = SimpleLedger(a2, 5)
    resolve_simple(a2, 5, (5, 0), ledger)
    assert ext1_dim(a2, 5, (3, 1), (0, 0), ledger) == 0


def test_ext2_chain_hypothesis_checks(a2):
    ledger = SimpleLedger(a2, 5)
    with pytest.raises(HypothesisUnmet):
        ext2_chain(a2, 5, (5, 0), (2, 0), (0, 0), ledger)  # rad V(lam) != L((2,0))


def test_full_chain_all_p(a2):
    for p in (3, 5, 7, 11):
        lam, mu, gamma = (p, 0), (p - 2, 1), (p - 3, 0)
        assert jantzen_sum(a2, p, mu).coeffs == {gamma: 1}
        assert jantzen_sum(a2, p, lam).coeffs == {mu: 1, gamma: -1}
        ledger = SimpleLedger(a2, p)
        assert ext2_chain(a2, p, lam, mu, gamma, ledger) == 1
        w = tensor(dual(ledger.entries[lam].char), ledger.entries[gamma].char)
        assert dim(w) == 3 * (p - 1) * (p - 2) // 2


def test_steinberg_dimension_crosscheck(a2):
    # dim L(p*w1) equals dim L(w1) through the Frobenius-twist identity
    for p in (3, 5, 7, 11):
        ledger = SimpleLedger(a2, p)
        ch = resolve_simple(a2, p, (p, 0), ledger)
        assert dim(ch) == 3


def test_report_json(a2):
    report = jantzen_report(a2, 5, (5, 0))
    data = report.to_json_dict()
    assert data == {
        "lambda": "5,0",
        "p": 5,
        "J": {"2,0": -1, "3,1": 1},
        "radical": "3,1",
        "chL_dim": 3,
        "provenance": "jantzen_resolved",
    }


def test_non_dominant_weights_are_refused(a2):
    with pytest.raises(NotDominant, match=r"\(-1, 2\) is not dominant"):
        lowest_alcove_test(a2, 5, (-1, 2))
    with pytest.raises(NotDominant, match=r"\(-1, 2\) is not dominant"):
        resolve_simple(a2, 5, (-1, 2), SimpleLedger(a2, 5))


def test_ext_hypotheses_that_the_ledger_cannot_certify(a2):
    # J(0, 4) at p = 5 matches no single ledger entry, so rad V(0, 4) stays
    # undetermined; L(3, 1) is simple but not lowest-alcove
    ledger = SimpleLedger(a2, 5)
    with pytest.raises(HypothesisUnmet, match=r"radical of V\(\(0, 4\)\) is not certified by the ledger"):
        ext1_dim(a2, 5, (0, 4), (0, 0), ledger)
    assert (0, 4) in ledger.undetermined
    with pytest.raises(HypothesisUnmet, match=r"L\(\(3, 1\)\) is not certified simple standard"):
        ext2_chain(a2, 5, (5, 0), (3, 1), (3, 1), ledger)


def test_jantzen_sum_takes_only_an_int_prime(a2):
    # at 5.0 it keyed chi at (2.0, 0.0)
    with pytest.raises(NotPrime):
        jantzen_sum(a2, 5.0, (5, 0))
    assert all(type(x) is int for w in jantzen_sum(a2, 5, (5, 0)).coeffs for x in w)


def test_the_four_dominance_checks_raise_as_before(a2):
    ledger = SimpleLedger(a2, 5)
    calls = {
        "weyl_dim": lambda lam: a2.weyl_dim(lam),
        "jantzen_sum": lambda lam: jantzen_sum(a2, 5, lam),
        "lowest_alcove_test": lambda lam: lowest_alcove_test(a2, 5, lam),
        "resolve_simple": lambda lam: resolve_simple(a2, 5, lam, ledger),
    }
    for name, call in calls.items():
        with pytest.raises(NotDominant, match=r"^\(-1, 2\) is not dominant$"):
            call((-1, 2))
        with pytest.raises(ValueError, match="has length 3"):
            call((1, 1, 0))
        with pytest.raises(ValueError, match="not an int"):
            call((1.0, 1))


# The entry points that check their arguments once and then run unchecked
# bodies, each called with a composite p, a non-dominant weight and a weight
# of the wrong length in every weight position; certify takes no weight.
ENTRY_POINT_CHECKS = (
    "from parahoric import (SimpleLedger, build_root_datum, certify, enumerate_facets, ext1_dim, ext2_chain,\n"
    "                       from_parahoric, jantzen_report, jantzen_sum, lowest_alcove_test, parahoric_model,\n"
    "                       resolve_simple)\n"
    "a2 = build_root_datum('A2')\n"
    "seq = from_parahoric(parahoric_model(a2, enumerate_facets(a2)[0]))\n"
    "ledger = lambda: SimpleLedger(a2, 5)\n"
    "calls = {\n"
    "    'jantzen_report': lambda p, w: jantzen_report(a2, p, w, ledger()),\n"
    "    'jantzen_report, no ledger': lambda p, w: jantzen_report(a2, p, w),\n"
    "    'resolve_simple': lambda p, w: resolve_simple(a2, p, w, ledger()),\n"
    "    'ext1_dim tau': lambda p, w: ext1_dim(a2, p, w, (0, 0), ledger()),\n"
    "    'ext1_dim gamma': lambda p, w: ext1_dim(a2, p, (3, 1), w, ledger()),\n"
    "    'ext2_chain lam': lambda p, w: ext2_chain(a2, p, w, (3, 1), (2, 0), ledger()),\n"
    "    'ext2_chain mu': lambda p, w: ext2_chain(a2, p, (5, 0), w, (2, 0), ledger()),\n"
    "    'ext2_chain gamma': lambda p, w: ext2_chain(a2, p, (5, 0), (3, 1), w, ledger()),\n"
    "    'jantzen_sum': lambda p, w: jantzen_sum(a2, p, w),\n"
    "    'lowest_alcove_test': lambda p, w: lowest_alcove_test(a2, p, w),\n"
    "}\n"
    "for name, call in calls.items():\n"
    "    for p, w in [(4, (1, 1)), (5, (-1, 2)), (5, (1, 1, 0))]:\n"
    "        try:\n"
    "            call(p, w)\n"
    "            print(name, '|', 'returned')\n"
    "        except ValueError as exc:\n"
    "            print(name, '|', type(exc).__name__, exc)\n"
    "try:\n"
    "    certify(seq, 4)\n"
    "except ValueError as exc:\n"
    "    print('certify |', type(exc).__name__, exc)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_entry_points_reject_bad_arguments_before_their_unchecked_bodies(flags):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", ENTRY_POINT_CHECKS], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rejections = [
        "NotPrime 4 is not prime",
        "NotDominant (-1, 2) is not dominant",
        "ValueError weight (1, 1, 0) has length 3, not the lattice rank 2",
    ]
    names = ["jantzen_report", "jantzen_report, no ledger", "resolve_simple", "ext1_dim tau", "ext1_dim gamma",
             "ext2_chain lam", "ext2_chain mu", "ext2_chain gamma", "jantzen_sum", "lowest_alcove_test"]
    assert proc.stdout.splitlines() == [
        *(f"{name} | {rejection}" for name in names for rejection in rejections),
        "certify | NotPrime 4 is not prime",
    ]
