#!/usr/bin/env python3
"""Levi-decomposition certificates across facets, plus the unitary family.

The certificate engine only ever certifies sufficient conditions.  For each
facet the radical layers are fed to the rules, and the trace records which
hypotheses were actually checked with which numbers.
"""

from parahoric import (
    build_root_datum,
    certify,
    classify_quotient,
    enumerate_facets,
    from_parahoric,
    parahoric_model,
    unitary_report,
)

for name, p in [("A2", 5), ("C2", 3), ("G2", 2)]:
    rd = build_root_datum(name)
    print(f"{name} at p = {p}:")
    for theta in enumerate_facets(rd):
        model = parahoric_model(rd, theta)
        cert = certify(from_parahoric(model), p)
        fired = [r["id"] for r in cert.rules if r["satisfied"]]
        print(f"  theta {str(theta):8s} quotient {str(classify_quotient(model)):8s} "
              f"existence {cert.existence:13s} conjugacy {cert.conjugacy:25s} "
              f"rules {fired}")
    print()

print("Even quasi-split unitary family: special fiber over Sp(2n).")
print("The radical is the traceless part of the exterior square of the")
print("natural module; conjugacy of Levi factors by rational points holds")
print("exactly when p does not divide n.")
for n in (2, 3, 4, 5):
    for p in (3, 5):
        r = unitary_report(n, p)
        verdict = "conjugate" if r["conjugacy_by_group_points"] else "NOT conjugate"
        print(f"  n={n} p={p}: dim/\\^2 = {r['dim_lambda2']:3d} "
              f"expansion {r['expansion']}  Levi factors {verdict}")
