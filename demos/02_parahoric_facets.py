#!/usr/bin/env python3
"""Facets of the fundamental alcove and their parahoric special fibers.

For each facet Theta the window model assigns every root its canonical
affine representative; grading value 0 gives the reductive quotient, value
j >= 1 gives the j-th layer of the unipotent radical.  The same quotient
type must come out of extended-Dynkin-diagram node deletion, which is
checked live below.
"""

from parahoric import (
    build_root_datum,
    classify_quotient,
    enumerate_facets,
    extended_basis,
    parahoric_model,
    quotient_by_deletion,
)

for name in ["A2", "C2", "G2"]:
    rd = build_root_datum(name)
    cb = extended_basis(rd).components[0]
    print(f"{name}: marks {list(cb.marks)}, ell = {cb.ell}")
    print(f"  {'theta':10s} {'deleted-node type':18s} {'window type':12s} "
          f"{'dim R':5s} layers")
    for theta in enumerate_facets(rd):
        model = parahoric_model(rd, theta)
        deleted = quotient_by_deletion(rd, theta)
        window = classify_quotient(model)
        assert deleted == window
        layer_dims = [len(layer) for layer in model.layers]
        print(f"  {str(theta):10s} {str(deleted):18s} {str(window):12s} "
              f"{model.dim_R:5d} {layer_dims}")
    print()

print("Iwahori of A2 in detail (all nodes in Theta):")
rd = build_root_datum("A2")
model = parahoric_model(rd, enumerate_facets(rd)[-1])
for j in range(1, len(model.layers) + 1):
    print(f"  layer {j}: weights {list(model.layer(j))}")
print("  canonical representatives match the classical description:",
      model.psi_literal_agrees)
