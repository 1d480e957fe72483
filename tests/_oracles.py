"""Independent brute-force oracles used by the tests.

These recompute expected values along routes that do not share code with the
library: explicit matrix closure for Weyl groups, exact Fraction solves for
marks and lattice coordinates, a box scan for the dominant weights below a
weight, the reflection loop for dominant conjugates, the coordinate rescan
for the dot action, the coefficient-vector closure for root systems,
``Fraction`` sums for facet barycenters, and hand-built weight multisets
for small modules.
The reference Freudenthal loop runs on weights, not on Dynkin labels as the
library does, and finds the dominant weights below lam by subtracting
positive roots from weights.
Six exceptions run on library code: the quotient datum solved root by root
over its simple roots, with one exact inverse of their whole Cartan matrix,
runs on the library's Bareiss inverse, lattice solve and Dynkin-graph
grouping, and names its type by node classification; the chi-expansion that
picks its tops by pairwise dominance solves runs on the library's chi_char
and dominance_leq, and checks the library's pick by a linear functional
against those solves; the splitting sequence compressed weight by weight
runs on the library's dominant conjugates and orbit sizes, and the E1
expansion of the summed layers on its chi-expansion; the Jantzen resolver
that evaluates J(lam) to a weight multiset runs on the library's Jantzen
sums and characters; and the facet model that
grades each root by its canonical representative runs on the library's
per-root ``canonical_rep`` and ``ell_theta``.
"""

import itertools
from fractions import Fraction

from parahoric import Character, chi_char, parse_dynkin_spec
from parahoric.affine import (
    AffineRoot,
    ParahoricModel,
    canonical_rep,
    ell_theta,
    facet_depths,
)
from parahoric.charring import chi_expand_map, evaluate_chi_sum
from parahoric.jantzen import (
    JANTZEN_RESOLVED,
    LOWEST_ALCOVE,
    LedgerEntry,
    jantzen_sum,
    lowest_alcove_test,
)
from parahoric.levicert import SplittingSequence
from parahoric.rootdata import (
    InvariantViolation,
    Root,
    _cartan_and_symmetrizer,
    _cartan_matrix,
    _cartan_solve,
    _dynkin_components,
    _integer_inverse,
    classify_nodes,
    dot,
    sub_root_datum,
    wneg,
    wsub,
)


def reflection_matrix(datum, simple_root):
    """s_i as an integer matrix on weight coordinates (columns = images)."""
    n = datum.n
    cols = []
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        img = [e[k] - simple_root.coroot[j] * simple_root.coords[k] for k in range(n)]
        cols.append(img)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_apply(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def weyl_group_matrices(datum):
    """Closure of the simple reflections under multiplication."""
    gens = [reflection_matrix(datum, s) for s in datum.simple_roots]
    n = datum.n
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return group


def roots_by_weyl_images(datum):
    """Root set as the union of Weyl images of the simple roots."""
    group = weyl_group_matrices(datum)
    return {
        mat_apply(m, s.coords) for m in group for s in datum.simple_roots
    }


def solve_exact(columns, target):
    """The unique rational solution of sum c_j * columns[j] = target by
    Gaussian elimination over Fractions, or None when there is none or it is
    not unique."""
    k = len(columns)
    rows = [
        [Fraction(col[i]) for col in columns] + [Fraction(target[i])]
        for i in range(len(target))
    ]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if any(rows[i][-1] != 0 for i in range(r, len(rows))) or len(pivots) < k:
        return None
    sol = [Fraction(0)] * k
    for row_idx, col in enumerate(pivots):
        sol[col] = rows[row_idx][-1]
    return tuple(sol)


def integer_coords(columns, target):
    """Integer coordinates of target over the columns, or None."""
    sol = solve_exact(columns, target)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def solve_marks(basis_elements):
    """Solve delta = sum m_beta * beta exactly for one component's extended
    basis, given (gradient coords, level) pairs.  Returns integer marks."""
    columns = [tuple(coords) + (level,) for coords, level in basis_elements]
    delta = (0,) * len(basis_elements[0][0]) + (1,)
    sol = solve_exact(columns, delta)
    assert sol is not None, "marks system inconsistent or underdetermined"
    assert all(x.denominator == 1 and x > 0 for x in sol)
    return tuple(int(x) for x in sol)


def dominant_below_box_scan(datum, lam):
    """Every dominant mu <= lam with the height of lam - mu, by scanning the
    box of root-lattice coordinates of lam - w0(lam), the lowest weight of
    the orbit of lam."""
    low = lam
    while True:
        raising = [a for a in datum.simple_roots if datum.pair(low, a.coroot) > 0]
        if not raising:
            break
        low = datum.reflect(raising[0], low)
    simples = [a.coords for a in datum.simple_roots]
    cmax = integer_coords(simples, tuple(x - y for x, y in zip(lam, low)))
    assert cmax is not None and all(c >= 0 for c in cmax)
    out = {}
    for c in itertools.product(*(range(m + 1) for m in cmax)):
        mu = tuple(
            x - sum(ci * col[i] for ci, col in zip(c, simples)) for i, x in enumerate(lam)
        )
        if datum.is_dominant(mu):
            out[mu] = sum(c)
    return out


def chi_expand_pairwise(datum, mult):
    """Chi-basis coefficients of a compressed invariant function: take a
    weight that no other supported weight dominates (the lexicographically
    largest such), found by solving dominance for every pair, and subtract
    that multiple of its chi character."""
    work = {w: m for w, m in mult.items() if m != 0}
    out = {}
    while work:
        top = max(
            w for w in work if not any(v != w and datum.dominance_leq(w, v) for v in work)
        )
        c = work[top]
        out[top] = c
        for w, m in chi_char(datum, top).mult.items():
            new = work.get(w, 0) - c * m
            if new:
                work[w] = new
            else:
                work.pop(w, None)
    return out


def sl3_adjoint_weights():
    """Weight multiset of the 8-dimensional traceless-matrix module, built
    from the natural weights L1, L2, L3 in fundamental coordinates."""
    naturals = [(1, 0), (-1, 1), (0, -1)]
    weights = []
    for i, li in enumerate(naturals):
        for j, lj in enumerate(naturals):
            if i != j:
                weights.append((li[0] - lj[0], li[1] - lj[1]))
    weights.extend([(0, 0), (0, 0)])
    return sorted(weights)


def c2_w2_weights():
    """Weight multiset of the 5-dimensional module of type C2: pairwise sums
    of distinct natural weights, with one zero removed."""
    naturals = [(1, 0), (-1, 1), (1, -1), (-1, 0)]
    sums = []
    for i in range(4):
        for j in range(i + 1, 4):
            sums.append(
                (naturals[i][0] + naturals[j][0], naturals[i][1] + naturals[j][1])
            )
    sums.remove((0, 0))
    return sorted(sums)


def dominant_conjugate_by_reflection(datum, lam):
    """Reflect in the first simple root that pairs negatively until none does."""
    w = lam
    while True:
        for a in datum.simple_roots:
            if datum.pair(w, a.coroot) < 0:
                w = datum.reflect(a, w)
                break
        else:
            return w


def chi_normalize_by_rescans(datum, mu):
    """chi at an arbitrary weight through the dot action, by rescanning: after
    every reflection all pairings <w + rho, a^vee> are recomputed from the
    coordinates, and the scan stops at the first simple root pairing to zero
    or negatively.  None when mu + rho is singular, else (sign, dominant)."""
    w = mu
    sign = 1
    while True:
        progressed = False
        for a in datum.simple_roots:
            shifted = dot(w, a.coroot) + 1  # <mu + rho, a^vee>
            if shifted == 0:
                return None
            if shifted < 0:
                w = wsub(w, tuple(shifted * c for c in a.coords))
                sign = -sign
                progressed = True
                break
        if not progressed:
            return sign, w


def dominant_below_by_weights(datum, lam):
    """Every dominant mu <= lam with the height of lam - mu: a breadth-first
    search on weights from lam, subtracting each positive root beta with
    <mu, beta^vee> >= 2 and keeping the dominant results."""
    heights = {lam: 0}
    queue = [lam]
    for mu in queue:
        for beta in datum.positive_roots:
            if dot(mu, beta.coroot) >= 2:
                nu = wsub(mu, beta.coords)
                if nu not in heights and datum.is_dominant(nu):
                    heights[nu] = heights[mu] + sum(beta.simple_coeffs)
                    queue.append(nu)
    return heights


def chi_char_reference(datum, lam):
    """Freudenthal's recursion as a plain loop on weights: every alpha-string
    pairing is recomputed in full and every dominant conjugate by reflection.
    Weights are taken in the library's order (height, then coordinates of
    lam - mu), so the insertion order of the result matches too."""
    simples = [a.coords for a in datum.simple_roots]
    candidates = sorted(
        (height, integer_coords(simples, tuple(x - y for x, y in zip(lam, mu))), mu)
        for mu, height in dominant_below_by_weights(datum, lam).items()
    )

    def pair(u, v):
        return sum(x * y for x, y in zip(u, v))

    mult = {}
    for height, coeffs, mu in candidates:
        if height == 0:
            mult[mu] = 1
            continue
        total = 0
        for alpha in datum.positive_roots:
            nu = mu
            while True:
                nu = tuple(x + y for x, y in zip(nu, alpha.coords))
                m = mult.get(dominant_conjugate_by_reflection(datum, nu))
                if m is None:
                    break
                total += m * pair(alpha.form, nu)
        # (lam + mu + 2 rho, lam - mu) with lam - mu = sum c_i alpha_i
        lam_mu = [x + y for x, y in zip(lam, mu)]
        denom = sum(
            c * (pair(simple.form, lam_mu) + sum(pair(b.form, simple.coords) for b in datum.positive_roots))
            for c, simple in zip(coeffs, datum.simple_roots)
        )
        assert denom > 0 and (2 * total) % denom == 0, (lam, mu)
        mult[mu] = 2 * total // denom
    return mult


def component_roots_closure(cartan):
    """Simple-coefficient vectors of all roots of one irreducible component:
    closure of the simple roots under s_i(c) = c - (C c)_i e_i."""
    rank = len(cartan)
    seen = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                pairing = sum(cartan[i][j] * c[j] for j in range(rank))
                img = tuple(c[j] - pairing if j == i else c[j] for j in range(rank))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def roots_by_closure(text):
    """The Root tuples of a Dynkin specification, each field computed from
    its simple coefficients: coordinates C c, form d c, coroot 2 d c / |c|^2;
    ordered by component, height and coefficients."""
    spec = parse_dynkin_spec(text)
    roots = []
    off = 0
    for comp, (family, rank) in enumerate(spec.components):
        cartan, d = _cartan_and_symmetrizer(family, rank)

        def ambient(v):
            return tuple([0] * off + list(v) + [0] * (spec.rank - off - rank))

        for c in component_roots_closure(cartan):
            local = [sum(cartan[k][j] * c[j] for j in range(rank)) for k in range(rank)]
            form = [c[j] * d[j] for j in range(rank)]
            normsq = sum(f * x for f, x in zip(form, local))
            coroot = [Fraction(2 * c[j] * d[j], normsq) for j in range(rank)]
            assert all(x.denominator == 1 for x in coroot)
            coroot = [int(x) for x in coroot]
            roots.append(Root(ambient(local), c, comp, ambient(coroot), tuple(coroot), ambient(form)))
        off += rank
    return tuple(sorted(roots, key=lambda r: (r.component, r.height, r.simple_coeffs)))


def resolve_by_evaluation(rd, p, lam, ledger, j_sum):
    """The ledger resolver that matches J(lam) as a weight multiset: J(lam)
    is evaluated term by term with Freudenthal and compared with ch L(mu)
    for the top weight mu of the result.  Same signature and ledger effects
    as ``jantzen._resolve``, so it can stand in for it."""
    known = ledger.entries.get(lam)
    if known is not None:
        return known.char
    if lam in ledger.undetermined:
        return None
    if lowest_alcove_test(rd, p, lam):
        ch = chi_char(rd, lam)
        ledger.entries[lam] = LedgerEntry(ch, LOWEST_ALCOVE, {})
        return ch
    if j_sum is None:
        j_sum = jantzen_sum(rd, p, lam)
    for w in sorted(j_sum.coeffs):
        resolve_by_evaluation(rd, p, w, ledger, None)
    j_char = evaluate_chi_sum(rd, j_sum)
    entry = None
    if j_char:
        mu = rd.top_weight(j_char)
        entry = ledger.entries.get(mu)
    if entry is None or entry.char.mult != j_char:
        ledger.undetermined.add(lam)
        return None
    mult = dict(chi_char(rd, lam).mult)
    for w, m in entry.char.mult.items():
        mult[w] = mult.get(w, 0) - m
        if not mult[w]:
            del mult[w]
    if not all(m > 0 for m in mult.values()):
        raise InvariantViolation(f"chi({lam}) - ch L({mu}) is not a character: {mult}")
    ch = Character(rd, mult)
    ledger.entries[lam] = LedgerEntry(ch, JANTZEN_RESOLVED, {mu: 1})
    return ch


def _literal_psi(rd, basis, theta):
    """The set Psi_Theta: positive roots at level 0 together with negated
    positives at level e_a, where e_a = 0 exactly when a vanishes on the
    facet (grading value 0) and e_a = 1 otherwise."""
    psi = set()
    for a in rd.positive_roots:
        e_a = 0 if ell_theta(rd, basis, theta, AffineRoot(a, 0)) == 0 else 1
        psi.add((a.coords, 0))
        psi.add((wneg(a.coords), e_a))
    return psi


def parahoric_model_by_canonical_rep(rd, theta, basis):
    """The facet model built root by root: each root's canonical
    representative from ``canonical_rep``, graded by ``ell_theta``, and the
    literal Psi compared with the representatives as a set.  Same fields as
    ``parahoric_model``, so the two can be compared whole."""
    depth = facet_depths(basis, theta)
    values = []
    reps = set()
    for a in rd.roots:
        rep = canonical_rep(rd, basis, theta, a)
        reps.add((a.coords, rep.level))
        values.append((a, ell_theta(rd, basis, theta, rep)))
    quotient_roots = tuple(a for a, v in values if v == 0)
    layers = [tuple(a.coords for a, v in values if v == j) for j in range(1, max(depth))]
    while layers and not layers[-1]:
        layers.pop()
    return ParahoricModel(
        datum=rd,
        basis=basis,
        theta=theta,
        depth=depth,
        quotient_roots=quotient_roots,
        quotient_datum=sub_root_datum(rd, [a.coords for a in quotient_roots]),
        layers=tuple(layers),
        dim_R=sum(len(layer) for layer in layers),
        psi_literal_agrees=reps == _literal_psi(rd, basis, theta),
    )


def facet_barycenter_by_fractions(rd, basis, theta):
    """The facet barycenter summed in ``Fraction``s, coordinate by
    coordinate: per component, the average of the alcove vertices opposite
    the Theta nodes."""
    point = [Fraction(0)] * rd.n
    for comp, part in enumerate(theta.theta):
        chosen = [basis.vertices[comp][i] for i in part]
        for i in range(rd.n):
            point[i] += sum(v[i] for v in chosen) / len(chosen)
    return tuple(point)


def _coroot_coeffs(coeffs, simple_norms, normsq):
    """The coroot of ``alpha = sum c_i alpha_i`` over the simple coroots, from
    ``alpha^vee = 2 alpha / (alpha, alpha)``: ``c_i (alpha_i, alpha_i) /
    (alpha, alpha)``, each division checked exact."""
    scaled = [c * norm for c, norm in zip(coeffs, simple_norms)]
    if any(x % normsq for x in scaled):
        raise InvariantViolation(f"coroot of {tuple(coeffs)} (norm {normsq}) is not integral")
    return tuple(x // normsq for x in scaled)


def sub_root_datum_by_solves(ambient, coords_subset):
    """The quotient datum of a closed symmetric subset, solved root by root.

    Each member is solved over the indecomposable positive roots with one
    exact inverse of their whole Cartan matrix, and the datum's 2*rho
    functionals and type are recomputed from the result.  Returns the fields
    that ``sub_root_datum`` must reproduce, as a dict.
    """
    subset = {tuple(c) for c in coords_subset}
    members = [r for r in ambient.roots if r.coords in subset]
    if len(members) != len(subset):
        raise InvariantViolation("subset contains non-roots")
    positives = [r for r in members if r.height > 0]
    pos_coords = {r.coords for r in positives}
    simples = [
        r
        for r in positives
        if not any(wsub(r.coords, s.coords) in pos_coords for s in positives)
    ]
    if any(dot(a.coords, b.coroot) > 0 for a, b in itertools.combinations(simples, 2)):
        raise InvariantViolation("indecomposables do not form a base")
    groups = _dynkin_components(_cartan_matrix([s.coords for s in simples], [s.coroot for s in simples]))
    simples = [simples[i] for g in groups for i in g]
    bounds = list(itertools.pairwise(itertools.accumulate((len(g) for g in groups), initial=0)))
    root_basis = [s.coords for s in simples]
    coroot_basis = [s.coroot for s in simples]
    cartan = _cartan_matrix(root_basis, coroot_basis)
    det, adj = _integer_inverse(cartan)
    norms = [dot(s.form, s.coords) for s in simples]
    new_roots = []
    for r in members:
        coeffs = _cartan_solve(det, adj, root_basis, coroot_basis, r.coords)
        if coeffs is None:
            raise InvariantViolation(f"{r} is not an integer sum of the simple roots")
        if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            raise InvariantViolation(f"{r} has coefficients of both signs")
        comp = next(k for k, (lo, hi) in enumerate(bounds) if any(coeffs[lo:hi]))
        lo, hi = bounds[comp]
        if any(coeffs[:lo]) or any(coeffs[hi:]):
            raise InvariantViolation(f"{r} meets two components of the Dynkin graph")
        new_roots.append(
            Root(
                coords=r.coords,
                simple_coeffs=coeffs[lo:hi],
                component=comp,
                coroot=r.coroot,
                coroot_coeffs=_coroot_coeffs(coeffs[lo:hi], norms[lo:hi], dot(r.form, r.coords)),
                form=r.form,
            )
        )
    new_roots.sort(key=lambda r: (r.component, r.height, r.simple_coeffs))
    index_of = {r.coords: i for i, r in enumerate(new_roots)}
    simple_indices = tuple(tuple(index_of[s.coords] for s in simples[lo:hi]) for lo, hi in bounds)
    positive = [r for r in new_roots if r.height > 0]
    return {
        "roots": new_roots,
        "simple_indices": simple_indices,
        "cartan": cartan,
        "inverse": (det, adj),
        "two_rho_form": tuple(sum(dot(b.form, a.coords) for b in positive) for a in simples),
        "two_rho_coroot": tuple(map(sum, zip((0,) * ambient.n, *(b.coroot for b in positive)))),
        "type": classify_nodes(simples, ambient.n),
    }


def from_parahoric_by_conjugates(model):
    """The splitting sequence of a parahoric model, compressed weight by
    weight: each layer weight counted at its dominant conjugate, each count
    divided by the orbit size of its key and checked exact.  Its dims are
    summed from the characters."""
    datum = model.quotient_datum
    layers = []
    for weights in model.layers:
        mult = {}
        for w in weights:
            key = datum.dominant_conjugate(w)
            mult[key] = mult.get(key, 0) + 1
        compressed = {}
        for w, m in mult.items():
            compressed[w], rest = divmod(m, datum.orbit_size(w))
            if rest:
                raise InvariantViolation(f"{m} layer weights conjugate to {w} are not whole orbits")
        layers.append(Character(datum, compressed))
    return SplittingSequence(datum, tuple(layers))


def aggregate_expansion(seq):
    """Rule E1's expansion found directly: the layer characters summed into
    one compressed function, which is then expanded in the chi basis."""
    aggregate = {}
    for ch in seq.layers:
        for w, m in ch.mult.items():
            aggregate[w] = aggregate.get(w, 0) + m
    return chi_expand_map(seq.quotient_datum, aggregate)
