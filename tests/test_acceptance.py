"""Acceptance suite: eight end-to-end criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
Each criterion collects all its sub-failures before asserting, so a red
criterion still reports in one line.

Criterion 6 checks the quadratic invariants of one even copy against two
different counts.  For g >= 2 it expects the stable count 1, the form.  At
g = 1 the group O_{1,1}(Z) is finite of order 4, not Zariski dense, so the
stable count does not apply; the test enumerates the group and averages the
character of Sym^2 V over it, which gives 2.  Every piece is also counted
by a second route, the seeded word sampler of `test_invariants.py`, which
must never count fewer invariants than the oracle and, at g >= 2, the same.
"""

import io
import random
import time
from fractions import Fraction

from test_groups import orthogonal_rank_one_group
from test_invariants import sampled_invariant_dim
from test_lclasses import sequence_by_newton

from torelli import (
    GammaType,
    GradedVCopies,
    QuadraticModulus,
    WeightedPolynomial,
    borel_constant_rep,
    brute_force_invariant_dim,
    form_for_kind,
    index_generator_map,
    intersection_pairing,
    is_in_group,
    kappa_l_generator_degrees,
    kappa_ll_series,
    l_hat_polynomial,
    l_polynomial,
    lform_inequality_check,
    matchings_count,
    p_in_terms_of_l,
    preserves_quadratic,
    quadratic_modulus,
    quadratic_refinement,
    representation_bound,
    root_system,
    sample_group_element,
    series_pointwise_equal,
    stable_invariant_series,
    stable_pair_degrees,
    stable_range,
    torelli_invariant_series,
    transvection,
    two_part_partitions,
    x_over_tanh_coefficients,
)
from torelli.cli import SHIPPED_INVOCATIONS, run


def _finish(num, name, failures, started, budget):
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {budget}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_1_l_class_engine():
    started = time.perf_counter()
    failures = []
    oracle = sequence_by_newton(x_over_tanh_coefficients(6), 6)
    for i in range(1, 7):
        if l_polynomial(i) != oracle[i]:
            failures.append(f"L_{i} disagrees with the log/exp oracle route")
    for i in range(1, 9):
        if l_polynomial(i) != l_hat_polynomial(i) * Fraction(4) ** i:
            failures.append(f"L_{i} != 4^{i} * Lhat_{i}")
    for i in range(1, 7):
        images = {f"L_{j}": l_polynomial(j) for j in range(1, i + 1)}
        back = p_in_terms_of_l(i).substitute(images)
        if back != WeightedPolynomial.variable(f"p_{i}", 4 * i):
            failures.append(f"p_{i} does not round-trip through the L-classes")
    _finish(1, "L-class engine", failures, started, 10)


def test_criterion_2_borel_bounds():
    started = time.perf_counter()
    failures = []
    for family, gs, ks in (("C", (2, 3, 4), (0, 1, 2)), ("D", (3, 4), (0, 1))):
        for g in gs:
            for k in ks:
                bound = representation_bound(family, g, k)
                # qmax = bound+1 suffices: reaching the bound uncapped or
                # capped at qmax both certify c >= bound
                c = borel_constant_rep(root_system(family, g), k, max(bound + 1, 0))
                if not c.meets(bound):
                    failures.append(f"{family}_{g}, k={k}: {c} misses bound {bound}")
    for g in range(2, 13):
        for k in range(5):
            for q in range(g - k):
                if not lform_inequality_check(g, k, q):
                    failures.append(f"linear form fails at g={g}, k={k}, q={q}")
    _finish(2, "Borel stability bounds", failures, started, 120)


def test_criterion_3_ring_reconciliation():
    started = time.perf_counter()
    failures = []
    for n in range(8, 25):
        cap = min((2 * n - 7) // 2, (2 * n - 4) // 3, n - 3)
        torelli = torelli_invariant_series(n, cap)
        ring = kappa_ll_series(n, cap)
        # the range constant saturates once (g-3)//2 clears the n-caps, so
        # larger g repeat a window already checked
        for g in range(3, 2 * cap + 4):
            c = stable_range(g, n)
            if c is None:
                failures.append(f"range constant missing at g={g}, n={n}")
                continue
            window = min(c, n - 3)
            if not series_pointwise_equal(torelli, ring, window):
                failures.append(f"series differ inside window {window} at n={n}")
                break
    t3 = torelli_invariant_series(3, 4)
    k3 = kappa_ll_series(3, 4)
    if not series_pointwise_equal(t3, k3, 3) or t3[4] == k3[4]:
        failures.append("n=3 series must first differ in degree 4")
    _finish(3, "ring reconciliation", failures, started, 30)


def test_criterion_4_index_map_bookkeeping():
    started = time.perf_counter()
    failures = []
    for n in range(4, 10):
        entries = index_generator_map(n).entries
        if any(e.source_degree != e.target_degree for e in entries):
            failures.append(f"degree mismatch in an entry at n={n}")
        targets = [e.target_degree for e in entries]
        if targets != kappa_l_generator_degrees(n):
            failures.append(f"target degrees differ from single-L degrees at n={n}")
    _finish(4, "index-map degree bookkeeping", failures, started, 1)


def test_criterion_5_stable_crosscheck():
    started = time.perf_counter()
    failures = []
    for n in range(8, 49, 4):
        stable = stable_invariant_series(n, 60)
        ring = kappa_ll_series(n, 60)
        if not series_pointwise_equal(stable, ring, 60):
            failures.append(f"stable and ring series differ below degree 60 at n={n}")
    pairs = stable_pair_degrees(32, 60)
    for i in range(16):
        count = sum(1 for x, y in pairs if x + y == 4 * i)
        if count != two_part_partitions(i):
            failures.append(
                f"degree-{4 * i} generator count {count} != {two_part_partitions(i)}"
            )
    _finish(5, "stable invariant cross-check", failures, started, 10)


def _oracle_dim(failures, label, kind, g, degrees, degree, expected=None, below=None):
    copies = GradedVCopies(g, degrees)
    got = brute_force_invariant_dim(kind, copies, degree).dimension
    # the seeded words lie in the generated group, so the sampled count can
    # only be larger; at g >= 2 the samples cut down to the same count
    sampled, _ = sampled_invariant_dim(kind, copies, degree, seed=11)
    if sampled < got or (g >= 2 and sampled != got):
        failures.append(f"{label}: sampled route gives {sampled}, oracle {got}")
    if expected is not None and got != expected:
        failures.append(f"{label}: expected {expected}, got {got}")
    if below is not None and got >= below:
        failures.append(f"{label}: expected a count below {below}, got {got}")


def _finite_group_symmetric_square_invariants(group):
    """dim (Sym^2 V)^G = (1/|G|) sum_A (tr(A)^2 + tr(A^2)) / 2 for finite G."""
    total = Fraction(0)
    for a in group:
        n = len(a)
        trace = sum(a[i][i] for i in range(n))
        trace_sq = sum(a[i][k] * a[k][i] for i in range(n) for k in range(n))
        total += Fraction(trace * trace + trace_sq, 2)
    return total / len(group)


def test_criterion_6_invariant_oracle():
    started = time.perf_counter()
    failures = []
    # quadratic invariants of a single copy: Sym^2 for an even copy, the
    # exterior square for an odd one; the stable count is 1 (the form)
    o11 = orthogonal_rank_one_group()
    if len(o11) != 4:
        failures.append(f"O_{{1,1}}(Z) has {len(o11)} elements, expected 4")
    # g=1 is below the stable range: O_{1,1}(Z) is finite, so the oracle must
    # match the invariant count of that finite group, xy and x^2 + y^2
    _oracle_dim(
        failures,
        "orthogonal quadratic invariants of the finite O_{1,1}(Z), g=1",
        GammaType.ORTHOGONAL,
        1,
        (2,),
        4,
        expected=_finite_group_symmetric_square_invariants(o11),
    )
    for g in (2, 3):
        _oracle_dim(
            failures,
            f"orthogonal quadratic invariants, g={g}",
            GammaType.ORTHOGONAL,
            g,
            (2,),
            4,
            expected=1,
        )
    for g in (1, 2):
        _oracle_dim(
            failures,
            f"symplectic quadratic invariants, g={g}",
            GammaType.SYMPLECTIC,
            g,
            (1,),
            2,
            expected=1,
        )
    # tensor powers: geometric degree spacing leaves one allocation, a single
    # copy of V^(x)k, whose invariant count is the matching number (k-1)!!
    _oracle_dim(
        failures,
        "tensor square, g=1",
        GammaType.SYMPLECTIC,
        1,
        (1, 3),
        4,
        expected=matchings_count(2),
    )
    _oracle_dim(
        failures,
        "tensor square, g=2",
        GammaType.SYMPLECTIC,
        2,
        (1, 5),
        6,
        expected=matchings_count(2),
    )
    _oracle_dim(
        failures,
        "tensor fourth power, g=2",
        GammaType.SYMPLECTIC,
        2,
        (1, 5, 25, 125),
        156,
        expected=matchings_count(4),
    )
    # below the stable range the count drops strictly
    _oracle_dim(
        failures,
        "tensor fourth power, g=1",
        GammaType.SYMPLECTIC,
        1,
        (1, 3, 9, 27),
        40,
        below=matchings_count(4),
    )
    _finish(6, "invariant oracle vs closed form", failures, started, 180)


def test_criterion_7_group_arithmetic():
    started = time.perf_counter()
    failures = []
    for kind in (GammaType.SYMPLECTIC, GammaType.ORTHOGONAL, GammaType.THETA):
        for g in (1, 2, 3):
            form = form_for_kind(kind, g)
            bad = sum(
                1
                for seed in range(100)
                if not is_in_group(sample_group_element(kind, g, seed), form)
            )
            if bad:
                failures.append(f"{bad} samples outside {kind.value} at g={g}")
    rng = random.Random(20260818)
    for n in (2, 3, 5):
        modulus = quadratic_modulus(n)
        for _ in range(100):
            v = [rng.randrange(-5, 6) for _ in range(4)]
            w = [rng.randrange(-5, 6) for _ in range(4)]
            vw = [a + b for a, b in zip(v, w)]
            gap = (
                quadratic_refinement(vw, n)
                - quadratic_refinement(v, n)
                - quadratic_refinement(w, n)
            )
            pairing = intersection_pairing(v, w, n)
            if modulus is QuadraticModulus.INTEGERS:
                ok = gap == pairing
            elif modulus is QuadraticModulus.MOD2:
                ok = (gap - pairing) % 2 == 0
            else:
                ok = True  # values in Z/Z carry no condition
            if not ok:
                failures.append(f"refinement relation fails at n={n}: v={v}, w={w}")
                break
    # the transvection along a basis vector has q(v)=0, so it drops the
    # refinement exactly when the value group is Z/2
    t = transvection([1, 0, 0, 0], form_for_kind(GammaType.SYMPLECTIC, 2))
    for n in (1, 3, 7, 5, 9, 11):
        expected = quadratic_modulus(n) is not QuadraticModulus.MOD2
        if preserves_quadratic(t, n, 2) is not expected:
            failures.append(f"basis transvection misclassified at n={n}")
    _finish(7, "group arithmetic", failures, started, 10)


def test_criterion_8_cli_determinism():
    started = time.perf_counter()
    failures = []
    for argv in SHIPPED_INVOCATIONS:
        runs = []
        for _ in range(2):
            out = io.StringIO()
            code = run(list(argv), out=out)
            runs.append((code, out.getvalue()))
        if runs[0][0] != 0:
            failures.append(f"{argv[0]} exited {runs[0][0]}")
        elif runs[0] != runs[1]:
            failures.append(f"{argv[0]} output is not byte-identical across runs")
    _finish(8, "CLI determinism", failures, started, 30)
