"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances); each test prints one PASS/FAIL line,
visible with ``pytest tests/test_acceptance.py -v -s``.  The heavy
cross-method sweep is computed once and shared.
"""

import random
import time
from fractions import Fraction as F
from functools import lru_cache

from sixvb.aba import check_invariance, check_reduction, solve_aba, unwanted_terms
from sixvb.cba import cba_state
from sixvb.contraction import build_invariant, plan_moves
from sixvb.fixtures import figure_lattice, initial_condition
from sixvb.lattice import (
    Chord,
    LatticeSpec,
    all_configs,
    canonical_bethe_roots,
    ice_rule_satisfied,
    q_function,
    reference_config,
)
from sixvb.monodromy import external_component
from sixvb.pipeline import compute_report
from sixvb.sampling import random_spec, random_z
from sixvb.verify import fcr_suite, weights_suite

SEED = 20270811
SWEEP_COUNTS = {1: 14, 2: 14, 3: 14, 4: 8}  # 50 random specs plus the fixture


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@lru_cache(maxsize=1)
def _sweep():
    """Cross-method sweep over the fixture and 50 random generic instances."""
    rng = random.Random(SEED)
    specs = [figure_lattice()]
    for n, count in SWEEP_COUNTS.items():
        specs.extend(random_spec(rng, n) for _ in range(count))
    started = time.monotonic()
    results = []
    for spec in specs:
        configs = list(all_configs(spec.n))
        report = compute_report(spec, configs)
        results.append((spec, configs, report))
    elapsed = time.monotonic() - started
    return results, elapsed


def test_criterion_1_cross_method_equality():
    results, elapsed = _sweep()
    ok = len(results) == 51
    for spec, configs, report in results:
        ok = ok and report.agreement
        direct = report.values["direct"]
        for config, value in zip(configs, direct):
            if not ice_rule_satisfied(spec, config):
                ok = ok and value == 0
    ok = ok and elapsed < 60.0
    _report(
        1,
        f"three methods agree exactly on all configs of 51 instances "
        f"({elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_2_normalization():
    results, _ = _sweep()
    ok = True
    for spec, configs, report in results:
        ref_index = configs.index(reference_config(spec.n))
        for method in report.methods:
            ok = ok and report.values[method][ref_index] == 1
    _report(2, "reference configuration normalizes to 1 for every instance and method", ok)


def test_criterion_3_invariance_three_routes():
    ok = True
    zs = (F(2, 9), F(3, 8), F(5, 7))
    for fixture in (figure_lattice(), initial_condition()):
        routes = {
            "direct": build_invariant(fixture),
            "aba": solve_aba(fixture).bethe_state,
            "cba": cba_state(fixture),
        }
        for state in routes.values():
            for z in zs:
                ok = ok and check_invariance(fixture, state, z)
    _report(3, "all three construction routes give exact invariants at 3 points each", ok)


def test_criterion_4_baxter_equations():
    from sixvb.aba import check_baxter

    rng = random.Random(SEED + 4)
    ok = True
    for fixture in (figure_lattice(), initial_condition()):
        for _ in range(5):
            z = random_z(rng)
            ok = ok and check_baxter(fixture, z)
        for _ in range(10):
            z = random_z(rng)
            ok = ok and q_function(fixture, z) == q_function(fixture, -z - 1)
    _report(4, "degenerate functional equations and Q symmetry hold exactly", ok)


def test_criterion_5_unwanted_terms():
    rng = random.Random(SEED + 5)
    ok = True
    for fixture in (figure_lattice(), initial_condition()):
        n = fixture.n
        for _ in range(3):
            z = random_z(rng)
            for k in range(1, n + 1):
                ok = ok and unwanted_terms(fixture, z, k) == (0, 0)
        roots = list(canonical_bethe_roots(fixture).roots)
        k = rng.randrange(n) + 1
        roots[k - 1] += F(1, 100)
        m_k, n_k = unwanted_terms(fixture, random_z(rng), k, roots)
        ok = ok and m_k != 0 and n_k != 0
    _report(5, "remainder terms vanish on-shell and react to a 1/100 perturbation", ok)


def test_criterion_6_local_identity_suites():
    results = weights_suite(seed=SEED + 6, draws=100)
    ok = all(r.passed for r in results)
    names = ", ".join(f"{r.name} {r.total - len(r.failures)}/{r.total}" for r in results)
    _report(6, f"local identities at 100 draws each ({names})", ok)


def test_criterion_7_exchange_relation_suites():
    results = fcr_suite(seed=SEED + 7, draws=20)
    ok = all(r.passed for r in results)
    names = ", ".join(f"{r.name} {r.total - len(r.failures)}/{r.total}" for r in results)
    _report(7, f"exchange-relation suites at 20 draws each ({names})", ok)


def test_criterion_8_length_reduction():
    ok = True
    for branch_reflected in (True, False):
        spec = LatticeSpec(
            chords=(Chord(4, 3), Chord(2, 1)),
            reflected=frozenset({1, 2}) if branch_reflected else frozenset({2}),
            rapidities=(F(2, 7), F(3, 11)),
            boundary_q=F(4, 5),
        )
        ok = ok and check_reduction(spec, (F(5, 193),))
        ok = ok and check_reduction(spec, ())
    _report(8, "nested-pair factorization holds for both branches with the scalar factor", ok)


def test_criterion_9_route_independence():
    rng = random.Random(SEED + 9)
    ok = True
    for _ in range(10):
        spec = random_spec(rng, rng.choice((2, 3, 4)))
        configs = list(all_configs(spec.n))
        high = build_invariant(spec, plan_moves(spec))
        low = build_invariant(spec, plan_moves(spec, lowest_first=True))
        ref = reference_config(spec.n)
        norm_h = external_component(high, spec, ref)
        norm_l = external_component(low, spec, ref)
        ok = ok and norm_h != 0 and norm_l != 0
        for config in configs:
            if not ice_rule_satisfied(spec, config):
                continue
            ok = ok and (
                external_component(high, spec, config) / norm_h
                == external_component(low, spec, config) / norm_l
            )
    _report(9, "two distinct move plans give identical values on 10 instances", ok)


def test_criterion_10_performance_guard():
    started = time.monotonic()
    fig = figure_lattice()
    configs = list(all_configs(4))
    report = compute_report(fig, configs)
    ok = report.agreement
    zs = (F(2, 9), F(3, 8), F(5, 7))
    for state in (build_invariant(fig), solve_aba(fig).bethe_state, cba_state(fig)):
        for z in zs:
            ok = ok and check_invariance(fig, state, z)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 300.0
    _report(10, f"full four-line pipeline with invariance checks in {elapsed:.1f}s < 300s", ok)
