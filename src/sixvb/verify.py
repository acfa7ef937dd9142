"""Randomized identity suites.

Every suite draws its parameters from a seeded generator and records the
exact draw for any failure, so a red run is reproducible from its seed.
All checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import List, Sequence

from . import aba, cba, contraction, monodromy
from .lattice import Chord, LatticeSpec, canonical_bethe_roots, q_function
from .sampling import (
    _THETA_DENOMS,
    random_pairing,
    random_positive_pair,
    random_q,
    random_spec,
    random_theta,
    random_z,
)

@dataclass
class CheckResult:
    name: str
    total: int
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, params: str) -> None:
        if not ok:
            self.failures.append(params)


def _seeded(name: str, seed: int, draws: int, one) -> CheckResult:
    """Run ``one(rng, i) -> (ok, params)`` per draw on a generator derived
    from (seed, name, index), so results are reproducible and independent of
    execution order."""
    result = CheckResult(name=name, total=draws)
    salt = zlib.crc32(name.encode()) & 0xFFFF
    for i in range(draws):
        result.record(*one(random.Random(seed * 7_919 + i * 104_729 + salt), i))
    return result


def _ybe_draw(rng: random.Random, _i: int):
    while True:
        ts = [random_z(rng) for _ in range(3)]
        signed = [
            (s1 * ts[0], s2 * ts[1], s3 * ts[2])
            for s1, s2, s3 in product((1, -1), repeat=3)
        ]
        if all(
            a - b != -1 and a - c != -1 and b - c != -1 for a, b, c in signed
        ):
            break
    ok = all(contraction.check_ybe(a, b, c) for a, b, c in signed)
    return ok, f"thetas={tuple(map(str, ts))} (all sign flips)"


def _bybe_draw(rng: random.Random, _i: int):
    while True:
        t1, t2 = random_z(rng), random_z(rng)
        q = random_q(rng)
        if t1 - t2 != -1 and t1 + t2 != -1 and q + t1 != 0 and q + t2 != 0:
            break
    return contraction.check_bybe(t1, t2, q), f"t1={t1} t2={t2} q={q}"


_TWO_LINE_PERIOD = 10  # every tenth crossing or b_reflection draw has two lines


def _spec_for_draw(rng: random.Random, i: int) -> LatticeSpec:
    n = 2 if (i + 1) % _TWO_LINE_PERIOD == 0 else 1
    return random_spec(rng, n)


def weights_suite(seed: int, draws: int) -> List[CheckResult]:
    results = [
        _seeded("ybe", seed, draws, _ybe_draw),
        _seeded("bybe", seed, draws, _bybe_draw),
    ]
    for name, checker in (
        ("unitarity", monodromy.check_unitarity),
        ("transpose", monodromy.check_transpose),
        ("bootstrap", monodromy.check_bootstrap),
    ):
        def z_draw(rng, _i):
            z = random_z(rng)
            return checker(z), f"z={z}"

        results.append(_seeded(name, seed, draws, z_draw))
    special = CheckResult(name="special_points", total=1)
    special.record(monodromy.check_special_points(), "fixed evaluation")
    results.append(special)

    def crossing_draw(rng, i):
        spec = _spec_for_draw(rng, i)
        z = random_z(rng)
        return monodromy.check_crossing(spec, z), f"spec={spec} z={z}"

    def breflect_draw(rng, i):
        spec = _spec_for_draw(rng, i)
        z = random_z(rng)
        return aba.check_b_reflection(spec, z), f"spec={spec} z={z}"

    results.append(_seeded("crossing", seed, draws, crossing_draw))
    results.append(_seeded("b_reflection", seed, draws, breflect_draw))
    return results


def fcr_suite(seed: int, draws: int) -> List[CheckResult]:
    def spec_pair(rng):
        return random_spec(rng, 1), random_spec(rng, 2)

    def open_draw(rng, _i):
        s2, s4 = spec_pair(rng)
        x, y = random_positive_pair(rng)
        ok = aba.check_fcr_open(s2, x, y) and aba.check_fcr_open(s4, x, y)
        return ok, f"spec={s2} spec={s4} x={x} y={y}"

    def closed_draw(rng, _i):
        s2, s4 = spec_pair(rng)
        x, y = random_positive_pair(rng)
        ok = cba.check_closed_fcr(s2, x, y) and cba.check_closed_fcr(s4, x, y)
        return ok, f"spec={s2} spec={s4} x={x} y={y}"

    def algebra_draw(rng, _i):
        s2 = random_spec(rng, 1)
        x, y = random_positive_pair(rng)
        return monodromy.check_reflection_algebra(s2, x, y), f"spec={s2} x={x} y={y}"

    def expansion_draw(rng, _i):
        s2, s4 = spec_pair(rng)
        z = random_z(rng)
        ok = cba.check_b_expansion(s2, z) and cba.check_b_expansion(s4, z)
        return ok, f"spec={s2} spec={s4} z={z}"

    def state_draw(rng, _i):
        s4 = random_spec(rng, 2)
        r1, r2 = random_positive_pair(rng)
        ok = cba.check_state_expansion(s4, (r1,)) and cba.check_state_expansion(s4, (r1, r2))
        return ok, f"spec={s4} roots=({r1},{r2})"

    return [
        _seeded("fcr_open", seed, draws, open_draw),
        _seeded("fcr_closed", seed, draws, closed_draw),
        _seeded("reflection_algebra", seed, draws, algebra_draw),
        _seeded("b_expansion", seed, draws, expansion_draw),
        _seeded("state_expansion", seed, draws, state_draw),
    ]


def baxter_suite(seed: int, draws: int) -> List[CheckResult]:
    def baxter_draw(rng, _i):
        spec = random_spec(rng, rng.choice((1, 2, 3)))
        z = random_z(rng)
        ok = aba.check_baxter(spec, z)
        ok = ok and q_function(spec, z) == q_function(spec, -z - 1)
        return ok, f"spec={spec} z={z}"

    def unwanted_draw(rng, _i):
        spec = random_spec(rng, rng.choice((1, 2)))
        z = random_z(rng)
        roots = list(canonical_bethe_roots(spec).roots)
        ok = all(
            aba.unwanted_terms(spec, z, k) == (0, 0) for k in range(1, spec.n + 1)
        )
        roots[0] += Fraction(1, 100)
        m1, n1 = aba.unwanted_terms(spec, z, 1, roots)
        ok = ok and m1 != 0 and n1 != 0
        ok = ok and (m1, n1) == aba.unwanted_terms_from_fcr(spec, z, 1, roots)
        return ok, f"spec={spec} z={z}"

    return [
        _seeded("baxter_equations", seed, draws, baxter_draw),
        _seeded("unwanted_terms", seed, draws, unwanted_draw),
    ]


def invariance_suite(seed: int, draws: int) -> List[CheckResult]:
    """Invariance of all three construction routes at random spectral points."""

    def invariance_draw(rng, _i):
        spec = random_spec(rng, rng.choice((1, 2, 3)))
        zs = [random_z(rng) for _ in range(3)]
        states = {
            "direct": contraction.build_invariant(spec),
            "aba": aba.solve_aba(spec).bethe_state,
            "cba": cba.cba_state(spec),
        }
        failed = tuple(
            route
            for route, state in states.items()
            if not all(aba.check_invariance(spec, state, z) for z in zs)
        )
        return not failed, f"spec={spec} z={tuple(map(str, zs))} routes={failed}"

    return [_seeded("invariance_three_routes", seed, draws, invariance_draw)]


def reduction_suite(seed: int, draws: int) -> List[CheckResult]:
    def reduction_draw(rng, _i):
        n = rng.choice((2, 3))
        inner = random_pairing(rng, n - 1)
        chords = (Chord(2 * n, 2 * n - 1),) + inner
        reflected = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
        denoms = rng.sample(_THETA_DENOMS, n)
        spec = LatticeSpec(
            chords=chords,
            reflected=reflected,
            rapidities=tuple(random_theta(rng, d) for d in denoms),
            boundary_q=random_q(rng),
        )
        m = rng.choice((1, 2))
        extra = tuple(random_z(rng) for _ in range(m - 1))
        return aba.check_reduction(spec, extra), f"spec={spec} m={m} extra={extra}"

    return [_seeded("length_reduction", seed, draws, reduction_draw)]


SUITES = {
    "weights": weights_suite,
    "fcr": fcr_suite,
    "baxter": baxter_suite,
    "invariance": invariance_suite,
    "reduction": reduction_suite,
}


def run_suites(names: Sequence[str], seed: int, draws: int) -> List[CheckResult]:
    results: List[CheckResult] = []
    for name in names:
        results.extend(SUITES[name](seed, draws))
    return results
