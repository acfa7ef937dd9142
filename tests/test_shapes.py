"""Every lattice shape at N <= 3, every pairing at N = 4, a vertex-free
product-state oracle, and the spin-flip relation across routes.

A shape is a pairing of the perimeter points 1..2N into chords together
with a reflected set.  The other tests draw their pairings at random, so a
fault that shows only for some pairings (in the move plan, the end-point
layout or the kernels' end flags) could pass them; here each of the
(2N - 1)!! pairings times 2^N reflected sets is built for N <= 3, and each
of the 105 pairings with a drawn reflected set for N = 4, and the three
routes' states are compared.

Flipping every label, 1 <-> 2, commutes with the R-matrix and turns
K(theta, q) into (q - theta)/(q + theta) K(theta, -q).  With values
normalised at the reference config, as ``sweep`` returns them, that gives

    Z(flip alpha, flip beta; -q) Z(all labels 2; q) = Z(alpha, beta; q).

The genericity conditions are symmetric in q, so the -q lattice is valid.

When no two chords cross and no reflected line lies inside another chord,
no line meets another, so the invariant is the product of the two-site
invariants of the lines, each placed at its chord's two sites: 1 at
(1, 1) and at (2, 2), the latter times (q - theta)/(q + theta) for a
reflected line.  That oracle uses no vertex weight at all.
"""

import math
import random

import pytest

from sixvb.aba import solve_aba
from sixvb.cba import cba_state
from sixvb.contraction import build_invariant, plan_moves
from sixvb.lattice import Chord, ExternalConfig, LatticeSpec, all_configs
from sixvb.monodromy import QuantumState
from sixvb.pipeline import METHODS, compute_report
from sixvb.sampling import random_spec


def all_pairings(n: int) -> list:
    """Every pairing of the points 1..2n as chords, (2n - 1)!! of them, each
    in the descending-start order that ``LatticeSpec`` requires: the largest
    free point starts the next chord."""

    def match(points):
        if not points:
            yield ()
            return
        top, rest = points[-1], points[:-1]
        for i, end in enumerate(rest):
            for tail in match(rest[:i] + rest[i + 1:]):
                yield (Chord(top, end),) + tail

    return list(match(tuple(range(1, 2 * n + 1))))


def all_shapes(n: int) -> list:
    """One spec per pairing and reflected set, rapidities and q drawn as
    ``random_spec`` draws them, from ``Random(1000 + n)``."""
    rng = random.Random(1000 + n)
    specs = []
    for chords in all_pairings(n):
        for bits in range(1 << n):
            reflected = [k for k in range(1, n + 1) if bits >> (k - 1) & 1]
            drawn = random_spec(rng, n, reflected)
            specs.append(
                LatticeSpec(chords, drawn.reflected, drawn.rapidities, drawn.boundary_q)
            )
    return specs


def _assert_routes_agree(spec, *states):
    """Each state equals the default ``direct`` state up to one global sign."""
    direct = build_invariant(spec).entries
    assert direct
    negated = {i: -x for i, x in direct.items()}
    for state in states:
        assert state.entries in (direct, negated), (spec, state)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_enumerator_lists_each_pairing_once(n):
    pairings = all_pairings(n)
    assert len(pairings) == len(set(pairings)) == math.prod(range(1, 2 * n, 2))
    for chords in pairings:
        assert sorted(p for c in chords for p in (c.start, c.end)) == list(range(1, 2 * n + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_three_routes_agree_on_every_shape(n):
    specs = all_shapes(n)
    assert len(specs) == math.prod(range(1, 2 * n, 2)) << n
    assert len({(s.chords, s.reflected) for s in specs}) == len(specs)
    for spec in specs:
        _assert_routes_agree(spec, solve_aba(spec).bethe_state, cba_state(spec))


def test_three_routes_agree_on_every_pairing_at_four_lines():
    """Reflected sets, rapidities and q drawn per pairing by ``random_spec``;
    the weave is run on both move plans."""
    rng = random.Random(1004)
    pairings = all_pairings(4)
    assert len(pairings) == 105
    for chords in pairings:
        drawn = random_spec(rng, 4)
        spec = LatticeSpec(chords, drawn.reflected, drawn.rapidities, drawn.boundary_q)
        lowest_first = build_invariant(spec, plan_moves(spec, lowest_first=True))
        _assert_routes_agree(spec, lowest_first, solve_aba(spec).bethe_state, cba_state(spec))


def _inside(inner: Chord, outer: Chord) -> bool:
    """Both points of ``inner`` lie between the points of ``outer``."""
    return outer.end < inner.end and inner.start < outer.start


def non_crossing_shapes() -> tuple:
    """Every non-crossing pairing at N <= 4 with every reflected set, drawn
    as ``all_shapes`` draws, split into the specs in which no reflected line
    lies inside another chord and those in which one does."""
    free, enclosed = [], []
    for n in range(1, 5):
        for spec in all_shapes(n):
            chords = spec.chords
            if any(a.end < b.end < a.start < b.start for a in chords for b in chords):
                continue
            inside = any(_inside(chords[k - 1], c) for k in spec.reflected for c in chords)
            (enclosed if inside else free).append(spec)
    return free, enclosed


def product_state(spec: LatticeSpec) -> QuantumState:
    """The product of the two-site line invariants, line k at its chord's sites."""
    q, entries = spec.boundary_q, {0: 1}
    for k, chord in enumerate(spec.chords, start=1):
        both = (1 << (spec.length - chord.start)) | (1 << (spec.length - chord.end))
        theta = spec.rapidities[k - 1]
        w22 = (q - theta) / (q + theta) if spec.is_reflected(k) else 1
        entries = {**entries, **{i | both: x * w22 for i, x in entries.items()}}
    return QuantumState(spec.length, entries)


def test_routes_equal_the_product_state_where_no_line_meets_another():
    free, enclosed = non_crossing_shapes()
    assert (len(free), len(enclosed)) == (98, 176)
    for spec in free:
        product = product_state(spec).entries
        negated = {i: -x for i, x in product.items()}
        for state in (build_invariant(spec), solve_aba(spec).bethe_state, cba_state(spec)):
            assert state.entries in (product, negated), spec
    for spec in enclosed:
        product = product_state(spec).entries
        negated = {i: -x for i, x in product.items()}
        assert build_invariant(spec).entries not in (product, negated), spec


def _flip(config: ExternalConfig) -> ExternalConfig:
    return ExternalConfig(tuple(3 - a for a in config.alpha), tuple(3 - b for b in config.beta))


@pytest.mark.parametrize("seed", range(30))
def test_spin_flip_relation_across_routes(seed):
    spec = random_spec(random.Random(seed), 1 + seed % 4)
    negated = LatticeSpec(spec.chords, spec.reflected, spec.rapidities, -spec.boundary_q)
    configs = list(all_configs(spec.n))
    plain = compute_report(spec, configs, METHODS)
    flipped = compute_report(negated, [_flip(c) for c in configs], METHODS)
    assert plain.agreement and flipped.agreement
    z, z_flip = plain.values[METHODS[0]], flipped.values[METHODS[0]]
    all_two = z[configs.index(ExternalConfig((2,) * spec.n, (2,) * spec.n))]
    assert all_two
    assert [x * all_two for x in z_flip] == z
