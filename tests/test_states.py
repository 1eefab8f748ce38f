"""State synthesis, GHZ classification, verification, search, frustration."""

from __future__ import annotations

import cmath
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph import Edge, ExperimentGraph, QuantumState

from fixt import double_edge, k4_ghz, layered6, w_state_target
from oracles import brute_force_state, naive_search_graph_for_state

INV_SQRT3 = 1 / math.sqrt(3)


def test_k4_ghz_state():
    state = pg.state_from_graph(k4_ghz(), normalize=True)
    assert set(state.terms) == {(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)}
    for amp in state.terms.values():
        assert abs(amp - INV_SQRT3) <= 1e-9


def test_layered6_state_has_maverick_term():
    state = pg.state_from_graph(layered6(), normalize=True)
    expected = {(0,) * 6, (1,) * 6, (2,) * 6, (1, 2, 1, 2, 0, 0)}
    assert set(state.terms) == expected
    for amp in state.terms.values():
        assert abs(amp - 0.5) <= 1e-9


def test_destructive_double_edge_has_no_terms():
    state = pg.state_from_graph(double_edge(math.pi))
    assert state.terms == {}
    with pytest.raises(pg.FullyFrustratedError):
        pg.state_from_graph(double_edge(math.pi), normalize=True)


def test_merged_double_k4_is_six_photon_ghz():
    merged = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")])
    state = pg.state_from_graph(merged, normalize=True)
    assert set(state.terms) == {(0,) * 6, (1,) * 6, (2,) * 6}
    for amp in state.terms.values():
        assert abs(amp - INV_SQRT3) <= 1e-9
    assert pg.is_ghz_like(state)


def test_is_ghz_like():
    assert pg.is_ghz_like(pg.state_from_graph(k4_ghz(), normalize=True))
    assert not pg.is_ghz_like(pg.state_from_graph(layered6(), normalize=True))
    assert pg.is_ghz_like(QuantumState({(0, 1): 1.0}))


def test_is_ghz_like_rejects_unequal_magnitudes():
    state = QuantumState({(0, 0): 0.9, (1, 1): 0.1})
    assert not pg.is_ghz_like(state)


def test_ghz_likeness_tracks_disjointness_of_all_matchings():
    # all matchings disjoint + one uniform mode per layer -> GHZ shape
    from fixt import cycle_graph, k6_factored

    base = cycle_graph(6)
    edges = [
        Edge(e.id, e.u, e.v, mode_u=k % 2, mode_v=k % 2, layer=k % 2)
        for k, e in enumerate(base.edges)
    ]
    ring = ExperimentGraph(base.vertices, edges)
    d, _ = pg.max_disjoint_pms(ring)
    assert d == len(pg.enumerate_pm(ring)) == 2
    assert pg.is_ghz_like(pg.state_from_graph(ring, normalize=True))

    k6 = k6_factored()
    d6, _ = pg.max_disjoint_pms(k6)
    assert d6 < len(pg.enumerate_pm(k6))
    assert not pg.is_ghz_like(pg.state_from_graph(k6, normalize=True))


def test_verify_target_examples():
    ghz = pg.state_from_graph(k4_ghz(), normalize=True)
    assert pg.verify_target(k4_ghz(), ghz)
    eq1 = pg.state_from_graph(layered6(), normalize=True)
    assert not pg.verify_target(k4_ghz(), eq1)
    assert pg.verify_target(layered6(), eq1)


def test_verify_target_global_phase_invariance():
    ghz = pg.state_from_graph(k4_ghz(), normalize=True)
    for theta in (0.3, 1.2, -2.5):
        rotated = QuantumState({k: a * cmath.exp(1j * theta) for k, a in ghz.terms.items()})
        assert pg.verify_target(k4_ghz(), rotated)


def test_verify_target_takes_the_target_as_a_ray():
    ghz = pg.state_from_graph(k4_ghz(), normalize=True)
    eq1 = pg.state_from_graph(layered6(), normalize=True)
    for scale in (1e-6, 0.5, 3.0, 1e6, -2j):
        for g in (k4_ghz(), layered6()):
            for target in (ghz, eq1):
                scaled = QuantumState({k: a * scale for k, a in target.terms.items()})
                assert pg.verify_target(g, scaled) == pg.verify_target(g, target)
    # the unnormalized state of the graph itself, as `state` writes it
    assert pg.verify_target(layered6(), pg.state_from_graph(layered6()))


def test_unit_target_is_left_alone():
    ghz = pg.state_from_graph(k4_ghz(), normalize=True)
    assert pg.states._unit_target(ghz) is ghz
    empty = QuantumState({(0, 0): 0.0, (1, 1): pg.states.AMP_TOL / 2})
    assert pg.states._unit_target(empty) is empty


def test_all_zero_target_matches_only_a_fully_frustrated_graph():
    for zero in (QuantumState({}), QuantumState({(0, 0): 0.0})):
        assert pg.verify_target(double_edge(math.pi), zero)
        assert not pg.verify_target(double_edge(0.0), zero)
        assert pg.search_graph_for_state(zero) is None


def test_search_takes_the_target_as_a_ray():
    w = pg.search_graph_for_state(w_state_target())
    for scale in (0.01, 2.0, 1e6):
        scaled = QuantumState({k: a * scale for k, a in w_state_target().terms.items()})
        assert pg.search_graph_for_state(scaled) == w


def _copied_states_equal(s1: QuantumState, s2: QuantumState, tol: float) -> bool:
    """Equality up to global phase through pruned and rotated copies."""

    def canonical(state: QuantumState) -> dict:
        kept = {k: a for k, a in state.terms.items() if abs(a) > pg.states.AMP_TOL}
        if not kept:
            return kept
        rotation = abs(kept[min(kept)]) / kept[min(kept)]
        return {k: a * rotation for k, a in kept.items()}

    a, b = canonical(s1), canonical(s2)
    return set(a) == set(b) and all(abs(a[k] - b[k]) <= tol for k in a)


def test_states_equal_matches_copied_canonical_forms():
    tol = pg.states.AMP_TOL
    near = (tol * (1 - 1e-6), tol * (1 + 1e-6))
    rng = random.Random(8)
    seen = set()
    for _ in range(2000):
        kets = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randrange(0, 5))]
        terms = {k: cmath.rect(rng.choice([1.0, 0.5, rng.choice(near)]), rng.uniform(-math.pi, math.pi)) for k in kets}
        first = QuantumState(terms)
        phase = cmath.exp(1j * rng.choice([0.0, math.pi, rng.uniform(-math.pi, math.pi)]))
        other = {k: a * phase for k, a in terms.items()}
        for _ in range(rng.randrange(0, 3)):
            k = tuple(rng.randrange(3) for _ in range(3))
            change = rng.choice(["drop", "tiny", "nudge", "add"])
            if change == "drop":
                other.pop(k, None)
            elif change == "tiny":
                other[k] = cmath.rect(rng.choice(near), rng.uniform(-math.pi, math.pi))
            elif change == "nudge" and k in other:
                other[k] += rng.choice([0.5, 2.0]) * tol
            elif change == "add":
                other[k] = rng.choice([1.0, 0.5])
        second = QuantumState(other)
        for tol_used in (tol, 1e-6):
            expected = _copied_states_equal(first, second, tol_used)
            assert pg.states_equal(first, second, tol_used) == expected
            seen.add(expected)
    assert pg.states_equal(QuantumState({}), QuantumState({(0,): tol / 2}))
    assert not pg.states_equal(QuantumState({}), QuantumState({(0,): near[1]}))
    assert seen == {True, False}


def test_state_invariant_under_edge_relabeling():
    g = layered6()
    relabeled = ExperimentGraph(
        g.vertices,
        [Edge(f"r{k}", e.u, e.v, e.mode_u, e.mode_v, e.amp_mag, e.amp_phase_rad) for k, e in enumerate(reversed(g.edges))],
    )
    assert pg.states_equal(pg.state_from_graph(g), pg.state_from_graph(relabeled))


def test_term_count_matches_matchings_for_generic_modes():
    rng = random.Random(77)
    for _ in range(15):
        base = pg.random_graph(8, 0.5, rng.getrandbits(32))
        edges = [
            Edge(e.id, e.u, e.v, mode_u=2 * k, mode_v=2 * k + 1)
            for k, e in enumerate(base.edges)
        ]
        g = ExperimentGraph(base.vertices, edges)
        state = pg.state_from_graph(g)
        assert len(state.terms) == len(pg.enumerate_pm(g))


def test_normalization_total_weight():
    state = pg.state_from_graph(layered6(), normalize=True)
    assert abs(state.norm_sq() - 1.0) <= 1e-9
    assert state.normalized


def test_normalization_of_huge_amplitudes():
    g = ExperimentGraph(["a", "b"], [Edge("x", "a", "b", amp_mag=1e200)])
    state = pg.state_from_graph(g, normalize=True)
    assert state.terms == {(0, 0): 1}


@pytest.mark.parametrize("normalize", [False, True])
def test_overflowing_amplitude_sum_is_a_domain_error(normalize):
    g = ExperimentGraph(["a", "b"], [Edge("x", "a", "b", amp_mag=1e308), Edge("y", "a", "b", amp_mag=1e308)])
    with pytest.raises(pg.DomainError) as err:
        pg.state_from_graph(g, normalize=normalize)
    assert err.value.reason == "overflow"


def test_search_finds_w_state():
    target = w_state_target()
    found = pg.search_graph_for_state(target)
    assert found is not None
    assert pg.verify_target(found, target)
    assert len(found.edges) <= 8
    # the W state needs parallel edges: some pair carries two crystals
    pair_counts: dict[tuple[str, str], int] = {}
    for e in found.edges:
        pair_counts[(e.u, e.v)] = pair_counts.get((e.u, e.v), 0) + 1
    assert max(pair_counts.values()) >= 2


def test_search_three_dim_ghz_impossible_with_simple_graphs():
    target = QuantumState({(0,) * 6: INV_SQRT3, (1,) * 6: INV_SQRT3, (2,) * 6: INV_SQRT3})
    assert pg.search_graph_for_state(target, max_parallel=1) is None


def test_search_three_dim_ghz_six_photons_refused_within_eight_edges():
    target = QuantumState({(0,) * 6: INV_SQRT3, (1,) * 6: INV_SQRT3, (2,) * 6: INV_SQRT3})
    assert pg.search_graph_for_state(target, max_edges=8) is None


@pytest.mark.parametrize(
    "terms, max_edges",
    [
        # two covers of 0000 need a 4-cycle, plus one cover of 1111: 6 edges
        ({(0, 0, 0, 0): 2 / math.sqrt(5), (1, 1, 1, 1): 1 / math.sqrt(5)}, 6),
        # kets agreeing in two slots share the edge there: 3 edges, not 4
        ({(0, 0, 0, 0): math.sqrt(0.5), (0, 0, 1, 1): math.sqrt(0.5)}, 3),
    ],
)
def test_search_edge_bound_admits_the_tightest_graph(terms, max_edges):
    target = QuantumState(terms)
    found = pg.search_graph_for_state(target, max_edges=max_edges)
    assert found is not None and len(found.edges) == max_edges
    assert pg.verify_target(found, target)
    assert pg.search_graph_for_state(target, max_edges=max_edges - 1) is None


def test_search_finds_asymmetric_trigger_state():
    # one photon acts as a trigger while the rest carry a 4-dim ladder
    target = QuantumState({
        (0, 0, 0, 0): 0.5,
        (0, 1, 0, 1): 0.5,
        (0, 2, 1, 0): 0.5,
        (0, 3, 1, 1): 0.5,
    })
    found = pg.search_graph_for_state(target)
    assert found is not None
    assert pg.verify_target(found, target)


def test_search_single_term_target():
    found = pg.search_graph_for_state(QuantumState({(0, 0): 1.0}))
    assert found is not None
    assert len(found.edges) == 1
    e = found.edges[0]
    assert (e.mode_u, e.mode_v) == (0, 0)


def test_search_is_deterministic():
    target = w_state_target()
    a = pg.search_graph_for_state(target)
    b = pg.search_graph_for_state(target)
    assert a == b


@pytest.mark.parametrize("bound", ["max_edges", "max_mode", "max_parallel"])
def test_search_negative_bound_is_a_domain_error(bound):
    with pytest.raises(pg.DomainError, match=bound):
        pg.search_graph_for_state(w_state_target(), **{bound: -1})


def test_search_rejects_unreachable_modes():
    target = QuantumState({(9, 9): 1.0})
    assert pg.search_graph_for_state(target, max_mode=3) is None


@st.composite
def search_cases(draw):
    n = draw(st.sampled_from([2, 4]))
    kets = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=3, unique=True))
    terms = {
        ket: cmath.rect(draw(st.sampled_from([1.0, 1.0, 2.0, 3.0])), draw(st.sampled_from([0.0] * 6 + [math.pi])))
        for ket in kets
    }
    bounds = {
        "max_edges": draw(st.integers(4, 8)),
        "max_mode": draw(st.sampled_from([1, 2, 2])),
        "max_parallel": draw(st.integers(1, 4)),
    }
    return QuantumState(terms), bounds


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_search_first_hit_matches_naive_oracle(case):
    target, bounds = case
    assert pg.search_graph_for_state(target, **bounds) == naive_search_graph_for_state(target, **bounds)


@pytest.mark.parametrize("n, d", [(4, 2), (4, 3), (6, 2), (8, 2)])
def test_search_ghz_first_hit_matches_naive_oracle(n, d):
    target = QuantumState({(m,) * n: 1 / math.sqrt(d) for m in range(d)})
    found = pg.search_graph_for_state(target)
    assert found is not None
    assert found == naive_search_graph_for_state(target)


def test_search_drops_unions_holding_a_foreign_cover(monkeypatch):
    """The 6-photon 3-dimensional GHZ target has no graph within 9 edges, so
    the search tries every union it keeps.  Two pairings of different modes
    that share a vertex pair give a cover of mixed modes, whose ket is not a
    target ket.  So only ordered triples of pairwise edge-disjoint pairings
    of K6 are tried: 15 choices, then 8, then 4."""
    runs = []
    kernel = pg.states._cover_sums
    monkeypatch.setattr(pg.states, "_cover_sums", lambda *args, **kwargs: runs.append(1) or kernel(*args, **kwargs))
    target = QuantumState({(m,) * 6: 1.0 for m in range(3)})
    assert pg.search_graph_for_state(target, max_edges=9) is None
    assert len(runs) == 15 * 8 * 4


@pytest.mark.parametrize(
    "target, bounds",
    [(QuantumState({(m,) * 16: 1.0 for m in range(2)}), {}),
     (QuantumState({(0,) * 14: 1.0, (1,) * 14: math.sqrt(2)}), {"max_edges": 8})],
    ids=["ghz16", "ratio-sqrt2-14"],
)
def test_search_lists_no_pairing_when_no_level_fits(monkeypatch, target, bounds):
    """Eight edges host at most one cover of 16 photons, and no two cover
    counts within 8 edges are in the ratio 1:sqrt(2).  No level fits either
    target, so the search returns None without listing a pairing of K_n
    (K16 has 2,027,025)."""
    walks = []
    walk = pg.states._covers
    monkeypatch.setattr(pg.states, "_covers", lambda *args, **kwargs: walks.append(1) or walk(*args, **kwargs))
    start = time.perf_counter()
    assert pg.search_graph_for_state(target, **bounds) is None
    assert time.perf_counter() - start < 1
    assert walks == []


@pytest.mark.parametrize("ratios", [(1, math.sqrt(2), math.sqrt(3)), (1, math.sqrt(2))], ids=["sqrt2-sqrt3", "sqrt2"])
def test_search_scale_stops_at_the_pairings_of_k_n(monkeypatch, ratios):
    """No scale up to K8's 105 pairings rounds these 8-photon ratios to
    counts within 1e-6, so no level is tried and none ends the search.  The
    scale must still stop after 105 levels, though 200 edges host
    comb(200, 4) = 64,684,950 covers."""
    target = QuantumState({(m,) * 8: r for m, r in enumerate(ratios)})
    calls = []

    def counted_round(x):
        calls.append(1)
        assert len(calls) <= 105 * len(ratios), "the scale ran past the pairing count of K8"
        return round(x)

    monkeypatch.setattr(pg.states, "round", counted_round, raising=False)
    assert pg.search_graph_for_state(target, max_edges=200) is None
    assert len(calls) == 105 * len(ratios)


@pytest.mark.parametrize("max_edges", [6, 8])
@pytest.mark.parametrize(
    "slots, ratio",
    [((0, 1), 1), ((1, 4), 1), ((0, 1), 2), ((1, 4), 2), ((0, 1, 2, 3), 1), ((0, 2, 3, 5), 1), ((1, 2, 3, 4), 1),
     ((0, 1, 2, 3, 4, 5), 1)],
)
def test_search_two_ket_first_hit_matches_naive_oracle(slots, ratio, max_edges):
    """|000000> + ratio |x>, where x holds mode 1 in ``slots``.  When the
    kets differ in two slots, swapping one edge of a cover for its parallel
    edge gives the other target ket, so such a union must stay a candidate."""
    other = tuple(int(s in slots) for s in range(6))
    target = QuantumState({(0,) * 6: 1.0, other: float(ratio)})
    found = pg.search_graph_for_state(target, max_edges=max_edges)
    assert found is not None
    assert found == naive_search_graph_for_state(target, max_edges=max_edges)


def test_frustration_scan_double_edge():
    rows = pg.frustration_scan(double_edge(), "II", [0.0, math.pi / 2, math.pi])
    expected = {0.0: 4.0, math.pi / 2: 2.0, math.pi: 0.0}
    for phase, intensity in rows:
        assert abs(intensity - expected[phase]) <= 1e-9


def test_frustration_scan_matches_interference_formula():
    phases = [0.3, 1.1, 2.0, 2.9]
    rows = pg.frustration_scan(double_edge(), "II", phases)
    for phase, intensity in rows:
        assert abs(intensity - abs(1 + cmath.exp(1j * phase)) ** 2) <= 1e-9


def test_frustration_scan_single_edge_constant():
    g = ExperimentGraph(["a", "b"], [Edge("I", "a", "b")])
    rows = pg.frustration_scan(g, "I", [0.0, 1.0, 2.0])
    for _, intensity in rows:
        assert abs(intensity - 1.0) <= 1e-9


def test_frustration_scan_unknown_edge():
    with pytest.raises(pg.DomainError):
        pg.frustration_scan(double_edge(), "nope", [0.0])


def test_state_file_round_trip():
    state = pg.state_from_graph(layered6(), normalize=True)
    text = pg.serialize_state(state)
    back = pg.parse_state(text)
    assert pg.states_equal(state, back)
    assert pg.serialize_state(back) == text


# Amplitudes at the edges of the double range: signed zeros, subnormals and
# magnitudes near the largest double.
_EDGE_AMPLITUDES = [0j, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324,
                    complex(-5e-324, 5e-324), 2.2250738585072014e-308, 1e308, complex(-1e308, -1e-300),
                    complex(1.2e308, 1.2e308), -1.7976931348623157e308]
_amplitudes = st.one_of(
    st.sampled_from(_EDGE_AMPLITUDES),
    st.complex_numbers(max_magnitude=1.7e308, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.lists(st.integers(min_value=0, max_value=12), max_size=6).map(tuple), _amplitudes, max_size=12
    )
)
def test_serialize_state_writes_what_json_writes(terms):
    # cmath.phase raises where the angle underflows; atan2 gives 0.0 there.
    records = [
        {"modes": list(ket), "amp_mag": abs(amp), "amp_phase_rad": math.atan2(amp.imag, amp.real)}
        for ket, amp in sorted(terms.items())
    ]
    assert pg.serialize_state(QuantumState(terms)) == json.dumps(records, indent=2) + "\n"


def test_serialize_state_writes_a_phase_that_underflows():
    """A ket whose imaginary part is below the smallest double relative to
    its real part has phase 0.0; ``cmath.phase`` raises there."""
    edges = [Edge("e", "a", "b", amp_mag=1e30), Edge("f", "a", "b", amp_mag=1e-300, amp_phase_rad=math.pi / 2)]
    state = pg.state_from_graph(ExperimentGraph(["a", "b"], edges))
    back = pg.parse_state(pg.serialize_state(state))
    assert back.terms == {(0, 0): 1e30}


@pytest.mark.parametrize(
    "amp", [complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf, complex(1.7e308, 1.7e308)]
)
def test_serialize_state_refuses_what_it_cannot_read_back(amp):
    state = QuantumState({(0, 1): 0.5, (1, 0): amp})
    with pytest.raises(pg.DomainError) as err:
        pg.serialize_state(state)
    assert err.value.reason == "overflow"


def test_parse_state_rejects_ragged_kets():
    with pytest.raises(pg.GraphParseError):
        pg.parse_state('[{"modes": [0, 0]}, {"modes": [0]}]')


def test_parse_state_rejects_duplicate_kets():
    with pytest.raises(pg.GraphParseError):
        pg.parse_state('[{"modes": [0]}, {"modes": [0]}]')


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param('[{"modes": [0], "amp_mag": 1' + "0" * 400 + "}]", "terms[0].amp_mag: number must be finite",
                     id="integer-beyond-double"),
        pytest.param("[" * 200000 + "]" * 200000, "<state>: invalid JSON", id="nested-too-deeply"),
    ],
)
def test_parse_state_errors_carry_location(text, message):
    with pytest.raises(pg.GraphParseError) as err:
        pg.parse_state(text)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_frustration_scan_rejects_non_finite_phase(phase):
    with pytest.raises(pg.DomainError):
        pg.frustration_scan(double_edge(), "II", [0.0, phase])


# ---------------------------------------------------------------------------
# the state kernel against the brute-force oracle
# ---------------------------------------------------------------------------

@st.composite
def _half(draw, names, min_edges, max_edges):
    """Random multigraph on ``names``: parallel edges, modes 0-2, complex
    amplitudes (some at phases that make covers cancel exactly)."""
    edges = []
    for k in range(draw(st.integers(min_value=min_edges, max_value=max_edges))):
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        edges.append(
            Edge(
                f"{names[0]}{k}",
                u,
                v,
                mode_u=draw(st.integers(min_value=0, max_value=2)),
                mode_v=draw(st.integers(min_value=0, max_value=2)),
                amp_mag=draw(st.sampled_from([0.5, 1.0, 1.5])),
                amp_phase_rad=draw(
                    st.one_of(
                        st.sampled_from([0.0, math.pi / 2, math.pi]),
                        st.floats(min_value=-math.pi, max_value=math.pi),
                    )
                ),
            )
        )
    return ExperimentGraph(names, edges)


@st.composite
def kernel_graphs(draw):
    """Plain multigraphs on up to 8 vertices, or two halves merged at one or
    two vertex pairs into a graph of at most 8 vertices."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=8))
        return draw(_half(pg.vertex_names(n), 0, 12))
    pairs = draw(st.integers(min_value=1, max_value=2))
    left = draw(_half(list("abcd"), 5, 9))
    right = draw(_half(list("wxyz"), 5, 9))
    return pg.merge_graphs(left, right, list(zip("dc", "wx"))[:pairs])


@given(kernel_graphs())
@settings(max_examples=150, deadline=None)
def test_state_kernel_matches_brute_force(g):
    state = pg.state_from_graph(g)
    reference = brute_force_state(g)
    assert all(abs(a) > pg.states.AMP_TOL for a in state.terms.values())
    for ket in set(state.terms) | set(reference):
        assert abs(state.terms.get(ket, 0j) - reference.get(ket, 0j)) <= 1e-9


@given(kernel_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_cover_sums_keep_the_arithmetic_of_their_inputs(g, data):
    """Integer amplitudes sum to exact ints, equal to the brute-force sums of
    the same graph with those amplitudes; complex amplitudes stay complex."""
    measured = [v in g.measured for v in g.vertices]
    edges = pg.states._indexed(g, g.edges)
    radix = pg.states._radix(edges)
    (sums,) = pg.states._cover_sums(measured, edges, radix)
    assert all(type(s) is complex for s in sums.values())
    weights = data.draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    (counts,) = pg.states._cover_sums(measured, [(*e[:4], w) for e, w in zip(edges, weights)], radix)
    assert all(type(c) is int for c in counts.values())
    weighted = ExperimentGraph(
        g.vertices, [Edge(e.id, e.u, e.v, e.mode_u, e.mode_v, float(w)) for e, w in zip(g.edges, weights)], g.measured
    )
    kets = pg.states._decode(list(counts), radix, len(g.ket_vertices))
    assert dict(zip(kets, counts.values())) == brute_force_state(weighted)


def test_empty_graph_state_is_complex():
    """A graph without vertices has one empty cover of amplitude 1 + 0j."""
    state = pg.state_from_graph(ExperimentGraph([]))
    assert state.terms == {(): 1} and type(state.terms[()]) is complex
    assert '"amp_mag": 1.0,' in pg.serialize_state(state)


def test_graph_state_has_no_negative_zero_part():
    """An edge amplitude of 1 - 0j gives the state amplitude 1 + 0j, as a
    complex kernel seed does; an int seed keeps the -0.0 on Python 3.14 and
    later, where the document would print a phase of -0.0."""
    g = ExperimentGraph(["a", "b"], [Edge("e", "a", "b", 0, 0, 1.0, -0.0)])
    state = pg.state_from_graph(g)
    assert math.copysign(1.0, state.terms[0, 0].imag) == 1.0
    assert '"amp_phase_rad": 0.0' in pg.serialize_state(state)


def _oracle_intensity(g, edge_id, phase):
    edges = [
        Edge(e.id, e.u, e.v, e.mode_u, e.mode_v, e.amp_mag, phase if e.id == edge_id else e.amp_phase_rad)
        for e in g.edges
    ]
    terms = brute_force_state(ExperimentGraph(g.vertices, edges, g.measured))
    return sum(abs(a) ** 2 for a in terms.values() if abs(a) > pg.states.AMP_TOL)


@given(kernel_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_frustration_scan_matches_brute_force(g, data):
    if not g.edges:
        return
    edge_id = data.draw(st.sampled_from(sorted(e.id for e in g.edges)))
    phases = [0.0, math.pi / 3, math.pi, -2.0]
    for phase, intensity in pg.frustration_scan(g, edge_id, phases):
        expected = _oracle_intensity(g, edge_id, phase)
        assert abs(intensity - expected) <= 1e-9 * (1 + expected)


# ---------------------------------------------------------------------------
# the phase sweep and the ket decoder against plain per-ket loops
# ---------------------------------------------------------------------------

def _sweep_every_ket(g, edge_id, phases):
    """The scan with every ket recomputed at every phase, a ket at or below
    ``AMP_TOL`` skipped, summed left to right in the order of the kernel's
    set of kets."""
    rest = pg.states._indexed(g, [e for e in g.edges if e.id != edge_id])
    (forced,) = pg.states._indexed(g, [g.edge_by_id(edge_id)])
    measured = [v in g.measured for v in g.vertices]
    without, through = pg.states._cover_sums(measured, rest, pg.states._radix(rest + [forced]), (None, forced))
    out = []
    for phase in phases:
        amp = cmath.rect(g.edge_by_id(edge_id).amp_mag, phase)
        intensity = 0.0
        for k in without.keys() | through.keys():
            total = abs(without.get(k, 0j) + amp * through.get(k, 0j))
            if total > pg.states.AMP_TOL:
                intensity += total * total
        out.append((phase, intensity))
    return out


_SWEEP_PHASES = [0.0, -0.0, 0.4, math.pi / 2, math.pi, -2.5]


@given(kernel_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_frustration_scan_sums_as_a_sweep_over_every_ket(g, data):
    if not g.edges:
        return
    edge_id = data.draw(st.sampled_from(sorted(e.id for e in g.edges)))
    assert pg.frustration_scan(g, edge_id, _SWEEP_PHASES) == _sweep_every_ket(g, edge_id, _SWEEP_PHASES)


def _k4_beside(names, edges) -> ExperimentGraph:
    """A weighted two-mode K4 on c, d, e, f beside the given edges."""
    rng = random.Random(11)
    k4 = [Edge(f"{u}{v}", u, v, rng.randrange(2), rng.randrange(2), rng.uniform(0.5, 2), rng.uniform(-3, 3))
          for u, v in ("cd", "ce", "cf", "de", "df", "ef")]
    return ExperimentGraph([*names, "c", "d", "e", "f"], [*edges, *k4])


def test_frustration_scan_of_an_edge_in_every_cover():
    """The only edge at a is in every cover, so it reaches every ket and
    only turns the state's global phase: the intensity stays the norm."""
    g = _k4_beside("ab", [Edge("ab", "a", "b", 1, 0, 1.5, 0.3)])
    rows = pg.frustration_scan(g, "ab", _SWEEP_PHASES)
    assert rows == _sweep_every_ket(g, "ab", _SWEEP_PHASES)
    norm_sq = pg.state_from_graph(g).norm_sq()
    assert all(abs(intensity - norm_sq) <= 1e-12 * norm_sq for _, intensity in rows)


def test_frustration_scan_of_an_edge_in_no_cover():
    """a-c is in no cover, since b-d is missing, so it reaches no ket and
    every phase gives the same intensity."""
    edges = [Edge("ab", "a", "b"), Edge("ab1", "a", "b", 1, 1, 0.5), Edge("ac", "a", "c", 0, 1, 2.0)]
    g = _k4_beside("ab", edges)
    rows = pg.frustration_scan(g, "ac", _SWEEP_PHASES)
    assert rows == _sweep_every_ket(g, "ac", _SWEEP_PHASES)
    assert len({intensity for _, intensity in rows}) == 1


def test_frustration_scan_of_the_cancelling_double_edge():
    rows = pg.frustration_scan(double_edge(), "II", [0.0, math.pi])
    assert rows == [(0.0, 4.0), (math.pi, 0.0)]


@pytest.mark.parametrize("edge_id", ["I", "II"])
def test_an_overflowing_frustration_scan_is_a_domain_error(edge_id):
    """The square of the 1e300 ket overflows whether the swept edge reaches
    that ket (I) or only the other one (II)."""
    g = ExperimentGraph(["a", "b"], [Edge("I", "a", "b", 0, 0, 1e300), Edge("II", "a", "b", 1, 1)])
    with pytest.raises(pg.DomainError) as err:
        pg.frustration_scan(g, edge_id, [0.0, 1.0])
    assert err.value.reason == "overflow"


def _slot_by_slot(codes, radix, length):
    kets = []
    for code in codes:
        ket = []
        for _ in range(length):
            code, mode = divmod(code, radix)
            ket.append(mode)
        kets.append(tuple(reversed(ket)))
    return kets


@pytest.mark.parametrize("radix", [1, 2, 3, 4])
@pytest.mark.parametrize("length", range(14))
def test_decode_equals_a_slot_by_slot_decode(radix, length):
    """Code lists empty, shorter than the radix, at and around a table
    size, and long."""
    rng = random.Random(100 * radix + length)
    space = radix**length
    for count in (0, 1, radix - 1, radix, radix + 1, radix**2, radix**3 - 1, 100, 3000):
        codes = sorted(rng.sample(range(space), min(count, space)))
        assert pg.states._decode(codes, radix, length) == _slot_by_slot(codes, radix, length)


# ---------------------------------------------------------------------------
# state-kernel properties: relabelling, per-vertex scaling, disjoint union,
# frustration
# ---------------------------------------------------------------------------

@st.composite
def property_graphs(draw):
    """Multigraphs on an even number of vertices up to 10, or two halves of
    equal size merged at one or two vertex pairs into a graph of at most 10
    vertices."""
    if draw(st.booleans()):
        n = 2 * draw(st.integers(min_value=1, max_value=5))
        return draw(_half(pg.vertex_names(n), n // 2, 16))
    pairs = draw(st.integers(min_value=1, max_value=2))
    size = draw(st.integers(min_value=3, max_value=(10 + pairs) // 2))
    left = draw(_half(list("abcdef")[:size], size, 2 * size))
    right = draw(_half(list("uvwxyz")[:size], size, 2 * size))
    return pg.merge_graphs(left, right, list(zip("ab", "uv"))[:pairs])


def _assert_same_terms(got: dict, want: dict):
    """Amplitudes agree within 1e-9 of the largest one, so a ket may be
    missing on one side only when it is below that on the other."""
    tol = 1e-9 * max(map(abs, [*got.values(), *want.values()]), default=0.0)
    for ket in got.keys() | want.keys():
        assert abs(got.get(ket, 0j) - want.get(ket, 0j)) <= tol, ket


def _with_edges(g, edges) -> ExperimentGraph:
    return ExperimentGraph(g.vertices, edges, g.measured)


@given(property_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_permuting_the_vertex_order_permutes_the_ket_slots(g, rnd):
    order = list(g.vertices)
    rnd.shuffle(order)
    permuted = ExperimentGraph(order, g.edges, g.measured)
    slot = {v: k for k, v in enumerate(g.ket_vertices)}
    moved = [slot[v] for v in permuted.ket_vertices]
    want = {tuple(ket[k] for k in moved): a for ket, a in pg.state_from_graph(g).terms.items()}
    _assert_same_terms(pg.state_from_graph(permuted).terms, want)


@given(
    property_graphs(),
    st.data(),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
@settings(max_examples=150, deadline=None)
def test_scaling_the_edges_at_a_vertex_scales_every_ket_by_its_need(g, data, s, theta):
    v = data.draw(st.sampled_from(g.vertices))
    scaled = _with_edges(g, [
        Edge(e.id, e.u, e.v, e.mode_u, e.mode_v, e.amp_mag * s, e.amp_phase_rad + theta) if v in (e.u, e.v) else e
        for e in g.edges
    ])
    factor = cmath.rect(s, theta) ** (2 if v in g.measured else 1)
    want = {ket: a * factor for ket, a in pg.state_from_graph(g).terms.items()}
    _assert_same_terms(pg.state_from_graph(scaled).terms, want)


@given(property_graphs(), property_graphs())
@settings(max_examples=80, deadline=None)
def test_the_state_of_a_disjoint_union_is_the_tensor_product(g, h):
    rename = {v: f"r{v}" for v in h.vertices}
    h = ExperimentGraph(
        [rename[v] for v in h.vertices],
        [Edge(e.id, rename[e.u], rename[e.v], e.mode_u, e.mode_v, e.amp_mag, e.amp_phase_rad) for e in h.edges],
        [rename[v] for v in h.measured],
    )
    union = pg.merge_graphs(g, h, [])
    first, second = pg.state_from_graph(g).terms, pg.state_from_graph(h).terms
    want = {k1 + k2: a1 * a2 for k1, a1 in first.items() for k2, a2 in second.items()}
    _assert_same_terms(pg.state_from_graph(union, override_limits=True).terms, want)


@given(property_graphs(), st.data(), st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=150, deadline=None)
def test_frustration_scan_is_the_intensity_of_the_state_at_each_phase(g, data, phase):
    edge_id = data.draw(st.sampled_from(sorted(e.id for e in g.edges)))
    ((_, intensity),) = pg.frustration_scan(g, edge_id, [phase])
    set_phase = _with_edges(g, [
        Edge(e.id, e.u, e.v, e.mode_u, e.mode_v, e.amp_mag, phase) if e.id == edge_id else e for e in g.edges
    ])
    expected = pg.state_from_graph(set_phase).norm_sq()
    assert abs(intensity - expected) <= 1e-9 * (1 + expected)


def test_state_guard_still_refuses_large_edge_sets():
    g = pg.complete_graph(12)
    assert len(g.edges) > pg.matching.EDGE_LIMIT
    with pytest.raises(pg.ScaleLimitError):
        pg.state_from_graph(g)
    with pytest.raises(pg.ScaleLimitError):
        pg.frustration_scan(g, "e0", [0.0])


# ---------------------------------------------------------------------------
# the whole-graph cover sums, computed once per graph
# ---------------------------------------------------------------------------

def test_state_questions_of_one_graph_run_the_kernel_once(monkeypatch):
    """State, normalized state, verification and both network terms of one
    graph share one whole-graph kernel run."""
    runs = []
    kernel = pg.states._cover_sums
    monkeypatch.setattr(pg.states, "_cover_sums", lambda *args, **kwargs: runs.append(1) or kernel(*args, **kwargs))
    g = k4_ghz()
    state = pg.state_from_graph(g)
    target = pg.state_from_graph(g, True)
    assert pg.verify_target(g, target)
    assert pg.network_state(g, 0.5).terms == {k: a * 0.25 for k, a in state.terms.items()}
    assert pg.network_amplitude(g, 0.5) == 0.25 * sum(state.terms.values())
    assert len(runs) == 1


def test_frustration_scan_runs_the_kernel_once(monkeypatch):
    """The sums without the swept edge and through it come from one kernel
    run, so the second start reuses the states the first one summed."""
    runs = []
    kernel = pg.states._cover_sums
    monkeypatch.setattr(pg.states, "_cover_sums", lambda *args, **kwargs: runs.append(1) or kernel(*args, **kwargs))
    rows = pg.frustration_scan(double_edge(), "II", [0.0, math.pi])
    assert [i for _, i in rows] == pytest.approx([4.0, 0.0])
    assert len(runs) == 1


def test_mutating_a_returned_state_leaves_the_graph_state_alone():
    """Every call returns terms of its own, so a caller that edits them
    cannot change what the next call returns."""
    g = layered6()
    first = pg.state_from_graph(g)
    expected = dict(first.terms)
    first.terms.clear()
    pg.network_state(g, 1.0).terms[(9,) * 6] = 1j
    assert pg.state_from_graph(g).terms == expected
    assert pg.network_state(g, 1.0).terms == expected
    normalized = pg.state_from_graph(g, True)
    normalized.terms.popitem()
    assert pg.state_from_graph(g, True).norm_sq() == pytest.approx(1.0)


def test_kept_sums_do_not_lift_the_scale_guard():
    """Sums computed past the guard once are not handed to a later call
    that does not override it."""
    g = pg.complete_graph(12)
    assert len(g.edges) > pg.matching.EDGE_LIMIT
    assert pg.state_from_graph(g, override_limits=True).terms == {(0,) * 12: 10395}
    with pytest.raises(pg.ScaleLimitError):
        pg.state_from_graph(g)
    with pytest.raises(pg.ScaleLimitError):
        pg.verify_target(g, QuantumState({(0,) * 12: 1}))
    with pytest.raises(pg.ScaleLimitError):
        pg.network_state(g, 1.0)
    with pytest.raises(pg.ScaleLimitError):
        pg.network_amplitude(g, 1.0)


def test_errors_repeat_on_every_call():
    """A fully frustrated graph refuses normalization each time it is
    asked, and sums that overflow are refused each time and kept nowhere."""
    g = double_edge(math.pi)
    for _ in range(2):
        with pytest.raises(pg.FullyFrustratedError):
            pg.state_from_graph(g, normalize=True)
    huge = ExperimentGraph(
        ["a", "b", "c", "d"], [Edge("x", "a", "b", amp_mag=1e300), Edge("y", "c", "d", amp_mag=1e300)]
    )
    for question in (pg.state_from_graph, lambda g: pg.network_amplitude(g, 1.0)) * 2:
        with pytest.raises(pg.DomainError) as err:
            question(huge)
        assert err.value.reason == "overflow"
        assert huge._sums is None
