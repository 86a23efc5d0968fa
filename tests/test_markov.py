import json
import math

import numpy as np
import pytest

from chain_reference import dense, overall_outage, stationary_distribution
from mdma_relay.analytic import SourceOutages, step_outages
from mdma_relay import markov
from mdma_relay.markov import (
    MAX_CHAIN_STATES,
    Phase,
    TransitionMatrix,
    build_chain,
    capped_plan,
    chain_to_json,
    labelled,
    phase_plan,
    resource_efficiency,
    ring_distribution,
    slot_cost,
    solve_chain,
)
from mdma_relay.topology import ConfigError


def uniform_outages(q, empty=0.2):
    return {1: SourceOutages(q, q, empty), 2: SourceOutages(q, q, empty)}


def random_outages(rng):
    b1, r1, b2, r2 = rng.uniform(0.05, 0.9, 4)
    e1, e2 = rng.uniform(0.0, 0.9, 2)
    return {1: SourceOutages(b1, r1, e1), 2: SourceOutages(b2, r2, e2)}


# ---------------------------------------------------------------------------
# state enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta_s,beta_p", [(5, 5), (1, 1), (0, 3), (4, 0), (10, 2)])
def test_state_count_identity(beta_s, beta_p):
    states = build_chain(uniform_outages(0.3), beta_s, beta_p).states
    assert len(states) == 2 * beta_s + 4 * beta_p
    assert len(set(states)) == len(states)


def test_state_count_identity_over_config_grid():
    from mdma_relay.topology import SystemConfig

    for eta in (0.0, 0.2, 0.5, 0.8, 1.0):
        for total_bits in (4.0, 10.0, 15.0):
            for rate in (0.5, 1.0, 2.0):
                cfg = SystemConfig(eta=eta, total_bits=total_bits, rate_r0=rate)
                states = build_chain(uniform_outages(0.3), cfg.beta_s, cfg.beta_p).states
                assert len(states) == 2 * cfg.beta_s + 4 * cfg.beta_p


def test_state_ordering_interleaves_steps():
    assert build_chain(uniform_outages(0.3), 2, 1).states == (
        "shared:bcast:1",
        "shared:relay:1",
        "shared:bcast:2",
        "shared:relay:2",
        "personal1:bcast:1",
        "personal1:relay:1",
        "personal2:bcast:1",
        "personal2:relay:1",
    )


def test_phase_plan_drops_empty_phases():
    assert phase_plan(0, 2) == [Phase("personal1", 1, 2), Phase("personal2", 2, 2)]
    assert phase_plan(3, 0) == [Phase("shared", 1, 3)]


# ---------------------------------------------------------------------------
# build_chain
# ---------------------------------------------------------------------------

def test_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chain = build_chain(random_outages(rng), int(rng.integers(0, 5)), int(rng.integers(1, 5)))
        rows = dense(chain).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) < 1e-12


def test_failure_free_chain_is_cyclic_permutation():
    chain = build_chain(uniform_outages(0.0, empty=0.5), 2, 1)
    t = dense(chain)
    bcast_idx = [i for i, s in enumerate(chain.states) if ":bcast:" in s]
    # Each broadcast state advances deterministically to the next one.
    for k, i in enumerate(bcast_idx):
        target = bcast_idx[(k + 1) % len(bcast_idx)]
        assert t[i, target] == 1.0
    pi = stationary_distribution(chain)
    expect = np.zeros(len(chain.states))
    expect[bcast_idx] = 1.0 / len(bcast_idx)
    assert np.max(np.abs(pi - expect)) < 1e-9


def test_all_gates_closed_blocks_relay_step():
    chain = build_chain(uniform_outages(0.3, empty=1.0), 2, 1)
    t = dense(chain)
    for i, s in enumerate(chain.states):
        if ":bcast:" in s:
            assert t[i, i] == pytest.approx(0.3)
            relay_i = chain.states.index(s.replace(":bcast:", ":relay:"))
            assert t[i, relay_i] == 0.0


def test_sparsity_at_most_three_per_row():
    rng = np.random.default_rng(2)
    for _ in range(10):
        chain = build_chain(random_outages(rng), 3, 2)
        assert np.max((dense(chain) > 0).sum(axis=1)) <= 3


def test_invalid_outage_rejected():
    for bad in ((1.2, 0.0, 0.0), (0.0, -0.1, 0.0), (0.0, 0.0, math.nan)):
        with pytest.raises(ConfigError):
            SourceOutages(*bad)
    with pytest.raises(ConfigError):
        build_chain(uniform_outages(0.5), 0, 0)


def test_transition_targets_follow_protocol_cycle():
    rng = np.random.default_rng(3)
    outs = random_outages(rng)
    s1, s2 = outs[1], outs[2]
    chain = build_chain(outs, 2, 2)
    idx = {s: i for i, s in enumerate(chain.states)}
    t = dense(chain)
    # Broadcast success advances within the phase.
    i = idx["shared:bcast:1"]
    assert t[i, idx["shared:bcast:2"]] == pytest.approx(1 - s1.bcast)
    # Relay failure returns to the same repetition's broadcast.
    i = idx["shared:relay:2"]
    assert t[i, idx["shared:bcast:2"]] == pytest.approx(s1.relay)
    # Phase boundaries: shared -> personal1 -> personal2 -> shared; source 1
    # carries shared and personal1, source 2 carries personal2.
    assert t[idx["shared:bcast:2"], idx["personal1:bcast:1"]] == pytest.approx(1 - s1.bcast)
    assert t[idx["personal1:relay:2"], idx["personal2:bcast:1"]] == pytest.approx(1 - s1.relay)
    assert t[idx["personal2:bcast:2"], idx["shared:bcast:1"]] == pytest.approx(1 - s2.bcast)
    # The empty decode set of source 2 gives the personal2 self-loop.
    i = idx["personal2:bcast:1"]
    assert t[i, i] == pytest.approx(s2.bcast * s2.empty)


def test_literal_wrap_variant_traps_first_personal_phase():
    rng = np.random.default_rng(4)
    outs = random_outages(rng)
    chain = build_chain(outs, 2, 2, literal_personal1_wrap=True)
    idx = {s: i for i, s in enumerate(chain.states)}
    src = idx["personal1:bcast:2"]
    assert dense(chain)[src, idx["personal1:bcast:1"]] == pytest.approx(1 - outs[1].bcast)
    pi = stationary_distribution(chain)
    p2_mass = sum(p for p, s in zip(pi, chain.states) if s.startswith("personal2:"))
    assert p2_mass < 1e-9
    assert np.max(np.abs(dense(chain).sum(axis=1) - 1.0)) < 1e-12
    ring = ring_distribution(outs, 2, 2, literal_personal1_wrap=True)
    assert np.max(np.abs(ring - pi)) < 1e-9


# ---------------------------------------------------------------------------
# stationary distribution
# ---------------------------------------------------------------------------

TWO_STATES = ("shared:bcast:1", "shared:bcast:2")


def test_two_state_symmetric_chain():
    chain = TransitionMatrix(TWO_STATES, ((0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)))
    assert np.array_equal(dense(chain), np.full((2, 2), 0.5))
    pi = stationary_distribution(chain)
    assert pi == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("triples,refusal", [
    (((0, 2, 1.0), (1, 0, 1.0)), "join states"),
    (((0, 0, 1.0), (-1, 0, 1.0), (1, 0, 1.0)), "join states"),
    (((0, 0, 1.5), (0, 1, -0.5), (1, 0, 1.0)), r"\[0, 1\]"),
    (((0, 0, math.nan), (1, 0, 1.0)), r"\[0, 1\]"),
    (((0, 0, 0.5), (0, 1, 0.5 - 2e-12), (1, 0, 1.0)), "sum to 1"),
    (((0, 0, 0.5), (0, 1, 0.5 + 2e-12), (1, 0, 1.0)), "sum to 1"),
    (((0, 0, 1.0),), "sum to 1"),
    ((), "sum to 1"),
])
def test_transition_matrix_refuses_bad_triples(triples, refusal):
    with pytest.raises(ConfigError, match=refusal):
        TransitionMatrix(TWO_STATES, triples)


def test_transition_matrix_accepts_rows_within_the_tolerance():
    chain = TransitionMatrix(TWO_STATES, ((0, 0, 0.5), (0, 1, 0.5 - 5e-13), (1, 1, 1.0)))
    assert dense(chain)[0, 1] == 0.5 - 5e-13


@pytest.mark.parametrize("beta_s,beta_p", [(1, 0), (0, 1), (1, 1), (3, 2), (2, 0)])
@pytest.mark.parametrize("literal", [False, True])
def test_triples_are_the_nonzero_scan_of_the_dense_view(beta_s, beta_p, literal):
    # One-repetition phases that advance into themselves put two entries on
    # one target; the triples must hold their sum once, in (row, column) order.
    outs = random_outages(np.random.default_rng(12))
    outs[2] = SourceOutages(0.0, 0.4, 0.3)  # personal2 broadcasts never fail
    chain = build_chain(outs, beta_s, beta_p, literal_personal1_wrap=literal)
    t = dense(chain)
    assert chain.triples == tuple((i, j, t[i, j]) for i, j in zip(*np.nonzero(t)))


def test_build_chain_and_its_dump_leave_the_dense_view_unbuilt():
    outs = random_outages(np.random.default_rng(11))
    chain = build_chain(outs, 3, 2)
    doc = json.loads(chain_to_json(solve_chain(outs, 3, 2), chain, ring_distribution(outs, 3, 2), outs))
    # The chain holds its labels and sparse triples only; the dense view
    # lives with the tests.
    assert set(vars(chain)) == {"states", "triples"}
    assert [tuple(t) for t in doc["transitions"]] == list(chain.triples)
    assert dense(chain).shape == (14, 14)


def test_power_and_direct_agree():
    """The closed-form ring law against the direct linear solve."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        outs = random_outages(rng)
        beta_s, beta_p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pr = ring_distribution(outs, beta_s, beta_p)
        pd = stationary_distribution(build_chain(outs, beta_s, beta_p))
        assert np.max(np.abs(pr - pd)) < 1e-9


def test_stationary_properties():
    rng = np.random.default_rng(6)
    outs = random_outages(rng)
    chain = build_chain(outs, 3, 2)
    pi = ring_distribution(outs, 3, 2)
    assert np.all(pi >= 0)
    assert pi.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(pi @ dense(chain) - pi)) < 1e-9
    # Strictly positive occupancy when every outage is interior.
    assert np.all(pi > 0)


def test_ring_law_of_a_phase_that_never_advances_holds_the_mass():
    # Source 2 (personal2): the broadcast always fails and no relay ever
    # decodes, so the chain reaches its first broadcast state and stays there.
    stuck = {1: SourceOutages(0.3, 0.3, 0.2), 2: SourceOutages(1.0, 0.3, 1.0)}
    assert ring_distribution(stuck, 2, 2).tolist() == [0.0] * 8 + [1.0] + [0.0] * 3
    sol = solve_chain(stuck, 2, 2)
    assert (sol.overall_op, sol.slot_cost, sol.efficiency) == (1.0, math.inf, 0.0)
    # Source 1 as well, with relays that decode but never deliver: shared,
    # the first such phase, holds the chain, 1 : op_b (1 - e) between its
    # two states.
    both = {1: SourceOutages(1.0, 1.0, 0.2), 2: SourceOutages(1.0, 0.3, 1.0)}
    pi = ring_distribution(both, 2, 2)
    assert pi[:2] == pytest.approx([1.0 / 1.8, 0.8 / 1.8]) and not pi[2:].any()
    # Every stuck repetition is a closed class of its own; the direct solve
    # follows the chain from shared:bcast:1 into the one the ring law names.
    s1_stuck = {1: both[1], 2: stuck[1]}
    for outs, beta_s, beta_p in ((stuck, 2, 2), (stuck, 2, 1), (both, 2, 2), (s1_stuck, 1, 1)):
        pi = ring_distribution(outs, beta_s, beta_p)
        assert np.max(np.abs(pi - stationary_distribution(build_chain(outs, beta_s, beta_p)))) < 1e-12


# ---------------------------------------------------------------------------
# overall outage, slot cost, efficiency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("literal", [False, True])
def test_renewal_outage_matches_the_per_state_reference(paper_setup, literal):
    # The per-phase renewal sums against the occupancy-weighted outages of
    # the direct solve, from deep outage (OP = 1 in floats) to 30 dBm.
    from dataclasses import replace

    topo, cfg = paper_setup
    worst = 0.0
    for power in range(-14, 31):
        outs = step_outages(topo, replace(cfg, power_dbm=float(power)))
        for eta in (0.0, 0.13, 0.3, 0.5, 0.7, 0.9, 1.0):
            split = replace(cfg, eta=eta)
            chain = build_chain(outs, split.beta_s, split.beta_p, literal)
            ref = overall_outage(stationary_distribution(chain), outs, chain.states)
            sol = solve_chain(outs, split.beta_s, split.beta_p, literal_personal1_wrap=literal)
            worst = max(worst, abs(sol.overall_op - ref) / ref)
            assert sol.slot_cost == slot_cost(sol.overall_op)
    assert worst <= 1e-14


def test_renewal_outage_where_a_phase_never_advances():
    stuck = SourceOutages(1.0, 0.3, 1.0)  # q = 0: no broadcast or relay gets through
    live = SourceOutages(0.4, 0.2, 0.3)
    # On the chain's path it holds the chain: OP is 1, whichever phase it is.
    for outs, literal in (({1: live, 2: stuck}, False), ({1: stuck, 2: live}, False),
                          ({1: stuck, 2: live}, True)):
        sol = solve_chain(outs, 2, 2, literal_personal1_wrap=literal)
        assert (sol.overall_op, sol.slot_cost, sol.efficiency) == (1.0, math.inf, 0.0)
    # Off the path (the literal variant never reaches personal2) it does not
    # count: personal1 alone holds the chain, with its own step outages.
    outs = {1: live, 2: stuck}
    sol = solve_chain(outs, 2, 2, literal_personal1_wrap=True)
    assert sol.overall_op == solve_chain({1: live, 2: live}, 0, 2, literal_personal1_wrap=True).overall_op
    chain = build_chain(outs, 2, 2, literal_personal1_wrap=True)
    ref = overall_outage(stationary_distribution(chain), outs, chain.states)
    assert sol.overall_op == pytest.approx(ref, rel=1e-14) and sol.overall_op < 1.0
    # A relay that decodes but never delivers stalls the phase too.
    sol = solve_chain({1: SourceOutages(1.0, 1.0, 0.2), 2: live}, 1, 1)
    assert sol.overall_op == 1.0


def test_literal_wrap_variant_delivers_no_pair(paper_setup):
    # The chain never leaves personal1, so it never completes a cycle and
    # delivers no pair: efficiency 0.  Its outage and slot cost are
    # personal1's own, from the renewal sums.
    from dataclasses import replace

    topo, cfg = paper_setup
    outs = step_outages(topo, cfg)
    for eta in (0.0, 0.5):
        split = replace(cfg, eta=eta)
        sol = solve_chain(outs, split.beta_s, split.beta_p, literal_personal1_wrap=True)
        assert sol.efficiency == 0.0 < solve_chain(outs, split.beta_s, split.beta_p).efficiency
        assert sol.overall_op == solve_chain(outs, 0, split.beta_p, literal_personal1_wrap=True).overall_op
        assert sol.slot_cost == slot_cost(sol.overall_op) < math.inf
    # Without a personalized phase the variant is the protocol.
    whole = replace(cfg, eta=1.0)
    assert (solve_chain(outs, whole.beta_s, whole.beta_p, literal_personal1_wrap=True)
            == solve_chain(outs, whole.beta_s, whole.beta_p))
    # Resource units are still checked.
    with pytest.raises(ConfigError, match="resource units"):
        solve_chain(outs, 2, 2, 0.0, literal_personal1_wrap=True)


def test_state_cap_binds_only_the_per_state_structures():
    beta = MAX_CHAIN_STATES // 2  # a chain of 3 * MAX_CHAIN_STATES states
    outs = uniform_outages(0.37)
    for per_state in (capped_plan, lambda *b: build_chain(outs, *b),
                      lambda *b: ring_distribution(outs, *b)):
        with pytest.raises(ConfigError, match="more than the 1000000 supported"):
            per_state(beta, beta)
    assert solve_chain(outs, beta, beta).overall_op == pytest.approx(0.37, abs=1e-12)
    assert len(capped_plan(MAX_CHAIN_STATES // 2, 0)) == 1  # exactly at the cap

def test_overall_outage_of_constant_steps():
    outs = uniform_outages(0.37)
    sol = solve_chain(outs, 3, 2)
    assert sol.overall_op == pytest.approx(0.37, abs=1e-12)


def test_overall_outage_zero():
    sol = solve_chain(uniform_outages(0.0), 2, 2)
    assert sol.overall_op == pytest.approx(0.0, abs=1e-12)


def test_overall_outage_bounded_by_step_extremes():
    rng = np.random.default_rng(8)
    for _ in range(10):
        outs = random_outages(rng)
        sol = solve_chain(outs, 2, 2)
        steps = labelled(outs).values()
        assert min(steps) - 1e-12 <= sol.overall_op <= max(steps) + 1e-12


def test_overall_outage_alignment_check():
    outs = uniform_outages(0.1)
    chain = build_chain(outs, 1, 1)
    with pytest.raises(ValueError):
        overall_outage(np.ones(3) / 3, outs, chain.states)


@pytest.mark.parametrize("op,expect", [(0.0, 1.0), (0.5, 2.0), (0.9, 10.0)])
def test_slot_cost_values(op, expect):
    assert slot_cost(op) == pytest.approx(expect)


def test_slot_cost_diverges():
    assert slot_cost(1.0) == math.inf
    assert resource_efficiency(math.inf, 5, 5, 1.0, 1.0) == 0.0
    with pytest.raises(ConfigError):
        slot_cost(-0.1)
    with pytest.raises(ConfigError):
        slot_cost(1.1)


def test_resource_efficiency_values():
    assert resource_efficiency(1.0, 5, 5, 1.0, 1.0) == pytest.approx(2.0 / 15.0)
    assert resource_efficiency(1.0, 10, 0, 1.0, 1.0) == pytest.approx(0.2)
    base = resource_efficiency(1.3, 5, 5, 1.0, 1.0)
    assert resource_efficiency(1.3, 5, 5, 2.0, 1.0) == pytest.approx(base / 2)
    with pytest.raises(ConfigError):
        resource_efficiency(0.0, 5, 5, 1.0, 1.0)


def test_analytic_op_monotone_in_power(paper_setup):
    from dataclasses import replace

    topo, cfg = paper_setup
    ops = []
    for p in np.linspace(0.0, 30.0, 20):
        outs = step_outages(topo, replace(cfg, power_dbm=float(p)))
        ops.append(solve_chain(outs, cfg.beta_s, cfg.beta_p).overall_op)
    assert all(b <= a + 1e-12 for a, b in zip(ops, ops[1:]))


# ---------------------------------------------------------------------------
# degenerate payload splits and the JSON dump
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta_s,beta_p", [(0, 5), (5, 0)])
def test_empty_phase_chains_run(beta_s, beta_p):
    rng = np.random.default_rng(9)
    outs = random_outages(rng)
    sol = solve_chain(outs, beta_s, beta_p)
    assert len(ring_distribution(outs, beta_s, beta_p)) == 2 * beta_s + 4 * beta_p
    assert 0.0 <= sol.overall_op < 1.0
    assert sol.slot_cost >= 1.0
    assert sol.efficiency > 0.0


def test_chain_json_dump(paper_setup):
    topo, cfg = paper_setup
    outs = step_outages(topo, cfg)
    sol = solve_chain(outs, cfg.beta_s, cfg.beta_p)
    pi = ring_distribution(outs, cfg.beta_s, cfg.beta_p)
    doc = json.loads(chain_to_json(sol, build_chain(outs, cfg.beta_s, cfg.beta_p), pi, outs))
    assert len(doc["states"]) == 30
    assert doc["states"][0] == "shared:bcast:1"
    assert math.isclose(sum(doc["stationary"]), 1.0, abs_tol=1e-9)
    total = np.zeros((30, 30))
    for i, j, p in doc["transitions"]:
        total[i, j] = p
    assert np.max(np.abs(total.sum(axis=1) - 1.0)) < 1e-12
    assert doc["step_outages"] == labelled(outs)
    assert doc["step_outages"]["personal2:relay"] == outs[2].relay
    assert doc["stationary"] == pi.tolist()
    assert doc["overall_outage"] == sol.overall_op


def test_solve_chain_builds_no_matrix(monkeypatch):
    # Nor any per-state vector: the metrics come from the per-phase sums.
    outs = random_outages(np.random.default_rng(10))
    expect = solve_chain(outs, 3, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_chain built a per-state structure")

    for name in ("build_chain", "ring_distribution", "capped_plan"):
        monkeypatch.setattr(markov, name, refuse)
    assert solve_chain(outs, 3, 2) == expect
    assert set(vars(expect)) == {"overall_op", "slot_cost", "efficiency"}
