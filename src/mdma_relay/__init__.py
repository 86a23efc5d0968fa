"""Outage, slot-cost and resource-efficiency analysis of a two-source,
multi-relay, MRC-destination cooperative network under model-division
multiple access, cross-validated by a slot-level Monte Carlo simulator
with TDMA/FDMA/NOMA baselines."""

__version__ = "0.1.0"

from .topology import (
    ConfigError,
    DegenerateGeometryError,
    LinkParam,
    NetworkTopology,
    SystemConfig,
    default_paper_setup,
    distances,
    link_rates,
    load_setup,
    save_setup,
)
from .analytic import (
    BinnedPmf,
    DefectiveCdf,
    GatedExponential,
    StepOutageSet,
    bin_conditional_direct,
    bin_relay_sum,
    decode_fail_probs,
    direct_outage,
    numeric_relay_sum_cdf,
    relay_sum_cdf,
    step2_outage,
    step_outages,
)
from .markov import (
    ChainSolution,
    ProtocolState,
    TransitionMatrix,
    build_chain,
    chain_to_json,
    overall_outage,
    protocol_states,
    resource_efficiency,
    slot_cost,
    solve_chain,
    stationary_distribution,
)
from .simulator import (
    SimEstimate,
    SimOptions,
    SlotEvent,
    draw_link_snr,
    make_rng,
    run_baseline,
    run_mdma,
    simulate,
)
from .experiments import (
    ResultRow,
    SweepSpec,
    ValidationReport,
    analytic_solution,
    run_sweep,
    validate,
    write_rows_csv,
)
