"""acklab: a simulation laboratory for online acknowledgment batching under
general delay costs — pluggable cost models, exact offline solvers, online
policies, adversarial lower-bound drivers, and a benchmark harness."""

from .cost import (
    DelayModelSpec,
    Objective,
    PropertyReport,
    bdelay,
    capped_linear,
    check_continuous_submodular,
    check_monotone,
    concave_two_piece,
    f_rows,
    f_vector,
    linear_sum,
    lp_norm,
    max_wait,
    max_wait_pow,
    model_from_json,
    model_to_json,
    ordered_norm,
    permit_plf,
    plf_eval,
    plf_round_up,
    sum_vector,
    top_k,
)
from .model import (
    Batch,
    CostBreakdown,
    Instance,
    InvalidScheduleError,
    Schedule,
    batches_from_acks,
    evaluate_schedule,
    instance_from_json,
    instance_to_json,
)
from .offline import (
    BruteForceInfeasibleError,
    DpTable,
    ORACLES,
    brute_force_optimal,
    dp_optimal,
    exact_optimum,
    longest_critical_suffix,
)
from .engine import (
    EngineError,
    OnlineAlgorithm,
    SimulationDriver,
    TraceEvent,
    simulate,
)
from .algorithms import (
    GreedyBatchOblivious,
    GreedyMaxMonotone,
    GreedyTau,
    SumMonotonePhases,
    make_algorithm,
)
from .adversary import (
    ConcaveAdversaryReport,
    Permit,
    PermitAccount,
    ProtocolViolation,
    TcpPermitAdapter,
    gen_greedy_tau_hard,
    permit_cover_optimal,
    permits_to_tcp_schedule,
    run_concave_adversary,
    run_pp_adversary,
)

__version__ = "0.1.0"
