"""Quantum state sharing over partially entangled channels.

Exact state-vector simulation of probabilistic sharing protocols, their
outcome/correction tables, many-party extensions, and analytic plus
Monte-Carlo transmission-rate estimates.
"""

from .bases import (
    BELL_LABELS,
    GHZ_LABELS,
    X_LABELS,
    BasisSet,
    channel_bell,
    channel_ghz,
    generalized_bell_basis,
    generalized_ghz_basis,
    generalized_pair_basis,
    pair_anchors,
    pair_labels,
    x_basis,
)
from .efficiency import (
    EfficiencyReport,
    ProtocolComparison,
    analytic_rate,
    compare_protocols,
    concurrence,
    cpro1_analytic,
    cpro2_analytic,
    cpro_monte_carlo,
    haar_sample,
    transmission_sum,
)
from .measurement import MeasurementOutcome, measure
from .protocols import (
    SUCCESS_FIDELITY,
    TABLE1_CORRECTIONS,
    TABLE2_CORRECTIONS,
    BranchRecord,
    CompiledProtocol,
    DegenerateChannelError,
    MStrategy,
    ProtocolRun,
    STRATEGIES,
    TableRowCheck,
    bob_bit_withheld_state,
    choose_m,
    compile_protocol,
    nparty_bell_targets,
    run_nparty_bell,
    run_nparty_ghz,
    run_protocol1,
    run_protocol2,
    strategy_targets,
    verify_table1,
    verify_table2,
)
from .states import (
    IDENTITY,
    NORM_ATOL,
    SIGMA_X,
    SIGMA_X_SIGMA_Z,
    SIGMA_Z,
    SIGMA_Z_SIGMA_X,
    UNITARY_ATOL,
    ZERO_NORM_THRESHOLD,
    InputQubit,
    PureState,
    SingleQubitUnitary,
    apply_unitary,
    fidelity,
    tensor,
)

__version__ = "0.1.0"
