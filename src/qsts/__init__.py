"""Quantum state sharing over partially entangled channels.

Exact state-vector simulation of probabilistic sharing protocols, their
outcome tables and Pauli corrections, many-party extensions, and analytic
plus Monte-Carlo transmission-rate estimates.

Each public name is imported from its module on first access (PEP 562), so
``import qsts`` loads no numpy; the names of ``rules`` never do.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module they are imported from.
_EXPORTS = {
    "bases": (
        "BELL_LABELS",
        "GHZ_LABELS",
        "X_LABELS",
        "BasisSet",
        "channel_bell",
        "channel_ghz",
        "generalized_bell_basis",
        "generalized_ghz_basis",
        "generalized_pair_basis",
        "pair_anchors",
        "pair_labels",
        "x_basis",
    ),
    "efficiency": (
        "EfficiencyReport",
        "ProtocolComparison",
        "compare_protocols",
        "cpro_monte_carlo",
        "haar_sample",
        "transmission_sum",
    ),
    "measurement": ("MeasurementOutcome", "measure"),
    "protocols": (
        "SUCCESS_FIDELITY",
        "BranchRecord",
        "CompiledProtocol",
        "ProtocolRun",
        "TableRowCheck",
        "bob_bit_withheld_state",
        "compile_params",
        "nparty_bell_targets",
        "run_nparty_bell",
        "run_nparty_ghz",
        "run_protocol1",
        "run_protocol2",
        "strategy_targets",
        "verify_table1",
        "verify_table2",
    ),
    "rules": (
        "NORM_ATOL",
        "STRATEGIES",
        "DegenerateChannelError",
        "InputQubit",
        "MStrategy",
        "analytic_rate",
        "choose_m",
        "concurrence",
        "cpro1_analytic",
        "cpro2_analytic",
    ),
    "states": (
        "IDENTITY",
        "SIGMA_X",
        "SIGMA_X_SIGMA_Z",
        "SIGMA_Z",
        "SIGMA_Z_SIGMA_X",
        "UNITARY_ATOL",
        "ZERO_NORM_THRESHOLD",
        "PureState",
        "SingleQubitUnitary",
        "apply_unitary",
        "fidelity",
        "tensor",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
