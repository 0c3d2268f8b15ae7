"""Stationary scattering, causality bounds, and wave-packet passage times
for one-dimensional square barriers and wells.

Every amplitude and phase derivative comes from one vectorized NumPy kernel
(`hartman._kernel`), evaluated on whole arrays of wavenumbers.

`import hartman` loads only `errors` and `potential`.  Every other module is
imported the first time one of its names is used (PEP 562), so
`hartman.amplitudes(...)` loads `scattering` and `_kernel` and nothing else.
The submodules `_kernel`, `scattering`, `boundstates`, `delays`,
`quadrature` and `wavepacket` resolve as attributes the same way.
"""
import importlib

from .errors import ConvergenceError, ThresholdDivergenceError
from .potential import ATOMIC, PhysicalConstants, SquarePotential

__version__ = "0.1.0"

# each public name by the module that defines it; errors and potential are
# imported above, the others by __getattr__ on first use
_PUBLIC = {
    "boundstates": (
        "BoundLevel", "BoundStateSpectrum", "LowMomentumLimits", "count_bound_states",
        "is_at_threshold", "levinson_check", "low_momentum_limits", "solve_bound_states",
        "threshold_depths",
    ),
    "delays": (
        "DelayRecord", "DwellRecord", "causality_bounds", "dwell_time",
        "eigenphase_derivative_bounds", "interior_norm", "phase_time",
        "smith_identity_check", "wigner_delay",
    ),
    "errors": ("ConvergenceError", "ThresholdDivergenceError"),
    "potential": ("ATOMIC", "PhysicalConstants", "SquarePotential"),
    "scattering": (
        "Amplitudes", "EigenChannelValues", "PhaseTable", "amplitudes", "build_phase_table",
        "default_k_max", "eigen_channels", "van_kampen_check",
    ),
    "wavepacket": (
        "GaussianPacketSpec", "PassageTimeReport", "classical_reference_time",
        "critical_width", "crossover_width_empirical", "mean_exit_time",
        "mean_exit_time_via_flux", "packet_amplitude", "transmission_probability",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = ("_kernel", "boundstates", "delays", "quadrature", "scattering", "wavepacket")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
