"""Stationary scattering, causality bounds, and wave-packet passage times
for one-dimensional square barriers and wells.

Every amplitude and phase derivative comes from one vectorized NumPy kernel
(`hartman._kernel`), evaluated on whole arrays of wavenumbers.
"""
from .boundstates import (
    BoundLevel,
    BoundStateSpectrum,
    LowMomentumLimits,
    count_bound_states,
    is_at_threshold,
    levinson_check,
    low_momentum_limits,
    solve_bound_states,
    threshold_depths,
)
from .delays import (
    DelayRecord,
    DwellRecord,
    causality_bounds,
    dwell_time,
    eigenphase_derivative_bounds,
    interior_norm,
    phase_time,
    smith_identity_check,
    wigner_delay,
)
from .errors import ConvergenceError, ThresholdDivergenceError
from .potential import ATOMIC, PhysicalConstants, SquarePotential
from .scattering import (
    Amplitudes,
    EigenChannelValues,
    PhaseTable,
    amplitudes,
    build_phase_table,
    default_k_max,
    eigen_channels,
    van_kampen_check,
)
from .wavepacket import (
    GaussianPacketSpec,
    PassageTimeReport,
    classical_reference_time,
    critical_width,
    crossover_width_empirical,
    mean_exit_time,
    mean_exit_time_via_flux,
    packet_amplitude,
    transmission_probability,
)

__version__ = "0.1.0"


__all__ = [
    "ATOMIC",
    "Amplitudes",
    "BoundLevel",
    "BoundStateSpectrum",
    "ConvergenceError",
    "DelayRecord",
    "DwellRecord",
    "EigenChannelValues",
    "GaussianPacketSpec",
    "LowMomentumLimits",
    "PassageTimeReport",
    "PhaseTable",
    "PhysicalConstants",
    "SquarePotential",
    "ThresholdDivergenceError",
    "amplitudes",
    "build_phase_table",
    "causality_bounds",
    "classical_reference_time",
    "count_bound_states",
    "critical_width",
    "crossover_width_empirical",
    "default_k_max",
    "dwell_time",
    "eigen_channels",
    "eigenphase_derivative_bounds",
    "interior_norm",
    "is_at_threshold",
    "levinson_check",
    "low_momentum_limits",
    "mean_exit_time",
    "mean_exit_time_via_flux",
    "packet_amplitude",
    "phase_time",
    "smith_identity_check",
    "solve_bound_states",
    "threshold_depths",
    "transmission_probability",
    "van_kampen_check",
    "wigner_delay",
]
