"""Work extraction from measured quantum systems under feedback control.

The package simulates one control cycle at a time: a system thermalized at
temperature T is measured (projectively, weakly, or inefficiently), a
per-outcome feedback protocol extracts work, and an isothermal stage closes
the loop.  Ledgers track energy, entropy, and the second-law balance
S({p_n}) - ΔS_meas ≥ 0 across system, controller, and bath.
"""

from .errors import (
    ArgumentRangeError,
    ConfigError,
    DegenerateStateError,
    DimensionMismatchError,
    DomainError,
    IncompleteModelError,
    InputError,
    InvalidModelError,
    InvalidStateError,
    IoError,
    NoConvergenceError,
    NonPositiveTemperatureError,
    NonUnitaryBlockError,
    NotADistributionError,
    NotHermitianError,
    NumericalError,
    ParseError,
    PlanMismatchError,
    QFeedbackError,
    UnknownParameterError,
    ValidationError,
)
from .linalg import EigenDecomposition, dagger, eig_hermitian, hermitize, matrix_function
from .thermo import (
    DensityMatrix,
    Hamiltonian,
    ThermoReading,
    average_energy,
    shannon_entropy,
    thermal_state,
    thermo_reading,
    trace_distance,
    von_neumann_entropy,
)
from .measurement import (
    MeasurementModel,
    MeasurementOutcomes,
    ModelKind,
    OutcomeRecord,
    SecondLawReport,
    ValidationReport,
    apply,
    entropy_reduction,
    judge_second_law,
    measurement_energy_cost,
    second_law_verdict,
    validate,
)
from .feedback import (
    ContinuousResult,
    CycleLedger,
    FeedbackPlan,
    TransformResult,
    execute_plan,
    isothermal_work,
    plan_feedback,
    quasi_static_work,
    run_continuous,
    run_cycle,
    run_transform,
)
from .controller import (
    ControllerCycleResult,
    JointState,
    apply_joint_unitary,
    correlate,
    decohere_controller,
    feedback_unitary,
    finalize_branches,
    reset_controller,
    run_controller_cycle,
)
from .config import ScenarioConfig, parse_config, with_value
from .ledger import LedgerRow, emit, emit_csv, emit_json, ledger_row, parse_csv

__version__ = "0.1.0"
