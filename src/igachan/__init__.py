"""Channel-estimation toolkit for the linear-Gaussian model y = A h + z.

Exact and modified MMSE oracles, the information-geometry estimation
framework (IGA) with rank-1 splits, the interference-cancellation
estimators IC-IGA and IC-SIGA, a beam-domain planar-array measurement model
with ZC pilots and FFT fast operators, a synthetic scenario generator, and
an NMSE benchmark harness.
"""

from .errors import ConfigError, DivergenceError, DomainError
from .gaussian import (
    DiagGaussian,
    GaussianExpectation,
    GaussianNatural,
    expectation_to_natural,
    kl_divergence,
    m_project_to_diag,
    natural_to_expectation,
)
from .estimators import (
    MeasurementModel,
    ModelBatch,
    build_modified_form,
    mmse_estimate,
    modified_mmse_estimate,
)
from .iga import (
    AuxiliaryState,
    SplitScheme,
    build_rank1_split,
    project_all,
    update_points,
)
from .ic import (
    IcState,
    ic_beliefs,
    ic_iga_step,
    ic_siga_step,
    initial_ic_state,
    mproj_belief_oracle,
)
from .bscm import (
    ArrayConfig,
    BscmScenario,
    ExtractionMap,
    OfdmConfig,
    PilotPlan,
    ScenarioConfig,
    assemble_dense_A,
    build_P_matrix,
    build_steering,
    geometry_from_config,
    load_scenario_config,
    parse_scenario_config,
    zc_pilot,
)
from .scenario import (
    BeamChannel,
    PowerMatrix,
    extraction_from_powers,
    gen_power_matrices,
    sample_channels,
    sample_extracted,
    substream,
    synthesize_ahy,
    synthesize_rx,
)
from .harness import (
    ALGORITHMS,
    BenchmarkSpec,
    nmse,
    reconstruct_G,
    run_algorithm,
    run_benchmark,
    write_benchmark_csv,
)
from .report import EstimateReport
from .validate import validate_suite

__version__ = "0.1.0"
