"""Water-surface profiles behind a dam and neural surrogates trained on them.

The package splits into two halves.  The hydraulic half (:mod:`.hydraulics`,
:mod:`.solver`, :mod:`.data`) builds corpora of steady gradually-varied-flow
profiles in rectangular channels, dam at the downstream end, by marching the
energy balance upstream from a weir boundary.  The learning half
(:mod:`.network`, :mod:`.losses`, :mod:`.models`, :mod:`.metrics`,
:mod:`.harness`) trains small dense networks to reproduce those profiles from
channel parameters, optionally regularized by physics-residual loss terms,
and measures how the physics terms change generalization when training data
is sparse or out of range.

Typical session::

    from backwater import (
        desk_ranges, DESK_GRID, generate, desk_plan, execute_plan, aggregate,
    )

    ds = generate(desk_ranges(), DESK_GRID, seed=0)
    plan, config = desk_plan()
    records = execute_plan(ds, plan, config, out_dir="runs")
    for row in aggregate(records):
        print(row)

The same workflow is available from the shell via ``backwater --help``.
"""

from .data import (
    DESK_GRID,
    DESK_RANGES,
    FULL_GRID,
    FULL_RANGES,
    ParameterRanges,
    ProfileDataset,
    SampleBatch,
    Scaler,
    desk_ranges,
    fit_scaler,
    full_ranges,
    generate,
    load,
    save,
    split_sizes,
    subsample_training,
    view_int,
    view_sp,
    view_vts,
)
from .harness import (
    DEFAULT_FRACTIONS,
    DEFAULT_SEEDS,
    DEFAULT_WIDTH_SWEEP,
    EXTRAPOLATION_SEED,
    ExperimentPlan,
    RunRecord,
    aggregate,
    desk_plan,
    discover_records,
    execute_plan,
    extrapolation_dataset,
    lambda_search,
    load_record,
    replay,
    run_one,
    save_record,
    write_report,
)
from .hydraulics import (
    GRAVITY,
    ChannelScenario,
    ConvergenceError,
    InsufficientEnergyError,
    conjugate_depth,
    critical_depth,
    depth_from_energy,
    friction_slope,
    froude,
    momentum_function,
    normal_depth,
    scenario_table,
    specific_energy,
    weir_depth,
)
from .losses import (
    CRITICAL_FRACTION,
    MIN_DEPTH,
    PHYSICS_TERMS,
    STRATEGIES,
    VTS_ONLY_STRATEGIES,
    loss_bc,
    loss_en,
    loss_fr,
    loss_pde,
    loss_vol,
    physics_constants,
)
from .metrics import (
    ProfileMetrics,
    SetEvaluation,
    empirical_cdf,
    evaluate_set,
    per_station_mae,
    summarize,
)
from .models import (
    ARCHITECTURES,
    DEFAULT_BATCH_SIZES,
    DEFAULT_WIDTHS,
    ModelSpec,
    TrainedModel,
    load_model,
    predict,
    reconstruct,
    save_model,
    train,
    train_stack,
)
from .network import (
    AdamState,
    NetworkParams,
    ReduceLROnPlateau,
    TrainConfig,
    adam_step,
    backward,
    forward,
    forward_buffers,
    init,
    mse,
)
from .solver import (
    MIXED,
    SUBCRITICAL,
    GridSpec,
    WaterProfile,
    boundary_depths,
    classify_regime,
    solve_profile,
    solve_profiles,
    step_upstream,
    weir_and_normal_depths,
)

__version__ = "0.1.0"

#: every name imported above (the submodules aside) and the version
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__package__", None) != __name__
] + ["__version__"]
