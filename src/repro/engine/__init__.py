"""Model registry + parallel sweep engine.

The engine is the layer between the simulators (``repro.core``,
``repro.baselines``) and the experiment harness (``repro.experiments``):

* :mod:`repro.engine.record` — :class:`RunRecord`, the one serializable
  result type every model returns;
* :mod:`repro.engine.registry` — models by name behind a single
  ``run(a, b, config, **variant)`` interface;
* :mod:`repro.engine.sweep` — cross-product planning and the point
  executor (:class:`SlotPool`: killable worker processes, one retry
  loop) with the disk cache as the shared result store;
* :mod:`repro.engine.diskcache` — atomic, checksum-validated,
  schema-versioned JSON cache;
* :mod:`repro.engine.defaults` — the 1/64-scale experiment system;
* :mod:`repro.engine.faults` — deterministic fault injection behind the
  chaos test suite (no-op unless a plan is armed).
"""

from repro.engine.defaults import (
    MODEL_SCALE,
    PREPROCESS_VARIANTS,
    SCALED_FIBERCACHE_BYTES,
    TILE_THRESHOLD_BYTES,
    preprocess_config_key,
    preprocess_options,
    scaled_cpu_config,
    scaled_gamma_config,
)
from repro.engine.record import RunRecord
from repro.engine.registry import (
    CPU_MODELS,
    GAMMA_MODELS,
    Model,
    SIMULATOR_MODELS,
    available_models,
    default_config_for,
    get_model,
    register_model,
)
from repro.engine.sweep import (
    DEFAULT_MASK,
    DEFAULT_MODELS,
    DEFAULT_OPERAND,
    DEFAULT_SEMIRING,
    DEFAULT_VARIANTS,
    PointFailure,
    SweepPoint,
    SweepPointError,
    SweepPolicy,
    SweepResult,
    SlotPool,
    WorkerSlot,
    clear_checkpoint,
    execute_point,
    load_checkpoint,
    pending_points,
    plan_sweep,
    record_key,
    run_sweep,
    worker_loop,
)

__all__ = [
    "CPU_MODELS",
    "DEFAULT_MASK",
    "DEFAULT_MODELS",
    "DEFAULT_OPERAND",
    "DEFAULT_SEMIRING",
    "DEFAULT_VARIANTS",
    "GAMMA_MODELS",
    "SIMULATOR_MODELS",
    "PointFailure",
    "SweepPointError",
    "SweepPolicy",
    "SweepResult",
    "SlotPool",
    "clear_checkpoint",
    "load_checkpoint",
    "MODEL_SCALE",
    "Model",
    "PREPROCESS_VARIANTS",
    "RunRecord",
    "SCALED_FIBERCACHE_BYTES",
    "SweepPoint",
    "TILE_THRESHOLD_BYTES",
    "WorkerSlot",
    "worker_loop",
    "available_models",
    "default_config_for",
    "execute_point",
    "get_model",
    "pending_points",
    "plan_sweep",
    "preprocess_config_key",
    "preprocess_options",
    "record_key",
    "register_model",
    "run_sweep",
    "scaled_cpu_config",
    "scaled_gamma_config",
]
