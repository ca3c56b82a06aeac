"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class StateError(RuntimeError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class ScheduleError(ValueError):
    """Invalid noise-schedule inputs or a schedule invariant violation."""


class CheckpointError(ValueError):
    """Malformed, truncated or version-incompatible checkpoint file."""


class ConfigError(ValueError):
    """Unparseable run configuration or unknown/invalid keys."""


class TraceError(ValueError):
    """Malformed line or record in a trace or benchmark output file."""
