"""Exception hierarchy for the simulation kernel."""


class SimulationError(Exception):
    """Base class for every error raised by the simulation kernel."""


class SchedulingError(SimulationError):
    """Raised for invalid scheduling requests (negative delay, past time)."""
