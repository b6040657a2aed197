"""Exception types shared across the package."""

from __future__ import annotations


class InteractionEvalError(Exception):
    """Base class for all package errors."""


class SceneValidationError(InteractionEvalError):
    """A scene violates a structural invariant."""


class NonUniformSampling(SceneValidationError):
    pass


class ShortTrajectory(SceneValidationError):
    pass


class DuplicateAgentId(SceneValidationError):
    pass


class NonFiniteCoordinate(SceneValidationError):
    pass


class IndexOutOfRange(InteractionEvalError, IndexError):
    pass


class EmptyOverlap(InteractionEvalError):
    """Two agents share no co-observed time window."""


class UnknownAgent(InteractionEvalError, KeyError):
    pass


class LengthMismatch(InteractionEvalError):
    """Trajectories expected to be time-aligned have different lengths."""


class NoCollapse(InteractionEvalError):
    """Both interaction classes stay feasible through the recorded window."""


class DegenerateInterval(InteractionEvalError):
    """A pair never has two feasible interaction classes, so it has no
    evaluation interval."""


class NoFeasibleCombo(InteractionEvalError):
    """Every candidate speed-profile combination ends in a collision."""


class EmptyFeasibleSet(InteractionEvalError):
    pass


class EmptyCorpus(InteractionEvalError):
    pass


class ConfigError(InteractionEvalError):
    pass


class ParseError(InteractionEvalError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = str(path)
        self.message = message
