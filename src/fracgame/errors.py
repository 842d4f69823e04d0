"""Exception types shared across the package."""


class FracgameError(Exception):
    """Base class for all package-specific errors."""


class InvalidGameError(FracgameError):
    """Game table failed validation; carries the full validation report.
    ``label`` names a coalition mask in the message, as ``validate`` does."""

    def __init__(self, report, label):
        self.report = report
        lines = ", ".join(f"{issue.kind}({label(issue.coalition)})" for issue in report.issues)
        super().__init__(f"invalid game on {report.n} players: {lines}")


class DimensionMismatch(FracgameError):
    """Allocation or player-count shapes do not line up."""


class InvalidPartition(FracgameError):
    """Blocks are empty, overlapping, or do not cover the player set."""


class CapExceeded(FracgameError):
    """An enumeration was requested beyond its configured size cap."""


class InfeasibleSolution(FracgameError):
    """A (partition, allocation) pair is not feasible for the game."""


class InfeasibleSystem(FracgameError):
    """A linear system has no feasible point where one was required."""


class NumericFailure(FracgameError):
    """Non-finite input or an LP that is unbounded where it cannot be."""


class ScenarioError(FracgameError):
    """A risk scenario is malformed."""


class RBarOutOfRange(ScenarioError):
    """Risk-aversion coefficient outside [0, mean/std)."""


class AlphaOutOfRange(ScenarioError):
    """Tail level outside [0, 1)."""
